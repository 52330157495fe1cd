"""The execution policy: one parse rule, and tier packages load on demand."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.sim.config import SimConfig
from repro.sim.policy import SWITCHES, ExecutionPolicy, resolve

#: policy name -> (module, helper) of the tier's own ``*_enabled``
HELPERS = {
    "memfast": ("repro.memfast.attach", "memfast_enabled"),
    "batch": ("repro.batch.engine", "batch_enabled"),
    "lockstep": ("repro.lockstep", "lockstep_enabled"),
    "trace": ("repro.obs.recorder", "trace_enabled"),
    "check": ("repro.lint.invariants", "invariants_enabled"),
    "result_memo": ("repro.store.results", "result_cache_enabled"),
}

#: environment value (None: unset) -> whether it reads as on
ENV_VALUES = {None: False, "": False, "0": False, " 0 ": False,
              "1": True, " 1": True}


def test_every_switch_has_a_helper():
    assert set(HELPERS) == set(SWITCHES)
    assert ExecutionPolicy._fields == tuple(SWITCHES)
    assert {f for f, _ in SWITCHES.values()} <= set(
        SimConfig.__dataclass_fields__)


@pytest.mark.parametrize("flag", [False, True], ids=["flag-off", "flag-on"])
@pytest.mark.parametrize("value", list(ENV_VALUES),
                         ids=[repr(v) for v in ENV_VALUES])
@pytest.mark.parametrize("name", list(SWITCHES))
def test_one_parse_rule(monkeypatch, name, value, flag):
    import importlib

    field, var = SWITCHES[name]
    for _, other in SWITCHES.values():
        monkeypatch.delenv(other, raising=False)
    if value is not None:
        monkeypatch.setenv(var, value)
    env_on = ENV_VALUES[value]
    config = SimConfig(**{field: flag})
    policy = resolve(config)
    assert getattr(policy, name) is (env_on or flag)
    # no other switch moves
    assert policy == ExecutionPolicy(**{name: env_on or flag})
    assert getattr(resolve(), name) is env_on
    module, helper = HELPERS[name]
    enabled = getattr(importlib.import_module(module), helper)
    if name == "result_memo":
        assert enabled(config) is (env_on or flag)
    else:
        assert enabled() is env_on


def test_observers_stand_down_batch_and_memo():
    assert ExecutionPolicy(batch=True).batches
    assert ExecutionPolicy(result_memo=True).memoizes
    for observer in ({"trace": True}, {"check": True}):
        policy = ExecutionPolicy(batch=True, result_memo=True, **observer)
        assert policy.observed
        assert not policy.batches
        assert not policy.memoizes


# ---------------------------------------------------------------------------
# import hygiene: the default path loads no opt-in tier package
# ---------------------------------------------------------------------------

TIER_PACKAGES = ("repro.jit", "repro.memfast", "repro.batch",
                 "repro.lockstep", "repro.store", "repro.obs", "repro.lint",
                 "repro.mc")

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _loaded_after(code: str, **env_vars: str) -> set[str]:
    """Modules a fresh interpreter holds after running ``code``, with
    every ``REPRO_*`` variable cleared and then ``env_vars`` set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def _tiers(modules: set[str]) -> list[str]:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".")
                         for p in TIER_PACKAGES))


DEFAULT_PATHS = {
    "import-cli": "import repro.cli",
    "import-sweep": "import repro.sim.sweep",
    "repro-run": ("from repro.cli import main\n"
                  "assert main(['run', 'sha', '--scale', '0.05', "
                  "'--trace', 'trace1']) == 0"),
}


@pytest.mark.parametrize("code", list(DEFAULT_PATHS.values()),
                         ids=list(DEFAULT_PATHS))
def test_default_path_loads_no_tier(code):
    assert _tiers(_loaded_after(code)) == []


def test_serial_sweep_skips_the_pool():
    loaded = _loaded_after(
        "from repro.sim.sweep import run_grid\n"
        "run_grid(['sha'], ['WL-Cache'], 'trace1', scale=0.05)")
    assert _tiers(loaded) == []
    assert "concurrent.futures.process" not in loaded
    assert "concurrent.futures.process" not in _loaded_after(
        "import repro.sim.sweep")


_BUILD = ("from repro.sim.config import SimConfig\n"
          "from repro.sim.factory import build_system\n"
          "from repro.workloads import build_workload\n"
          "system = build_system(build_workload('sha', 0.05), 'WL-Cache', "
          "'trace1', {config})\n")


@pytest.mark.parametrize("env,config,attached,package", [
    ({}, "SimConfig(memfast=True)", "system.design._memfast_state",
     "repro.memfast"),
    ({"REPRO_TRACE": "1"}, "None", "system._trace_recorder", "repro.obs"),
    ({}, "SimConfig(check_invariants=True)",
     "system.design._invariant_checker", "repro.lint"),
], ids=["config-memfast", "env-trace", "config-check"])
def test_selected_tier_still_attaches(env, config, attached, package):
    code = _BUILD.format(config=config) + f"assert {attached} is not None\n"
    loaded = _loaded_after(code, REPRO_CACHE_DIR="off", **env)
    assert package in loaded


def test_selected_batch_tier_still_engages():
    _loaded_after(
        "import sys\n"
        "from repro.sim.sweep import run_grid\n"
        "run_grid(['sha'], ['WL-Cache', 'VCache-WT'], 'trace1', scale=0.05)\n"
        "assert 'repro.batch.engine' in sys.modules\n"
        "from repro.batch.engine import batch_stats\n"
        "assert batch_stats()['replays'] == 2, batch_stats()\n",
        REPRO_CACHE_DIR="off", REPRO_BATCH=" 1")

"""Tests of the benchmark's own machinery: spans, digests, workloads, children."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

import spec
from digest import result_digest
from report import PARTITION, PER_LAYER, layer_metrics
from repro.sim.results import EnergyBreakdown, PeriodStats, RunResult
from tracer import LAYER_SPANS, Tracer, install

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class FakeClock:
    """A clock that returns the scripted instants in order (ns)."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self) -> int:
        return next(self.instants)


def test_self_time_on_nested_span_tree():
    # root [0, 100]: a [10, 60] holding b [20, 30] and c [35, 55] holding
    # b [40, 45]; then a second b [70, 90] directly under root
    clock = FakeClock([0, 10, 20, 30, 35, 40, 45, 55, 60, 70, 90, 100])
    t = Tracer(clock)
    f_b = t.wrap(lambda: None, "b")

    def c():
        f_b()

    def a():
        f_b()
        t.wrap(c, "c")()

    with t.span("root"):
        t.wrap(a, "a")()
        f_b()
    assert t.totals["b"] == [10 + 5 + 20, 3]
    assert t.totals["c"] == [20 - 5, 1]
    assert t.totals["a"] == [50 - 10 - 20, 1]
    assert t.totals["root"] == [100 - 50 - 20, 1]
    assert sum(v[0] for v in t.totals.values()) == 100


def test_same_group_call_is_one_span_and_opaque_mutes_children():
    clock = FakeClock([0, 10, 20, 30, 40, 50])
    t = Tracer(clock)
    inner = t.wrap(lambda: None, "store", group="access")
    outer = t.wrap(lambda: inner(), "store", group="access")
    child = t.wrap(lambda: None, "cpu")
    oracle = t.wrap(lambda: child(), "oracle", opaque=True)
    with t.span("root"):
        outer()
        oracle()
    assert t.totals["store"] == [10, 1]
    assert t.totals["oracle"] == [10, 1]
    assert "cpu" not in t.totals
    assert t.totals["root"] == [30, 1]


def test_layer_metrics_partition_the_traced_wall():
    spans = {name: [0.25 * (i + 1), i + 1] for i, name in enumerate(LAYER_SPANS)}
    spans["root"] = [0.5, 1]
    traced = {
        "spans": {"spans": spans, "distinct": {"workloads.build": 3}},
        "counters": {},
        "instructions": 1000,
        "points_issued": 10,
        "points_unique": 8,
    }
    metrics = layer_metrics({"import_s": 0.1, "run_s": 2.0}, traced)
    assert set(metrics) == set(PER_LAYER)
    wall = metrics["tracing.traced_wall_s"]["value"]
    assert sum(metrics[name]["value"] for name in PARTITION) == pytest.approx(wall)
    assert wall == pytest.approx(sum(v[0] for v in spans.values()))
    assert metrics["tracing.overhead_frac"]["value"] == pytest.approx(wall / 2.0 - 1)


def test_install_wraps_and_uninstall_restores():
    from repro.caches.base import CachedMemorySystem
    from repro.core.wl_cache import WLCache
    from repro.cpu.core import InOrderCore
    from repro.sim import factory, sweep

    before = (InOrderCore.run_chunk, sweep.run_grid, factory.build_system, WLCache.store)
    uninstall = install(Tracer())
    try:
        assert hasattr(InOrderCore.run_chunk, "__wrapped__")
        assert hasattr(CachedMemorySystem.load, "__wrapped__")
        assert hasattr(sweep.run_grid, "__wrapped__")
    finally:
        uninstall()
    after = (InOrderCore.run_chunk, sweep.run_grid, factory.build_system, WLCache.store)
    assert after == before


def _run_child(tmp_path, traced: bool) -> dict:
    out = tmp_path / "out.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), REPRO_CACHE_DIR=str(tmp_path / "store"))
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "cli", "--out", str(out)]
    cmd += ["--t0", repr(time.monotonic())] + ["--traced"] * traced + ["--", "list"]
    subprocess.run(cmd, check=True, env=env, cwd=ROOT, capture_output=True, timeout=120)
    return json.loads(out.read_text())


def test_untraced_child_runs_the_original_run_chunk(tmp_path):
    assert _run_child(tmp_path, traced=False)["run_chunk_wrapped"] is False
    assert "spans" not in _run_child(tmp_path, traced=False)
    assert _run_child(tmp_path, traced=True)["run_chunk_wrapped"] is True


def _sample_result():
    return RunResult(
        program="sha",
        design="WL-Cache",
        trace="trace1",
        halted=True,
        total_time_ns=1000,
        instructions=500,
        metrics={"counters": {"x": 1}},
        energy=EnergyBreakdown(cache_read_nj=1.5, compute_nj=2.25),
        periods=[PeriodStats(on_time_ns=10, instrs=5)],
        final_regs=[0] * 32,
        final_memory=[7] * 64,
    )


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, dict):
        return {**value, "extra": 1}
    if isinstance(value, list):
        return value[:-1] + [value[-1] + 1] if value and isinstance(value[-1], int) else []
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _changed(getattr(value, first))})
    raise AssertionError(f"no change rule for {value!r}")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunResult)])
def test_one_field_change_trips_the_digest(name):
    base = _sample_result()
    changed = _sample_result()
    setattr(changed, name, _changed(getattr(base, name)))
    assert result_digest(changed) != result_digest(base)
    assert result_digest(_sample_result()) == result_digest(base)


def test_final_memory_word_change_trips_the_digest():
    base = _sample_result()
    changed = _sample_result()
    changed.final_memory[40] ^= 1
    assert result_digest(changed) != result_digest(base)


def _recount_duplicates(workload: str) -> int:
    """Count repeated points by pairwise config equality, not by hashing."""
    from repro.sim.config import SimConfig

    seen: list[tuple] = []
    duplicates = 0
    for call in spec.workload_calls(workload):
        config = SimConfig().with_(**spec.sim_overrides(call, spec.DEFAULT_SEED))
        for app, design in call.points():
            point = (app, design, call.trace, config)
            if any(point == other for other in seen):
                duplicates += 1
            else:
                seen.append(point)
    return duplicates


@pytest.mark.parametrize(
    "workload, duplicates",
    [("sensitivity_sweep", 32), ("nofail_grid", 0), ("outage_grid", 0)],
)
def test_duplicate_points_match_an_independent_recount(workload, duplicates):
    calls = spec.workload_calls(workload)
    issued = sum(len(c.points()) for c in calls)
    reported = issued - spec.unique_points(calls, spec.DEFAULT_SEED)
    assert reported == _recount_duplicates(workload) == duplicates


def test_workload_shapes():
    sizes = {w: sum(len(c.points()) for c in spec.workload_calls(w)) for w in spec.WORKLOADS}
    assert sizes == {
        "nofail_grid": 115,
        "outage_grid": 230,
        "sensitivity_sweep": 216,
        "oneshot_cli": 23,
    }


def test_golden_file_pins_every_point():
    with open(os.path.join(BENCH, "golden.json")) as f:
        golden = json.load(f)
    for workload in spec.WORKLOADS:
        calls = spec.workload_calls(workload)
        labels = {
            spec.point_label(i, call, app, design)
            for i, call in enumerate(calls)
            for app, design in call.points()
        }
        assert set(golden[workload]) == labels


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s",
        "setup_s",
        "guest_mips",
        "peak_rss_mb",
    ]

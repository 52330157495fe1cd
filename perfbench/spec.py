"""Workload definitions for the figure-regeneration benchmark.

A workload is an ordered list of calls, issued one after another by a
single client in one process (a closed loop: each call waits for the
previous one). A sweep call is one ``repro.sim.sweep.run_grid`` call; a
CLI call is one fresh ``repro run`` invocation.

The calls mirror the figure benches in ``benchmarks/`` at a reduced
workload scale (:data:`SCALE`), so that one cold pass takes seconds and a
measured run can repeat it several times.

Seeds: :data:`DEFAULT_SEED` keeps the paper's power traces; any other seed
re-seeds every power trace through ``SimConfig.trace_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload size multiplier handed to every call (``run_grid(scale=...)``,
#: ``repro run --scale``).
SCALE = 0.15

#: The seed whose results are pinned in ``golden.json``.
DEFAULT_SEED = 0

#: The 23 kernels, in ``repro.workloads.ALL_WORKLOADS`` order.
ALL_APPS = tuple(
    "adpcmdecode adpcmencode epic g721decode g721encode gsmdecode gsmencode jpegdecode"
    " jpegencode mpeg2decode mpeg2encode pegwitdecrypt sha susancorners susanedges"
    " basicmath qsort dijkstra fft fft_i patricia rijndael_d rijndael_e".split()
)

#: The paper's five designs, in plotting order (``repro.sim.config.DESIGNS``).
DESIGNS = ("NVCache-WB", "VCache-WT", "ReplayCache", "NVSRAM(ideal)", "WL-Cache")

#: ``benchmarks/bench_common.SENSITIVITY_APPS``.
SENSITIVITY_APPS = tuple(
    "adpcmencode jpegdecode sha susancorners qsort dijkstra fft rijndael_e".split()
)

WORKLOADS = ("nofail_grid", "outage_grid", "sensitivity_sweep", "oneshot_cli")


@dataclass(frozen=True)
class Call:
    """One issued call: a ``run_grid`` grid, or (``oneshot_cli``) one ``repro run``.

    ``overrides`` holds plain ``SimConfig`` field overrides as ``(name,
    value)`` pairs. ``assoc`` selects a Fig. 8b cache geometry, which
    :func:`sim_overrides` turns into ``geometry``/``sram_params`` values.
    """

    apps: tuple[str, ...]
    designs: tuple[str, ...]
    trace: str | None
    overrides: tuple[tuple[str, object], ...] = ()
    assoc: int | None = None

    def points(self) -> list[tuple[str, str]]:
        return [(a, d) for a in self.apps for d in self.designs]

    def describe(self) -> str:
        parts = [f"{k}={v!r}" for k, v in self.overrides]
        if self.assoc is not None:
            parts.append(f"assoc={self.assoc}")
        return ",".join(parts) or "default"


def trace_seed(seed: int) -> int | None:
    """The ``SimConfig.trace_seed`` a benchmark seed selects."""
    return None if seed == DEFAULT_SEED else seed


def _fig8_calls() -> list[Call]:
    """Figs. 8a and 8b, as ``bench_fig08_dq_policy_assoc`` issues them.

    The NVSRAM(ideal) baseline of each condition is issued once: the bench
    memoizes it across 8a and 8b.
    """
    apps, wl = SENSITIVITY_APPS, ("WL-Cache",)
    calls = []
    for trace in (None, "trace1", "trace2"):
        calls.append(Call(apps, ("NVSRAM(ideal)",), trace))
        calls.append(Call(apps, wl, trace, (("dq_policy", "fifo"),)))
        calls.append(Call(apps, wl, trace, (("dq_policy", "lru"),)))
    for trace in (None, "trace1", "trace2"):
        for assoc in (1, 2, 4):
            calls.append(Call(apps, wl, trace, assoc=assoc))
    return calls


def _fig9_calls() -> list[Call]:
    """Fig. 9 (``bench_fig09_maxline_sweep``) on ``SENSITIVITY_APPS``."""
    apps = SENSITIVITY_APPS
    calls = [Call(apps, ("NVSRAM(ideal)",), "trace1")]
    for repl in ("fifo", "lru"):
        for maxline in (2, 4, 6, 8):
            over = (("cache_replacement", repl), ("maxline", maxline), ("adaptive", False))
            calls.append(Call(apps, ("WL-Cache",), "trace1", over))
    return calls


def workload_calls(name: str) -> list[Call]:
    """The ordered calls of workload ``name``."""
    if name == "nofail_grid":
        return [Call(ALL_APPS, DESIGNS, None)]
    if name == "outage_grid":
        return [Call(ALL_APPS, DESIGNS, "trace1"), Call(ALL_APPS, DESIGNS, "trace2")]
    if name == "sensitivity_sweep":
        return _fig8_calls() + _fig9_calls()
    if name == "oneshot_cli":
        return [Call((app,), ("WL-Cache",), "trace1") for app in ALL_APPS]
    raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")


def sim_overrides(call: Call, seed: int) -> dict:
    """The ``run_grid`` keyword overrides of a sweep call (imports ``repro``)."""
    from dataclasses import replace

    from repro.mem.setassoc import CacheGeometry
    from repro.sim.config import sram_cache_params

    out = dict(call.overrides)
    if call.assoc is not None:
        out["geometry"] = CacheGeometry(size_bytes=8192, assoc=call.assoc, line_bytes=64)
        # wider associativity burns more lookup energy per access (Fig. 8b)
        extra = 0.012 if call.assoc == 4 else 0.0
        params = sram_cache_params()
        out["sram_params"] = replace(
            params,
            read_energy_nj=params.read_energy_nj + extra,
            write_energy_nj=params.write_energy_nj + extra,
        )
    if trace_seed(seed) is not None:
        out["trace_seed"] = trace_seed(seed)
    return out


def unique_points(calls: list[Call], seed: int) -> int:
    """Distinct (kernel, design, trace, resolved ``SimConfig``) points issued."""
    from repro.sim.config import SimConfig

    keys = set()
    for call in calls:
        config = repr(SimConfig().with_(**sim_overrides(call, seed)))
        keys.update((app, design, call.trace, config) for app, design in call.points())
    return len(keys)


def cli_argv(call: Call, seed: int) -> list[str]:
    """``repro`` arguments of a CLI call."""
    (app,), (design,) = call.apps, call.designs
    argv = ["run", app, "--design", design, "--scale", repr(SCALE)]
    if call.trace is not None:
        argv += ["--trace", call.trace]
    if trace_seed(seed) is not None:
        argv += ["--seed", str(trace_seed(seed))]
    return argv


def point_label(call_index: int, call: Call, app: str, design: str) -> str:
    """Stable name of one point: call index, kernel, design, trace, config."""
    trace = call.trace or "no-failure"
    return f"{call_index:02d}|{app}|{design}|{trace}|{call.describe()}"

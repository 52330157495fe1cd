"""Lockstep sweep benchmark: column replay vs per-instance batch replay.

Runs, per kernel, the *full figure grid* - every cache design crossed
with the no-failure condition and both power traces (the Fig. 4/5/6
axis), plus the WL-Cache sensitivity slice the Fig. 8-10 sweeps walk
(capacitor size x maxline/waterline x DirtyQueue capacity, under both
traces) - in two tiers: the batch record-once/replay-many engine
(``BENCH_6``'s fast side, one ``ReplayCore`` loop per grid point) and
the lockstep tier (``SimConfig(lockstep=True)``: one generated engine
advances the whole same-skeleton column). Results land in
``results/BENCH_9.json``.

Methodology - *warm* sweep, unlike BENCH_6's cold one, and on purpose:

* Both tiers share the same recording/expansion caches (lockstep sits
  on top of batch), so cold one-time costs are identical on both sides
  and only add symmetric noise; BENCH_6 went cold because its two tiers
  pay *different* one-time costs.
* The lockstep-only one-time cost - rendering + compiling the column
  engine (~70 ms per signature) - amortizes across reps of a Monte-
  Carlo campaign or a multi-kernel sweep exactly like the recording
  cache does, and is reported separately as the cold numbers below.

Each tier gets one warm-up pass whose RunResults are asserted
**bit-identical** point-by-point (the lockstep correctness contract,
checked before anything is timed), then ``REPS`` timed warm passes
interleaved per tier, taking the best (the 1-core CI container shows
double-digit single-shot noise). A final cold pass per tier - stream
caches and generated engines dropped - is timed once and reported so
the one-time costs stay visible.

The remaining gap to the paper-target 2x is dominated by work both
tiers run through the *same* code: slow-path stores (WL-Cache's
store_masked + DirtyQueue machinery), writebacks, and the outage
lifecycle. The engine eliminates the per-instance walk (event decode,
position bookkeeping, probe dispatch, chunk epilogues); what survives
is shared simulator substrate, so the gate below is a regression
floor, not the target. EXPERIMENTS.md records the measured trajectory.

Environment: ``REPRO_BENCH_SCALE`` scales the workloads,
``REPRO_BENCH_APPS`` selects kernels (default: the representative
sensitivity suite), ``REPRO_LOCKSTEP_GATE`` (default off) makes the
script exit non-zero when the gmean sweep speedup is below the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_lockstep_sweep.py
"""

import json
import math
import os
import sys
import time

from bench_common import SENSITIVITY_APPS, bench_apps
from repro.batch.engine import clear_streams, iter_outcomes
from repro.jit.cache import clear_code_cache
from repro.lockstep.codegen import clear_engines
from repro.lockstep.scheduler import clear_lockstep_stats, lockstep_stats
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.parallel import SweepTask, run_task
from repro.sim.sweep import bench_scale
from repro.workloads import build_workload

REPS = 5
#: regression floors for the gate; the 2x target and the measured
#: trajectory toward it are documented in EXPERIMENTS.md. The floor is
#: scale-aware in the opposite direction from BENCH_6's: recording
#: amortization flatters the batch tier at smoke scale, while the
#: lockstep win is *per replayed event*, so fixed per-sweep costs
#: (task dispatch, stream lookup, chunk scheduling) dilute it there
#: (measured: x1.44 gmean at scale 0.1 vs x1.84 at 1.0).
GATE_FULL = 1.5
GATE_SMOKE = 1.2
SMOKE_BELOW = 0.5
TARGET = 2.0
CONDITIONS = (None, "trace1", "trace2")
#: WL-Cache sensitivity axes (the Fig. 8/9/10 sweep shapes)
SENS_TRACES = ("trace1", "trace2")
SENS_CAPS_F = (5e-7, 1e-6, 2e-6, 1e-5)
SENS_MAXLINES = (4, 6, 8)
SENS_DQ = (8, 12)

TIERS = (
    ("batch", SimConfig(memfast=True, batch=True)),
    ("lockstep", SimConfig(memfast=True, batch=True, lockstep=True)),
)


def grid_tasks(app: str, scale: float, cfg: SimConfig) -> list[SweepTask]:
    """The kernel's full figure grid as one task list (one cluster)."""
    tasks = [SweepTask(app, design, trace, scale, False, cfg)
             for trace in CONDITIONS for design in DESIGNS]
    for trace in SENS_TRACES:
        for cap in SENS_CAPS_F:
            for ml in SENS_MAXLINES:
                for dq in SENS_DQ:
                    tasks.append(SweepTask(
                        app, "WL-Cache", trace, scale, False, cfg,
                        {"capacitance_f": cap, "maxline": ml,
                         "waterline": ml - 1, "dq_capacity": dq}))
    return tasks


def _sweep(tasks: list[SweepTask]) -> list:
    out = []
    for task, outcome in iter_outcomes(list(tasks), run_task):
        if outcome[0] != "ok":
            raise outcome[1]
        out.append(outcome[1])
    return out


def _clear_tier_caches(app: str, scale: float) -> None:
    clear_code_cache()
    clear_streams()
    clear_engines()
    build_workload(app, scale).meta.pop("_jit_compiled", None)


def time_tiers(app: str, scale: float) -> dict:
    """Best warm-sweep wall time per tier, after the bit-identity check,
    plus one cold pass per tier."""
    grids = {name: grid_tasks(app, scale, cfg) for name, cfg in TIERS}
    warm = {name: _sweep(tasks) for name, tasks in grids.items()}
    for a, b in zip(warm["batch"], warm["lockstep"]):
        assert a == b, (f"{app}: lockstep diverged from batch on "
                        f"{a.design}/{a.trace}")
    best = {name: math.inf for name, _ in TIERS}
    for _ in range(REPS):
        for name, _cfg in TIERS:
            t0 = time.perf_counter()
            _sweep(grids[name])
            best[name] = min(best[name], time.perf_counter() - t0)
    cold = {}
    for name, _cfg in TIERS:
        _clear_tier_caches(app, scale)
        t0 = time.perf_counter()
        _sweep(grids[name])
        cold[name] = time.perf_counter() - t0
    return {"warm": best, "cold": cold,
            "points": len(grids["batch"])}


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.normpath(os.path.join(out_dir, "BENCH_9.json"))
    scale = bench_scale()

    clear_lockstep_stats()
    kernels = {}
    ratios = []
    for app in bench_apps(default=SENSITIVITY_APPS):
        t = time_tiers(app, scale)
        ratio = t["warm"]["batch"] / t["warm"]["lockstep"]
        ratios.append(ratio)
        kernels[app] = {
            "batch_s": round(t["warm"]["batch"], 6),
            "lockstep_s": round(t["warm"]["lockstep"], 6),
            "speedup": round(ratio, 3),
            "cold_batch_s": round(t["cold"]["batch"], 6),
            "cold_lockstep_s": round(t["cold"]["lockstep"], 6),
            "grid_points": t["points"],
        }
        cold_ratio = t["cold"]["batch"] / t["cold"]["lockstep"]
        print(f"{app:14s} batch {t['warm']['batch'] * 1e3:8.1f} ms -> "
              f"lockstep {t['warm']['lockstep'] * 1e3:8.1f} ms  "
              f"x{ratio:.2f}  (cold x{cold_ratio:.2f})")
    stats = lockstep_stats()
    assert stats["columns"] > 0 and stats["instances"] > 0, \
        "lockstep never engaged - the benchmark measured nothing"

    g = math.exp(sum(map(math.log, ratios)) / len(ratios))
    gate = GATE_FULL if scale >= SMOKE_BELOW else GATE_SMOKE
    report = {
        "bench": "lockstep_sweep",
        "suite": ("designs x {no-failure, trace1, trace2} + WL-Cache "
                  "sensitivity (capacitor x maxline x dq, both traces) "
                  "per kernel"),
        "designs": list(DESIGNS),
        "conditions": [c or "none" for c in CONDITIONS],
        "sensitivity": {
            "traces": list(SENS_TRACES),
            "capacitors_f": list(SENS_CAPS_F),
            "maxlines": list(SENS_MAXLINES),
            "dq_capacities": list(SENS_DQ),
        },
        "scale": scale,
        "reps": REPS,
        "methodology": "warm caches, min of reps; cold pass reported "
                       "per kernel (see module docstring)",
        "gate": gate,
        "gate_env": "REPRO_LOCKSTEP_GATE",
        "target": TARGET,
        "gmean_sweep_speedup": round(g, 3),
        "lockstep_stats": stats,
        "kernels": kernels,
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"gmean sweep speedup x{g:.2f} over batch replay "
          f"({len(kernels)} kernels); wrote {out_json}")

    if os.environ.get("REPRO_LOCKSTEP_GATE", "").strip() not in ("", "0"):
        if g < gate:
            print(f"FAIL: gmean sweep speedup x{g:.2f} below the "
                  f"x{gate:.2f} gate (scale {scale})")
            return 1
        print(f"gate passed: x{g:.2f} >= x{gate:.2f} at scale {scale} "
              f"(target x{TARGET:.1f}, see EXPERIMENTS.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

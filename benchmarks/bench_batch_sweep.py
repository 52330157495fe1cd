"""Batched sweep benchmark: record-once/replay-many vs the serial path.

Runs, per kernel, the *full sweep grid* the paper's figures are built
from - every cache design crossed with the no-failure condition and two
power-failure traces - in two tiers: the default serial path (the plain
interpreter, one full execution per grid point) and the batch tier
(``SimConfig(batch=True)``: record the kernel's architectural stream
once per cost family, replay it per grid point). Results land in
``results/BENCH_6.json``.

Methodology: one warm-up pass per tier first whose RunResults are
asserted *bit-identical* grid-point-by-grid-point (the batch tier's
correctness contract, checked here before anything is timed); then
``REPS`` timed reps with the tiers interleaved, taking the best per
tier. Each rep measures the **cold sweep**: both tiers' process-global
caches (compiled record modules, recorded streams/skeletons, the serial
path's shared live results) are dropped before every timed pass, so the
measured quantity is what a user pays for ``run_grid`` in a fresh
process - compilation and recording included, exactly the costs the
batch tier trades against plain interpretation. Timing
runs serially (``jobs=1``); the pool composes with batching but would
fold scheduling noise into a throughput comparison.

The headline is wall-clock for the whole grid, not per-run latency:
batching wins precisely because grid points share the recording, so the
fair unit is the sweep.

Environment: ``REPRO_BENCH_SCALE`` scales the workloads,
``REPRO_BENCH_APPS`` selects kernels (default: the representative
8-kernel sensitivity suite, keeping CI under a few minutes),
``REPRO_BATCH_GATE`` (default off) makes the script exit non-zero when
the gmean sweep speedup is below 2x.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_sweep.py
"""

import json
import math
import os
import sys
import time

from bench_common import SENSITIVITY_APPS, bench_apps
from repro.batch.engine import clear_streams
from repro.jit.cache import clear_code_cache
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.parallel import clear_shared_results
from repro.sim.sweep import bench_scale, run_grid
from repro.workloads import build_workload

REPS = 3
GATE = 2.0
CONDITIONS = (None, "trace1", "trace2")

TIERS = (
    ("serial", SimConfig()),
    ("batch", SimConfig(batch=True)),
)


def _clear_tier_caches(app: str, scale: float) -> None:
    """Drop every process-global artifact either tier could reuse, so a
    timed pass pays its tier's real one-time costs (serial: every point
    simulated, none served from an earlier live result; batch: record
    module compile, recording and stream expansion)."""
    clear_code_cache()
    clear_streams()
    clear_shared_results()
    # the per-program compile memo lives on the (cached) Program object
    build_workload(app, scale).meta.pop("_jit_compiled", None)


def _sweep(app: str, scale: float, cfg: SimConfig) -> dict:
    out = {}
    for trace in CONDITIONS:
        out.update(run_grid([app], DESIGNS, trace, cfg, scale=scale,
                            jobs=1))
    return out


def time_tiers(app: str, scale: float) -> dict[str, float]:
    """Best cold-sweep wall time per tier, after the bit-identity check."""
    warm = {}
    for name, cfg in TIERS:
        _clear_tier_caches(app, scale)
        warm[name] = _sweep(app, scale, cfg)
    bad = [k for k in warm["serial"]
           if warm["serial"][k] != warm["batch"][k]]
    assert not bad, f"{app}: batch diverged from the serial path on {bad}"
    best = {name: math.inf for name, _ in TIERS}
    for _ in range(REPS):
        for name, cfg in TIERS:
            _clear_tier_caches(app, scale)
            t0 = time.perf_counter()
            _sweep(app, scale, cfg)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.normpath(os.path.join(out_dir, "BENCH_6.json"))
    scale = bench_scale()

    kernels = {}
    ratios = []
    for app in bench_apps(default=SENSITIVITY_APPS):
        best = time_tiers(app, scale)
        ratio = best["serial"] / best["batch"]
        ratios.append(ratio)
        kernels[app] = {
            "serial_s": round(best["serial"], 6),
            "batch_s": round(best["batch"], 6),
            "speedup": round(ratio, 3),
        }
        print(f"{app:14s} serial {best['serial'] * 1e3:8.1f} ms -> "
              f"batch {best['batch'] * 1e3:8.1f} ms  x{ratio:.2f}")

    g = math.exp(sum(map(math.log, ratios)) / len(ratios))
    report = {
        "bench": "batch_sweep",
        "suite": "designs x {no-failure, trace1, trace2} per kernel",
        "designs": list(DESIGNS),
        "conditions": [c or "none" for c in CONDITIONS],
        "scale": scale,
        "reps": REPS,
        "grid_points_per_kernel": len(DESIGNS) * len(CONDITIONS),
        "gmean_sweep_speedup": round(g, 3),
        "kernels": kernels,
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"gmean sweep speedup x{g:.2f} over the serial path "
          f"({len(kernels)} kernels); wrote {out_json}")

    if os.environ.get("REPRO_BATCH_GATE", "").strip() not in ("", "0"):
        if g < GATE:
            print(f"FAIL: gmean sweep speedup x{g:.2f} below the "
                  f"x{GATE:.1f} gate")
            return 1
        print(f"gate passed: x{g:.2f} >= x{GATE:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

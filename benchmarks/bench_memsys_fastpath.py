"""Memory-hierarchy fast-path benchmark: memfast vs the interpreter.

Runs the fig04 (no-power-failure) suite single-threaded on WL-Cache in
two modes per kernel - the plain interpreter and the interpreter with
the memfast hit-path tier - and reports the speedup the fast path buys.
Results land in ``results/BENCH_5.json``.

Methodology: one full warm-up run per mode first (so handler codegen,
the workload build, and the decode cache are all excluded from timing)
whose RunResults are also asserted *bit-identical* across the modes;
then ``REPS`` timed runs with the modes *interleaved* (interp/fast,
repeated) taking the best of each. Timing covers
``System.run()`` only - system construction is hoisted out so the
measured quantity is guest execution throughput, not setup.

"Store-heavy" kernels are the suite's top dynamic store densities
(stores per retired instruction >= 0.09: qsort and both rijndael
directions); the paper's write-light argument is about exactly these,
so they get their own gate.

Environment: ``REPRO_BENCH_SCALE`` scales the workloads,
``REPRO_BENCH_APPS`` selects a subset, ``REPRO_MEMFAST_GATE`` (default
off) makes the script exit non-zero when the gmean speedup is below
1.3x or the store-heavy gmean is below 1.4x.

Usage::

    PYTHONPATH=src python benchmarks/bench_memsys_fastpath.py
"""

import json
import math
import os
import sys
import time

from bench_common import bench_apps
from repro.sim.config import SimConfig
from repro.sim.factory import build_system
from repro.sim.sweep import bench_scale
from repro.workloads import build_workload

DESIGN = "WL-Cache"
REPS = 5
GATE = 1.3
GATE_STORE_HEAVY = 1.4
#: dynamic store density >= 0.09 stores/instruction on the fig04 suite
STORE_HEAVY = ("qsort", "rijndael_d", "rijndael_e")

MODES = (
    ("interp", SimConfig()),
    ("fast", SimConfig(memfast=True)),
)


def time_modes(prog) -> tuple[dict[str, float], int]:
    """Best ``System.run()`` wall time per mode, plus retired instructions.

    The warm-up results double as the bench's own bit-identity check:
    both modes must produce equal RunResults before anything is timed.
    """
    warm = {}
    for name, cfg in MODES:
        warm[name] = build_system(prog, DESIGN, None, cfg).run()
    assert warm["fast"] == warm["interp"], \
        f"{prog.name}: memfast RunResult diverged from the interpreter"
    best = {name: math.inf for name, _ in MODES}
    for _ in range(REPS):
        for name, cfg in MODES:
            system = build_system(prog, DESIGN, None, cfg)
            t0 = time.perf_counter()
            system.run()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best, warm["interp"].instructions


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.normpath(os.path.join(out_dir, "BENCH_5.json"))

    kernels = {}
    ratios = []
    heavy_ratios = []
    for app in bench_apps():
        prog = build_workload(app, bench_scale())
        best, instret = time_modes(prog)
        ratio = best["interp"] / best["fast"]
        ratios.append(ratio)
        if app in STORE_HEAVY:
            heavy_ratios.append(ratio)
        kernels[app] = {
            "instret": instret,
            "interp_s": round(best["interp"], 6),
            "fast_s": round(best["fast"], 6),
            "fast_ips": round(instret / best["fast"]),
            "speedup_vs_interp": round(ratio, 3),
        }
        print(f"{app:14s} interp {best['interp'] * 1e3:7.1f} ms -> "
              f"fast {best['fast'] * 1e3:7.1f} ms  x{ratio:.2f}")

    def gmean(xs):
        return math.exp(sum(map(math.log, xs)) / len(xs))

    g = gmean(ratios)
    g_heavy = gmean(heavy_ratios) if heavy_ratios else None
    report = {
        "bench": "memsys_fastpath",
        "design": DESIGN,
        "suite": "fig04_no_failure",
        "scale": bench_scale(),
        "reps": REPS,
        "store_heavy": list(STORE_HEAVY),
        "gmean_speedup_vs_interp": round(g, 3),
        "gmean_speedup_store_heavy": (round(g_heavy, 3)
                                      if g_heavy is not None else None),
        "kernels": kernels,
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    heavy_txt = (f", store-heavy x{g_heavy:.2f}"
                 if g_heavy is not None else "")
    print(f"gmean x{g:.2f} vs the interpreter ({len(kernels)} kernels"
          f"{heavy_txt}); wrote {out_json}")

    if os.environ.get("REPRO_MEMFAST_GATE"):
        if g < GATE:
            print(f"FAIL: gmean {g:.2f} below the {GATE}x gate")
            return 1
        if g_heavy is not None and g_heavy < GATE_STORE_HEAVY:
            print(f"FAIL: store-heavy gmean {g_heavy:.2f} below the "
                  f"{GATE_STORE_HEAVY}x gate")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CI smoke sweep: a small grid run serial, parallel, under the memfast
hit-path tier, under the batch record/replay tier, AND under the
lockstep column tier - all five asserted bit-identical.

It also trips on point sharing gone wrong: a repeated serial grid on
the default policy must return the very same result objects without
simulating, while the pool and tier passes must simulate every point,
so their comparisons with the serial pass stay real.

Exercises the full stack end to end in about a minute: workload build,
every major cache design, a real power trace with outages, the crash
consistency verifier, and the bit-exactness guarantee of the process-pool
engine and of every fast tier. The CI pipeline runs this with
``REPRO_BENCH_SCALE=0.1`` and uploads the CSV as a build artifact.

Usage::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.1 python benchmarks/smoke_sweep.py
"""

import csv
import os
import sys
import time

from repro.sim.parallel import shared_result_stats
from repro.sim.policy import ExecutionPolicy, resolve
from repro.sim.sweep import run_grid

APPS = ("sha", "qsort")
DESIGNS = ("NVSRAM(ideal)", "VCache-WT", "WL-Cache")
TRACE = "trace1"


def _shared() -> int:
    return shared_result_stats()["shared"]


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_csv = os.path.normpath(os.path.join(out_dir, "smoke_sweep.csv"))

    t0 = time.perf_counter()
    serial = run_grid(APPS, DESIGNS, TRACE, jobs=1)
    t_serial = time.perf_counter() - t0

    # a default-policy repeat is served from the live results; under an
    # exported tier switch it must simulate again
    before = _shared()
    again = run_grid(APPS, DESIGNS, TRACE, jobs=1)
    default = resolve() == ExecutionPolicy()
    want = len(serial) if default else 0
    wrong = [k for k in serial if (again[k] is serial[k]) != default]
    if wrong or _shared() - before != want:
        print(f"FAIL: serial repeat shared {_shared() - before} of "
              f"{len(serial)} points (want {want}); wrong identity on "
              f"{wrong}")
        return 1
    shared_before_tiers = _shared()

    t0 = time.perf_counter()
    parallel = run_grid(APPS, DESIGNS, TRACE, jobs=max(2, os.cpu_count() or 2))
    t_parallel = time.perf_counter() - t0

    if serial != parallel:
        bad = [k for k in serial if serial[k] != parallel[k]]
        print(f"FAIL: parallel sweep diverged from serial on {bad}")
        return 1

    t0 = time.perf_counter()
    fast = run_grid(APPS, DESIGNS, TRACE, jobs=1, memfast=True)
    t_fast = time.perf_counter() - t0
    if serial != fast:
        bad = [k for k in serial if serial[k] != fast[k]]
        print(f"FAIL: memfast sweep diverged from the interpreter on {bad}")
        return 1

    t0 = time.perf_counter()
    batched = run_grid(APPS, DESIGNS, TRACE, jobs=1, memfast=True,
                       batch=True)
    t_batch = time.perf_counter() - t0
    if serial != batched:
        bad = [k for k in serial if serial[k] != batched[k]]
        print(f"FAIL: batched sweep diverged from the interpreter on {bad}")
        return 1

    t0 = time.perf_counter()
    lockstep = run_grid(APPS, DESIGNS, TRACE, jobs=1, memfast=True,
                        batch=True, lockstep=True)
    t_lockstep = time.perf_counter() - t0
    if serial != lockstep:
        bad = [k for k in serial if serial[k] != lockstep[k]]
        print(f"FAIL: lockstep sweep diverged from the interpreter on {bad}")
        return 1
    passes = (parallel, fast, batched, lockstep)
    reused = [k for res in passes for k in serial if res[k] is serial[k]]
    if reused or _shared() != shared_before_tiers:
        print(f"FAIL: pool/tier passes reused serial results on {reused}")
        return 1
    from repro.lockstep.scheduler import lockstep_stats
    if lockstep_stats()["columns"] == 0:
        print("FAIL: lockstep tier never engaged in the smoke sweep")
        return 1
    print(f"serial {t_serial:.2f}s / parallel {t_parallel:.2f}s / "
          f"memfast {t_fast:.2f}s / batch {t_batch:.2f}s / "
          f"lockstep {t_lockstep:.2f}s - "
          f"{len(serial)} runs bit-identical")

    with open(out_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["app", "design", "trace", "time_us", "outages",
                    "nvm_writes", "energy_uj"])
        for (app, design), res in serial.items():
            w.writerow([app, design, TRACE,
                        f"{res.total_time_ns / 1e3:.2f}", res.outages,
                        res.nvm_writes,
                        f"{res.energy.total_nj / 1e3:.2f}"])
    print(f"wrote {out_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

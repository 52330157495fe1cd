"""CI warm-cache check: a second process against a primed store does
zero codegen and simulates nothing it has a memo for.

Runs the same work twice, in two child interpreters sharing one store
root:

* a memfast sweep with result memoization on (exercises the
  ``src`` and ``result`` artifact classes), and
* a batch+lockstep sweep (exercises ``stream`` recordings, ``skel``
  skeletons, and lockstep engine sources).

The second child must report **zero** record-module compiles, zero
memfast handler renders, zero lockstep engine renders, zero recordings,
zero skeleton builds, an all-hit result memo, a clean A009 audit over its
store-served sources, and results identical to the first child's. Any
violation exits non-zero with the offending counters - this is the CI
tripwire for "the store silently stopped working" (which the perf gate
alone could miss at smoke scale).

Usage::

    PYTHONPATH=src python benchmarks/warm_cache_check.py
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

APPS = ("sha",)
MEMO_DESIGNS = ("NVSRAM(ideal)", "WL-Cache")
REPLAY_DESIGNS = ("WL-Cache", "NVSRAM(ideal)", "VCache-WT")
TRACE = "trace1"
SCALE = 0.2


def child(out_path: str) -> int:
    from repro.analysis.stats_io import result_to_dict
    from repro.batch.engine import batch_stats
    from repro.batch.stream import stream_meta_stats
    from repro.jit.cache import code_cache_stats
    from repro.lint.codegen_audit import audit_store_loads
    from repro.lockstep.codegen import engine_cache_stats
    from repro.memfast.handlers import codegen_cache_stats
    from repro.sim.config import SimConfig
    from repro.sim.sweep import run_grid
    from repro.store import store_stats

    def dump(grid):
        return {f"{w}|{d}": {"stats": result_to_dict(r,
                                                     include_periods=True),
                             "final_regs": list(r.final_regs)}
                for (w, d), r in grid.items()}

    memo_cfg = SimConfig(memfast=True, result_cache=True)
    memo = run_grid(APPS, MEMO_DESIGNS, TRACE, scale=SCALE, jobs=1,
                    config=memo_cfg)
    replay_cfg = SimConfig(memfast=True, batch=True, lockstep=True)
    replay = run_grid(APPS, REPLAY_DESIGNS, TRACE, scale=SCALE, jobs=1,
                      config=replay_cfg)
    report = {
        "memo_grid": dump(memo),
        "replay_grid": dump(replay),
        "jit": code_cache_stats(),
        "memfast": codegen_cache_stats(),
        "lockstep": engine_cache_stats(),
        "batch": batch_stats(),
        "stream_meta": stream_meta_stats(),
        "store_events": store_stats(),
        "a009_findings": [f.render() for f in audit_store_loads()],
    }
    with open(out_path, "w") as f:
        json.dump(report, f)
    return 0


def run_child(store_dir: str, tag: str) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out_path = tf.name
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = store_dir
    env.pop("REPRO_STREAM_CACHE", None)
    src = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                        os.pardir, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             out_path], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tag} run failed:\n{proc.stderr}")
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", metavar="OUT", default=None)
    args = parser.parse_args()
    if args.child:
        return child(args.child)

    store_dir = tempfile.mkdtemp(prefix="repro-warmcheck-")
    try:
        first = run_child(store_dir, "cold")
        second = run_child(store_dir, "warm")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    failures = []

    def expect_zero(label, n):
        if n != 0:
            failures.append(f"{label} = {n} (want 0)")

    expect_zero("warm jit compiles", second["jit"]["compiles"])
    expect_zero("warm jit suffix compiles",
                second["jit"]["suffix_compiles"])
    expect_zero("warm memfast renders", second["memfast"]["renders"])
    expect_zero("warm lockstep renders", second["lockstep"]["renders"])
    expect_zero("warm recordings", second["batch"]["recordings"])
    expect_zero("warm skeleton builds",
                second["stream_meta"]["skeleton_builds"])

    hits = second["store_events"].get("result_hits", 0)
    want = len(second["memo_grid"])
    if hits != want:
        failures.append(f"warm result_hits = {hits} (want {want})")
    if second["batch"].get("disk_hits", 0) < 1:
        failures.append("warm run never hit the recording cache")
    if second["stream_meta"]["skeleton_loads"] < 1:
        failures.append("warm run never loaded a skeleton")
    if second["a009_findings"]:
        failures.append("A009 findings on warm loads: "
                        + "; ".join(second["a009_findings"]))
    for grid in ("memo_grid", "replay_grid"):
        if first[grid] != second[grid]:
            failures.append(f"{grid}: warm results differ from cold")

    cold_work = (first["jit"]["compiles"], first["memfast"]["renders"],
                 first["lockstep"]["renders"], first["batch"]["recordings"])
    if not all(n > 0 for n in cold_work):
        failures.append(f"cold run did no work to cache "
                        f"(compiles/renders/engine renders/recordings = "
                        f"{cold_work}) - the check measured nothing")

    if failures:
        print("warm-cache check FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"warm-cache check passed: second process loaded everything "
          f"({second['jit']['loads']} jit loads, "
          f"{second['memfast']['loads']} memfast loads, "
          f"{second['lockstep']['loads']} engine loads, "
          f"{second['stream_meta']['skeleton_loads']} skeleton loads, "
          f"{hits} result hits; results bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

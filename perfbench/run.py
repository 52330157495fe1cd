"""Cold figure-regeneration benchmark for the WL-Cache reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run from the repository root. Each pass runs one workload (see
``spec.py``) cold: a fresh interpreter per pass (per invocation for
``oneshot_cli``), every ``REPRO_*`` variable cleared, serial with no pool,
and an empty store root of its own. Passes repeat until ``--seconds`` have
been measured; the end-to-end metrics are medians over the passes. Times
are the children's CPU time (user + system), which for these serial
single-threaded children is wall time minus hypervisor steal; the true
wall time of every pass is printed too (README.md says why).

With ``--trace 1`` the run makes one untraced pass and one traced pass,
which installs the layer spans of ``tracer.py``, and reports the
per-layer metrics instead.

Every pass checks its results: each point passes the kernel's embedded
output checks (sweeps run with ``verify=True``; ``repro run`` keeps its
crash-consistency oracle), each point's ``RunResult`` digest matches the
other passes of the run, and, where ``golden.json`` pins it (every point
for the default seed, failure-free points for any seed), the pinned
digest. ``--write-golden`` re-pins every workload from one default-seed
pass. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
from digest import stats_digest
from report import layer_metrics, print_layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: Passes made however short ``--seconds`` is.
MIN_PASSES = 3
#: A run ends before this many seconds, whatever its passes take.
RUN_LIMIT_S = 170.0

CRASH_CONSISTENT = "crash consistency: verified against the failure-free oracle"


class Run:
    """One benchmark run: its temporary directory, child environment and checks."""

    def __init__(self, workload: str, seed: int, golden: dict[str, str] | None):
        self.workload = workload
        self.seed = seed
        self.calls = spec.workload_calls(workload)
        #: pinned digests by point label; None while re-pinning
        self.golden = golden
        self.start = time.monotonic()
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.stripped = sorted(k for k in os.environ if k.startswith(("REPRO_", "PYTHON")))
        self.env = {k: v for k, v in os.environ.items() if k not in self.stripped}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.children = 0
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: every set-up time measured in the run (s)
        self.setups: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def _child(self, mode: str, args: list[str], traced: bool):
        """Run one child to completion.

        Returns ``(output, wall s, resource usage, stdout)``; ``output`` is
        None when the child failed.
        """
        self.children += 1
        tag = f"c{self.children}"
        store = self.tmp / f"store-{tag}"
        store.mkdir()
        out_path = self.tmp / f"{tag}.json"
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--out", str(out_path)]
        cmd += ["--seed", str(self.seed)] + ["--traced"] * traced
        limit = max(1.0, RUN_LIMIT_S - self.elapsed())
        with open(self.tmp / f"{tag}.stdout", "w+") as stdout:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd + ["--t0", repr(t0), *args],
                cwd=ROOT,
                env=env,
                stdout=stdout,
                stderr=subprocess.PIPE,
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                stderr = proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child, then re-raise
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stderr.close()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout.seek(0)
            text = stdout.read()
        shutil.rmtree(store)
        if proc.returncode != 0 or not out_path.exists():
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.notes.append(f"child {mode} {' '.join(args)} exited {proc.returncode}: {tail}")
            return None, wall, usage, text
        return json.loads(out_path.read_text()), wall, usage, text

    def _check_points(self, points: list[list[str]]) -> int:
        """Check digests against the pinned ones and the first pass; returns mismatches."""
        bad = 0
        for label, digest in points:
            pinned = self.seed == spec.DEFAULT_SEED or "|no-failure|" in label
            if self.golden is not None and pinned and self.golden.get(label) != digest:
                self.notes.append(f"digest {digest} != pinned {self.golden.get(label)} at {label}")
                bad += 1
            elif self.first_digests is not None and self.first_digests.get(label) != digest:
                self.notes.append(f"digest {digest} differs from the first pass at {label}")
                bad += 1
        if self.first_digests is None:
            self.first_digests = dict(points)
        return bad

    def sweep_pass(self, traced: bool) -> dict | None:
        total = sum(len(c.points()) for c in self.calls)
        self.attempted += total
        out, _, usage, _ = self._child("sweep", ["--workload", self.workload], traced)
        if out is None:
            self.failed += total
            return None
        for label, err in out["failures"]:
            self.notes.append(f"{err} at {label}")
        bad = len(out["failures"]) + self._check_points(out["points"])
        self.failed += bad
        if bad:
            return None
        out["peak_rss_mb"] = usage.ru_maxrss / 1024
        out["run_s"] = out["build_s"] + out["elapsed_s"]
        self.setups.append(out["setup_s"])
        return out

    def probe_setup(self) -> None:
        """Time one more set-up alone in a fresh child (sweep workloads), for
        the ``setup_s`` median."""
        if self.workload == "oneshot_cli":
            return
        args = ["--workload", self.workload, "--setup-only"]
        out, _, _, _ = self._child("sweep", args, traced=False)
        if out is not None:
            self.setups.append(out["setup_s"])

    def cli_pass(self, traced: bool) -> dict | None:
        setups, imports, cpus, walls, runs, rss = [], [], [], [], [], []
        points, invocations = [], []
        instructions = 0
        for i, call in enumerate(self.calls):
            self.attempted += 1
            label = spec.point_label(i, call, call.apps[0], call.designs[0])
            stats_path = self.tmp / f"stats-{i}.json"
            argv = spec.cli_argv(call, self.seed) + ["--stats-json", str(stats_path)]
            out, wall, usage, text = self._child("cli", ["--", *argv], traced)
            if out is None or out["exit_code"] != 0 or CRASH_CONSISTENT not in text:
                self.notes.append(f"repro {' '.join(argv)} failed at {label}")
                self.failed += 1
                continue
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
            instructions += stats["instructions"]
            points.append([label, stats_digest(stats)])
            setups.append(out["setup_s"])
            imports.append(out["import_s"])
            cpus.append(usage.ru_utime + usage.ru_stime)
            walls.append(wall)
            runs.append(out["run_s"])
            rss.append(usage.ru_maxrss / 1024)
            invocations.append(out)
        bad = self._check_points(points)
        self.failed += bad
        if bad or len(points) != len(self.calls):
            return None
        self.setups.extend(setups)
        return {
            "import_s": statistics.median(imports),
            "cpu_s": sum(cpus),
            "elapsed_s": sum(walls),
            "run_s": sum(runs),
            "instructions": instructions,
            "peak_rss_mb": max(rss),
            "points_issued": len(self.calls),
            "points_unique": len(set(self.calls)),
            "invocations": invocations,
        }

    def one_pass(self, traced: bool = False) -> dict | None:
        if self.workload == "oneshot_cli":
            return self.cli_pass(traced)
        return self.sweep_pass(traced)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Medians over the passes (and set-ups) of a run."""

    def median(values) -> float:
        return statistics.median(list(values))

    return {
        "wall_s": {"value": median(p["cpu_s"] for p in passes), "unit": "s"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "guest_mips": {
            "value": median(p["instructions"] / p["cpu_s"] / 1e6 for p in passes),
            "unit": "Minstr/s",
        },
        "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


def _compile_sources() -> None:
    """Byte-compile the package once, so that no measured child compiles it."""
    cmd = [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(HERE)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _load_golden(workload: str) -> dict[str, str]:
    return json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.exists() else {}


def write_golden() -> int:
    """Pin every workload's digests from one default-seed pass each."""
    golden = {}
    for workload in spec.WORKLOADS:
        run = Run(workload, spec.DEFAULT_SEED, golden=None)
        try:
            ok = run.one_pass() is not None
        finally:
            run.close()
        if not ok:
            print("\n".join(run.notes), file=sys.stderr)
            return 1
        golden[workload] = run.first_digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run stops its child and removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _compile_sources()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")

    run = Run(args.workload, args.seed, _load_golden(args.workload))
    try:
        passes = []
        if args.trace:
            untraced = run.one_pass()
            traced = run.one_pass(traced=True) if untraced is not None else None
            passes = [p for p in (untraced, traced) if p is not None]
            metrics = layer_metrics(untraced, traced) if traced is not None else {}
        else:
            while len(passes) < MIN_PASSES or run.elapsed() < args.seconds:
                result = run.one_pass()
                if result is None:
                    break
                passes.append(result)
                run.probe_setup()
            metrics = end_to_end(passes, run.setups) if passes else {}
    finally:
        run.close()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_cpu_s": [round(p["cpu_s"], 4) for p in passes],
        "pass_elapsed_s": [round(p["elapsed_s"], 4) for p in passes],
        "setup_samples": len(run.setups),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "stripped_env": run.stripped,
        "child_env": {
            "PYTHONPATH": "src",
            "PYTHONDONTWRITEBYTECODE": "1",
            "REPRO_CACHE_DIR": "a fresh empty directory per child",
        },
    }
    print("# run: " + json.dumps(record))
    for note in run.notes:
        print(f"# FAILED {note}")
    if args.trace and metrics:
        print_layer_table(args.workload, metrics)
    attempted = max(run.attempted, 1)
    result = {
        "correct": bool(metrics) and run.failed == 0 and not run.notes,
        "attempted": attempted,
        "failed": min(run.failed, attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

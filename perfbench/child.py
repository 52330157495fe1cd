"""One cold pass of a workload, in a fresh interpreter started by ``run.py``.

Sweep workloads::

    python perfbench/child.py sweep --workload NAME --seed N --t0 T --out FILE [--traced]

runs every call of the workload in order through ``run_grid`` (serial,
``verify=True``) and writes timings, per-point digests and, when traced,
the layer spans to ``FILE`` as JSON. With ``--setup-only`` it stops once
the workload is ready (``repro`` imported and the programs built). CLI
workloads::

    python perfbench/child.py cli --t0 T --out FILE [--traced] -- <repro arguments>

is one ``repro`` invocation: it imports ``repro.cli`` and calls its
``main``. ``T`` is the parent's ``time.monotonic()`` just before it
started this process, so ``import_s`` runs from interpreter launch.
``setup_s`` and ``cpu_s`` are CPU times (``time.process_time()``: user +
system since the process started); ``import_s``, ``build_s``,
``elapsed_s`` and ``run_s`` are wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time


def _ready_s(t0: float) -> float:
    return time.monotonic() - t0


def _cache_counters() -> dict:
    """Tier counters of this process (all 0 on the default policy)."""
    from repro.store.report import cache_report

    report = cache_report(include_disk=False)
    caches = report["process_caches"]
    events = report["events"]
    return {
        "batch.recordings": caches["batch"]["recordings"],
        "batch.replays": caches["batch"]["replays"],
        "lockstep.builds": caches["lockstep"]["builds"],
        "store.hits": sum(v for k, v in events.items() if k.endswith("_hits")),
    }


def _run_chunk_wrapped() -> bool:
    from repro.cpu.core import InOrderCore

    return hasattr(InOrderCore.run_chunk, "__wrapped__")


def run_sweep(args) -> dict:
    import repro.sim.sweep as sweep
    from repro.workloads import build_workload

    import spec
    from digest import result_digest

    import_s = _ready_s(args.t0)
    tracer = uninstall = None
    if args.traced:
        from tracer import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
    calls = spec.workload_calls(args.workload)
    # serial, verified, at the benchmark's scale; plus each call's overrides
    run_kw = dict(scale=spec.SCALE, verify=True, jobs=1)
    kwargs = [dict(run_kw, **spec.sim_overrides(call, args.seed)) for call in calls]
    wrapped = _run_chunk_wrapped()
    with tracer.span("root") if tracer else contextlib.nullcontext():
        t_start = time.perf_counter()
        for app in dict.fromkeys(a for call in calls for a in call.apps):
            build_workload(app, spec.SCALE)
        build_s = time.perf_counter() - t_start
        setup_s = time.process_time()
        if args.setup_only:
            return {"import_s": import_s, "setup_s": setup_s}

        # the measured region: every call, in order, each waiting for the last
        t_calls, c_calls = time.perf_counter(), time.process_time()
        outcomes = []
        for call, over in zip(calls, kwargs):
            try:
                res = sweep.run_grid(call.apps, call.designs, call.trace, **over)
                outcomes.append((res, None))
            except Exception as exc:  # counted as failed points, reported below
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        elapsed_s, cpu_s = time.perf_counter() - t_calls, time.process_time() - c_calls
    if uninstall is not None:
        uninstall()

    points, failures, instructions = [], [], 0
    for i, ((res, err), call) in enumerate(zip(outcomes, calls)):
        for app, design in call.points():
            label = spec.point_label(i, call, app, design)
            if err is not None:
                failures.append([label, err])
                continue
            result = res[(app, design)]
            instructions += result.instructions
            points.append([label, result_digest(result)])
    out = {
        "import_s": import_s,
        "setup_s": setup_s,
        "build_s": build_s,
        "cpu_s": cpu_s,
        "elapsed_s": elapsed_s,
        "instructions": instructions,
        "points": points,
        "failures": failures,
        "points_issued": sum(len(call.points()) for call in calls),
        "points_unique": spec.unique_points(calls, args.seed),
        "run_chunk_wrapped": wrapped,
    }
    if tracer is not None:
        out["spans"] = tracer.snapshot()
        out["counters"] = _cache_counters()
    return out


def run_cli(args) -> dict:
    import repro.cli

    ready_s = _ready_s(args.t0)
    setup_s = time.process_time()
    tracer = uninstall = None
    if args.traced:
        from tracer import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
    wrapped = _run_chunk_wrapped()
    t_main = time.perf_counter()
    with tracer.span("root") if tracer else contextlib.nullcontext():
        code = repro.cli.main(args.argv)
    if uninstall is not None:
        uninstall()
    out = {
        "import_s": ready_s,
        "setup_s": setup_s,
        "run_s": time.perf_counter() - t_main,
        "exit_code": code,
        "run_chunk_wrapped": wrapped,
    }
    if tracer is not None:
        out["spans"] = tracer.snapshot()
        out["counters"] = _cache_counters()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sweep", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop once the workload is ready")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.argv = argv[cut + 1 :]
    out = run_sweep(args) if args.mode == "sweep" else run_cli(args)
    with open(args.out, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

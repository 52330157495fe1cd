"""Process-pool execution of simulation sweeps.

A sweep grid (workload x design x trace) is embarrassingly parallel: every
run builds its own System, NVM image, and power trace, and traces are
re-seeded deterministically per run (``make_trace(name, seed)``), so a
parallel sweep is *bit-identical* to the serial one - the tests enforce
RunResult equality. Workers receive only ``(workload name, scale)`` and
rebuild the program image locally, which keeps task pickles small and the
per-process workload cache warm across the tasks of a chunk.

Worker counts resolve as: explicit ``jobs`` argument, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``. ``jobs=1``
runs serially in-process (no pool, easy tracebacks).

A worker never lets an exception escape as a bare pool error: failures are
shipped back as records and re-raised here as :class:`~repro.errors.
SweepError` naming every failing ``(workload, design, trace)`` tuple. A
hard worker crash (segfault, OOM-kill) breaks the pool; the in-flight
chunks' tasks are reported the same way instead of hanging the sweep.

On the serial path under the default :class:`~repro.sim.policy.
ExecutionPolicy` (no tier, no observer, no result memo), an identical
point is simulated at most once while its result is alive: a repeat of
``(workload, scale, design, trace, config)`` gets the earlier
:class:`RunResult` object back (see :func:`shared_result_stats`).
"""

from __future__ import annotations

import os
import sys
import traceback
import weakref
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigError, SweepError
from repro.sim.config import SimConfig
from repro.sim.factory import run_one, validate_design
from repro.sim.policy import (BATCH_ENV, CHECK_ENV, LEGACY_STORE_ENV,
                              LOCKSTEP_ENV, MEMFAST_ENV, RESULT_MEMO_ENV,
                              STORE_ENV, TRACE_ENV, ExecutionPolicy,
                              resolve)
from repro.sim.results import RunResult, memory_image
from repro.workloads import build_workload, get_workload, verify_checks

#: ``progress(done, total, (workload, design))`` - called in the parent
#: process after each finished run, in completion (not submission) order.
ProgressFn = Callable[[int, int, tuple[str, str]], None]


def resolve_jobs(jobs: int | None = None, *,
                 fallback: int | None = None) -> int:
    """Resolve a worker count: ``jobs`` > ``REPRO_JOBS`` > fallback/cores.

    Returns at least 1. ``fallback=None`` means "all cores" (the
    :func:`run_grid_parallel` default); :func:`repro.sim.sweep.run_grid`
    passes ``fallback=1`` so plain calls stay serial unless opted in.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_JOBS must be an integer worker count, "
                    f"got {env!r}") from None
        else:
            jobs = fallback if fallback is not None else os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class SweepTask:
    """One run of the grid, as shipped to a worker process.

    The program is identified by name+scale (rebuilt in the worker), not
    embedded: workload images are hundreds of KB and deterministic.
    """

    workload: str
    design: str
    trace: str | None
    scale: float
    verify: bool
    config: SimConfig | None
    overrides: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.workload, self.design)

    @property
    def where(self) -> tuple[str, str, str | None]:
        return (self.workload, self.design, self.trace)


def task_config(task) -> SimConfig:
    """A task's effective config (base config + overrides)."""
    config = task.config or SimConfig()
    if task.overrides:
        config = config.with_(**task.overrides)
    return config


def task_policy(task, env: ExecutionPolicy | None = None
                ) -> ExecutionPolicy:
    """The task's execution policy: ``env`` (default: read now) plus the
    switches its config turns on.

    A task whose overrides do not form a valid :class:`SimConfig` gets
    no tier at all: the plain run path raises its error, attributed to
    that task.
    """
    try:
        config = task_config(task)
    except Exception:
        return ExecutionPolicy()
    return (resolve() if env is None else env).with_config(config)


def run_task(task: SweepTask,
             policy: ExecutionPolicy | None = None) -> RunResult:
    """Execute one task in this process (worker body; also the serial path).

    With result memoization on (:mod:`repro.store.results`), a persisted
    result for this exact task is returned without simulating, and a
    fresh result is persisted on the way out (after verification, so the
    entry can vouch for later ``verify=True`` lookups). ``policy`` is the
    task's resolved :func:`task_policy`, when the caller already has it.
    """
    if policy is None:
        policy = task_policy(task)
    if policy.memoizes:
        from repro.store.results import lookup_task
        memo = lookup_task(task)
        if memo is not None:
            return memo
    prog = build_workload(task.workload, task.scale)
    res = run_one(prog, task.design, task.trace, task.config,
                  **task.overrides)
    if task.verify:
        verify_checks(prog, memory_image(res))
    if policy.memoizes:
        from repro.store.results import store_task
        store_task(task, res)
    return res


#: Live results of the serial default path by point key: an entry lasts
#: only as long as some caller still holds the result.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SHARE_STATS = {"shared": 0, "simulated": 0}
_DEFAULT_POLICY = ExecutionPolicy()


def shared_result_stats() -> dict[str, int]:
    """Point sharing on the serial default path: ``live`` results held
    in the table, points ``shared`` (served an earlier live result) and
    points ``simulated`` (run because no live result matched)."""
    return {"live": len(_SHARED), **_SHARE_STATS}


def clear_shared_results() -> None:
    """Forget every shared result and zero the counters (test seam)."""
    _SHARED.clear()
    _SHARE_STATS.update(shared=0, simulated=0)


def _point_key(task: SweepTask) -> tuple | None:
    """The identity of a task's simulation; None when its config does not
    resolve (such a task is never shared). The config enters by ``repr``
    so values equal under ``==`` but not identical (``0.0``/``-0.0``,
    ``1``/``1.0``) stay distinct points."""
    try:
        config = repr(task_config(task))
    except Exception:
        return None
    return (task.workload, task.scale, task.design, task.trace, config)


def _run_shared(task: SweepTask, policy: ExecutionPolicy) -> RunResult:
    """:func:`run_task` on the serial default path, serving a repeat of a
    live point from the earlier result (errors are never cached)."""
    key = _point_key(task)
    res = None if key is None else _SHARED.get(key)
    if res is not None:
        _SHARE_STATS["shared"] += 1
        if task.verify:
            verify_checks(build_workload(task.workload, task.scale),
                          memory_image(res))
        return res
    _SHARE_STATS["simulated"] += 1
    res = run_task(task, policy)
    if key is not None:
        _SHARED[key] = res
    return res


#: The variables shipped to pool workers, in :func:`worker_initargs`
#: order.
_WORKER_ENV = (CHECK_ENV, TRACE_ENV, MEMFAST_ENV, BATCH_ENV, LOCKSTEP_ENV,
               LEGACY_STORE_ENV, STORE_ENV, RESULT_MEMO_ENV)


def _init_worker(check_env: str | None, trace_env: str | None,
                 memfast_env: str | None = None,
                 batch_env: str | None = None,
                 lockstep_env: str | None = None,
                 stream_cache_env: str | None = None,
                 store_env: str | None = None,
                 result_cache_env: str | None = None) -> None:
    """Worker initializer: re-export the instrumentation switches.

    Pools spawned with a non-fork start method begin from a fresh
    interpreter whose environment may not mirror the parent's, so the
    invariant-checking (REPRO_CHECK), tracing (REPRO_TRACE), fast-path
    (REPRO_MEMFAST), batch (REPRO_BATCH), and lockstep (REPRO_LOCKSTEP)
    switches are shipped explicitly - a checked/traced/batched parallel
    sweep must apply them in every worker, not just the parent. The
    persistent artifact store switches ride along too - the store root
    (REPRO_CACHE_DIR and its legacy alias REPRO_STREAM_CACHE) and the
    result memo (REPRO_RESULT_CACHE) - so campaign shards record each
    kernel, render each source, and simulate each point once across
    *processes*. The worker's process-global record-mode code cache and
    guest-stream cache then warm once and serve all the tasks the worker
    executes.
    """
    values = (check_env, trace_env, memfast_env, batch_env, lockstep_env,
              stream_cache_env, store_env, result_cache_env)
    for var, value in zip(_WORKER_ENV, values):
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def worker_initargs() -> tuple:
    """The environment-switch values shipped to pool-worker initializers.

    Shared by :func:`run_tasks` and the Monte-Carlo campaign engine
    (:mod:`repro.mc.engine`), which runs the same worker body over its
    own point keying.
    """
    return tuple(os.environ.get(var) for var in _WORKER_ENV)


def _tier_stats() -> tuple[dict, dict]:
    """Batch-engine and persistent-store counters; a package this
    process never loaded has none."""
    batch = sys.modules.get("repro.batch.engine")
    store = sys.modules.get("repro.store.core")
    return (batch.batch_stats() if batch else {},
            store.store_stats() if store else {})


def _run_chunk(chunk: list[SweepTask]) -> list[tuple]:
    """Worker entry: run a chunk, converting exceptions to records.

    The chunk's records are followed by one trailing ``("stats",
    delta)`` record carrying this chunk's batch-engine counter deltas
    (recordings, cache hits, disk hits) plus, under the ``"store"``
    key, the chunk's persistent-store event deltas; the parent folds
    them back with :func:`repro.batch.engine.absorb_stats` /
    :func:`repro.store.absorb_store_stats` so sweep-wide cache
    behaviour stays observable under the pool."""
    pre, pre_store = _tier_stats()
    env = resolve()
    policies = [task_policy(task, env) for task in chunk]
    records = None
    if any(p.batches for p in policies):
        from repro.batch.engine import maybe_run_chunk_batched
        records = maybe_run_chunk_batched(chunk, run_task)
    if records is None:
        records = []
        for task, policy in zip(chunk, policies):
            try:
                records.append(("ok", run_task(task, policy)))
            except Exception as exc:  # shipped home, raised as SweepError
                records.append(("err", type(exc).__name__, str(exc),
                                traceback.format_exc()))
    post, post_store = _tier_stats()
    delta = {k: post[k] - pre.get(k, 0)
             for k in post if k not in ("streams", "raw_recordings")}
    delta["store"] = {k: post_store[k] - pre_store.get(k, 0)
                      for k in post_store}
    records.append(("stats", delta))
    return records


def _pop_stats(records: list[tuple]) -> list[tuple]:
    """Absorb and strip a chunk's trailing stats record, if present."""
    if records and records[-1][0] == "stats":
        delta = records[-1][1]
        if delta.get("store"):
            from repro.store.core import absorb_store_stats
            absorb_store_stats(delta["store"])
        if len(delta) > 1:  # batch-engine counters beside "store"
            from repro.batch.engine import absorb_stats
            absorb_stats(delta)
        return records[:-1]
    return records


def make_tasks(workloads: Iterable[str],
               designs: Iterable[str],
               trace: str | None,
               config: SimConfig | None,
               scale: float,
               verify: bool,
               overrides: dict) -> list[SweepTask]:
    """Expand a grid into validated tasks (workload-major, serial order)."""
    designs = [validate_design(d) for d in designs]
    tasks = []
    for wname in workloads:
        get_workload(wname)  # fail fast on unknown names
        for design in designs:
            tasks.append(SweepTask(wname, design, trace, scale, verify,
                                   config, dict(overrides)))
    return tasks


def _chunked(tasks: list[SweepTask], jobs: int,
             align_batches: bool = False) -> list[list[SweepTask]]:
    """Split tasks into contiguous chunks, ~4 per worker for load balance.

    With ``align_batches`` the cuts land only where ``(workload, scale)``
    changes (tasks arrive workload-major), so a batch group is never torn
    across workers - a torn group records its kernel once per worker.
    """
    n = max(1, -(-len(tasks) // (jobs * 4)))
    if not align_batches:
        return [tasks[i:i + n] for i in range(0, len(tasks), n)]
    chunks: list[list[SweepTask]] = []
    cur: list[SweepTask] = []
    for i, task in enumerate(tasks):
        cur.append(task)
        nxt = tasks[i + 1] if i + 1 < len(tasks) else None
        at_block_end = nxt is None or (
            (nxt.workload, nxt.scale) != (task.workload, task.scale))
        if at_block_end and len(cur) >= n:
            chunks.append(cur)
            cur = []
    if cur:
        chunks.append(cur)
    return chunks


def _raise_failures(failures: list[tuple], nworkers: int) -> None:
    where = tuple(f[0] for f in failures)
    head = failures[0]
    detail = head[3] if head[2] is None else f"{head[1]}: {head[2]}"
    raise SweepError(
        f"{len(failures)} of the sweep's runs failed across {nworkers} "
        f"workers; first failure in (workload={head[0][0]!r}, "
        f"design={head[0][1]!r}, trace={head[0][2]!r}): {detail}",
        failures=where)


def run_tasks(tasks: list[SweepTask], jobs: int | None = None,
              progress: ProgressFn | None = None
              ) -> dict[tuple[str, str], RunResult]:
    """Run tasks, serially or on a process pool; results in task order.

    Results are keyed and ordered by ``(workload, design)`` exactly as the
    serial loop would produce them, whatever order workers finish in.
    Serial default-policy tasks may return a :class:`RunResult` object
    shared with an earlier call (see the module docstring), so treat
    results as read-only.
    """
    jobs = resolve_jobs(jobs)
    total = len(tasks)
    env = resolve()
    policies = [task_policy(task, env) for task in tasks]
    batching = any(p.batches for p in policies)
    if jobs <= 1 or total < 2:
        if batching:
            from repro.batch.engine import maybe_run_batched
            return maybe_run_batched(tasks, run_task, progress)
        out = {}
        for i, (task, policy) in enumerate(zip(tasks, policies)):
            run = _run_shared if policy == _DEFAULT_POLICY else run_task
            out[task.key] = run(task, policy)
            if progress is not None:
                progress(i + 1, total, task.key)
        return out

    from concurrent.futures import (FIRST_EXCEPTION, ProcessPoolExecutor,
                                    wait)
    from concurrent.futures.process import BrokenProcessPool

    chunks = _chunked(tasks, jobs, align_batches=batching)
    by_task: dict[tuple[str, str], RunResult] = {}
    # (where, exc_name | None, msg | None, detail) records
    failures: list[tuple] = []
    done = 0
    with ProcessPoolExecutor(max_workers=min(jobs, total),
                             initializer=_init_worker,
                             initargs=worker_initargs()) as pool:
        futures = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for fut in finished:
                chunk = futures[fut]
                try:
                    records = fut.result()
                except BrokenProcessPool:
                    # a worker died without reporting; blame its chunk
                    for task in chunk:
                        failures.append((task.where, None, None,
                                         "worker process crashed "
                                         "(pool broken)"))
                    continue
                records = _pop_stats(records)
                for task, rec in zip(chunk, records):
                    if rec[0] == "ok":
                        by_task[task.key] = rec[1]
                        done += 1
                        if progress is not None:
                            progress(done, total, task.key)
                    else:
                        failures.append((task.where, rec[1], rec[2], rec[3]))
    if failures:
        _raise_failures(failures, jobs)
    return {task.key: by_task[task.key] for task in tasks}


def run_grid_parallel(workloads: Iterable[str],
                      designs: Iterable[str],
                      trace: str | None = "trace1",
                      config: SimConfig | None = None,
                      scale: float = 1.0,
                      verify: bool = True,
                      jobs: int | None = None,
                      progress: ProgressFn | None = None,
                      **overrides) -> dict[tuple[str, str], RunResult]:
    """Parallel twin of :func:`repro.sim.sweep.run_grid`.

    Bit-identical to the serial sweep (enforced by
    ``tests/test_parallel.py``); ``jobs=None`` means ``REPRO_JOBS`` or all
    cores.
    """
    tasks = make_tasks(list(workloads), designs, trace, config, scale,
                       verify, overrides)
    return run_tasks(tasks, jobs=jobs, progress=progress)

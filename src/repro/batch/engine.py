"""Batched sweep execution: group grid points, record once, replay each.

The engine sits between :mod:`repro.sim.parallel` and the per-run
machinery. Given a list of sweep tasks it:

1. resolves each task's effective :class:`SimConfig` and checks
   *eligibility* - batching yields to the trace recorder and the
   invariant checker exactly like the memfast tier (the pecking order
   is recorder/checker > batch > memfast);
2. groups eligible tasks by ``(workload, scale, effective cost model)``
   - the *design family*: ``NVCache-WB`` folds ``nvcache_ifetch_extra``
   into its costs, so it records separately from the SRAM-cost designs;
3. records each group's kernel once (:mod:`repro.batch.record`) and
   expands it into a shared :class:`GuestStream`, cached process-wide so
   consecutive grids (one per power trace) reuse it;
4. replays every task in the group through an untouched
   :class:`~repro.sim.system.System` whose core is a per-instance
   :class:`~repro.batch.replay.ReplayCore` with the memfast tier
   attached to its design - per-instance outages, stalls, and threshold
   adaptation all happen inside the replay, bit-identically;
5. bails any task the stream model cannot serve - instrumentation
   attached, a guest fault or runaway kernel during recording - to the
   caller-supplied slow path (the interpreter, with memfast when
   selected), per instance, preserving exact error behaviour.

Enable with ``SimConfig(batch=True)``, ``--batch`` on the CLI, or
``REPRO_BATCH=1`` in the environment (sweep pool workers re-export it,
like the other tier switches).
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Iterator
from dataclasses import replace

from repro.batch.record import RecordingBail, record_run
from repro.batch.replay import ReplayCore
from repro.batch.stream import GuestStream, build_stream
from repro.cpu.core import program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program
from repro.mem.nvm import NVMainMemory
from repro.memfast import attach_memfast, finish_memfast
from repro.sim.config import SimConfig
from repro.sim.factory import build_design
from repro.sim.parallel import task_config as resolve_config
from repro.sim.policy import BATCH_ENV, LEGACY_STORE_ENV, env_flag, resolve
from repro.sim.results import memory_image
from repro.sim.system import System
from repro.workloads import build_workload, verify_checks

#: ``REPRO_STREAM_CACHE=<dir>`` shares recordings across *processes*.
#: Since the persistent artifact store subsumed the old per-directory
#: pickle files, this is a legacy alias for the store root
#: (:func:`repro.store.store_root` - it wins over ``REPRO_CACHE_DIR``
#: when set); recordings are the store's ``"stream"`` artifact class.
#: Writes stay atomic (tmp + rename) and loads still tolerate any
#: corruption by falling back to recording.
CACHE_DIR_ENV = LEGACY_STORE_ENV

#: program content key -> raw recording ``(codes, n_total, cycles,
#: rec_costs, final_regs, ops)``. The architectural stream is *cost-
#: independent* (control flow never reads the cycle counter), so one
#: recording serves every design family; only the cheap static-cycle
#: expansion happens per family. Recordings are the big allocation
#: (exit codes + memory ops), so the cache holds only the most recent
#: few - enough for back-to-back grids over the same kernels (one per
#: power trace) to record once.
_RECORDING_CACHE: dict[tuple, tuple] = {}
_RECORDING_CACHE_CAP = 4

#: (program content key, effective costs) -> GuestStream, least recently
#: used first. Streams share their event list with the cached recording's
#: skeleton, so the per-family entry adds only the cycle prefix sum. The
#: cap holds a whole 23-kernel grid in both cost families, so a figure
#: bench that issues the suite in every ``run_grid`` call records each
#: kernel once.
_STREAM_CACHE: dict[tuple, GuestStream] = {}
_STREAM_CACHE_CAP = 64
_STREAM_STATS = {"recordings": 0, "expansions": 0, "hits": 0, "bails": 0,
                 "replays": 0, "solo": 0, "lockstep": 0, "disk_hits": 0,
                 "disk_writes": 0}


def batch_enabled() -> bool:
    """True when ``REPRO_BATCH`` requests batched sweeps globally."""
    return env_flag(BATCH_ENV)


def task_batch_eligible(task) -> bool:
    """:func:`task_batchable` over the task's resolved config, safely.

    A task whose overrides do not form a valid :class:`SimConfig` is
    simply *not eligible*: the error must be raised by the ordinary run
    path (where sweeps attribute it to the failing run), not by a
    batching probe in the sweep parent.
    """
    try:
        config = resolve_config(task)
    except Exception:
        return False
    return task_batchable(config)


def task_batchable(config: SimConfig) -> bool:
    """Batching applies to this run and nothing outranks it.

    The trace recorder and the invariant checker must see every memory
    call and every chunk; a replayed stream would bypass them entirely,
    so - like memfast - the batch tier silently stands down when
    either is requested (per config or environment).
    """
    return resolve(config).batches


def task_lockstep_eligible(task) -> bool:
    """Batch-eligible *and* opted into lockstep columns (per config or
    ``REPRO_LOCKSTEP``). Lockstep rides on the batch tier, so it
    inherits every batch eligibility rule unchanged."""
    try:
        policy = resolve(resolve_config(task))
    except Exception:
        return False
    return policy.batches and policy.lockstep


def effective_costs(design: str, config: SimConfig) -> CycleCosts:
    """The cost model a design family executes under (mirrors
    :func:`repro.sim.factory.build_system`)."""
    costs = config.costs
    if design == "NVCache-WB":
        costs = replace(costs, ifetch_extra=config.nvcache_ifetch_extra)
    return costs


class _Group:
    """Eligible tasks sharing one recording."""

    __slots__ = ("workload", "scale", "costs", "tasks", "configs",
                 "budget")

    def __init__(self, workload: str, scale: float, costs: CycleCosts):
        self.workload = workload
        self.scale = scale
        self.costs = costs
        self.tasks: list = []
        self.configs: list[SimConfig] = []
        self.budget = 0

    def add(self, task, config: SimConfig) -> None:
        self.tasks.append(task)
        self.configs.append(config)
        self.budget = max(self.budget, config.max_instructions)


def plan(tasks) -> list[tuple]:
    """Partition tasks into ``("solo", task)`` and ``("group", _Group)``
    units, in first-appearance order."""
    units: list[tuple] = []
    groups: dict[tuple, _Group] = {}
    for task in tasks:
        try:
            config = resolve_config(task)
        except Exception:
            # invalid overrides: the slow path raises the real error
            units.append(("solo", task))
            continue
        if not task_batchable(config):
            units.append(("solo", task))
            continue
        costs = effective_costs(task.design, config)
        key = (task.workload, task.scale, costs)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group(task.workload, task.scale,
                                         costs)
            units.append(("group", group))
        group.add(task, config)
    return units


def _stream_store_key(ckey: tuple) -> tuple:
    from repro.store.keys import modules_fingerprint

    return ("stream-rec",
            modules_fingerprint("repro.batch.record", "repro.cpu.core",
                                "repro.isa.opcodes"), ckey)


def _disk_load(ckey: tuple) -> tuple | None:
    """A previously shared recording, or None (not cached / unreadable -
    a bad entry is never an error, just a re-record). Recordings live in
    the ``"stream"`` class of the persistent artifact store
    (:mod:`repro.store`); ``REPRO_STREAM_CACHE=<dir>`` still works as a
    legacy alias for the store root."""
    from repro.store.core import get_store

    store = get_store()
    if store is None:
        return None
    recording = store.load("stream", _stream_store_key(ckey))
    if not (isinstance(recording, tuple) and len(recording) == 6):
        return None
    _STREAM_STATS["disk_hits"] += 1
    return recording


def _disk_store(ckey: tuple, recording: tuple) -> None:
    from repro.store.core import get_store

    store = get_store()
    if store is None:
        return
    if store.save("stream", _stream_store_key(ckey), recording):
        _STREAM_STATS["disk_writes"] += 1


def get_stream(program: Program, costs: CycleCosts,
               budget: int) -> GuestStream:
    """The kernel's guest stream, recording it on first demand.

    Raises :class:`RecordingBail` when the kernel cannot be recorded;
    bails are not cached (a larger budget may succeed later). With
    ``REPRO_STREAM_CACHE`` set, recordings round-trip through the
    shared directory so campaign shards record each kernel once
    fleet-wide (a completed recording is budget-independent - the
    budget only caps runaway kernels, which bail and are never stored).
    """
    ckey = program_content_key(program)
    key = (ckey, costs)
    stream = _STREAM_CACHE.pop(key, None)
    if stream is not None:
        _STREAM_CACHE[key] = stream  # most recently used goes last
        _STREAM_STATS["hits"] += 1
        return stream
    recording = _RECORDING_CACHE.get(ckey)
    if recording is None:
        recording = _disk_load(ckey)
        if recording is None:
            codes, n, cycles, final_regs, ops = record_run(
                program, costs, budget)
            recording = (codes, n, cycles, costs, final_regs, ops)
            _STREAM_STATS["recordings"] += 1
            _disk_store(ckey, recording)
        if len(_RECORDING_CACHE) >= _RECORDING_CACHE_CAP:
            _RECORDING_CACHE.pop(next(iter(_RECORDING_CACHE)))
        _RECORDING_CACHE[ckey] = recording
    stream = build_stream(program, costs, recording)
    if len(_STREAM_CACHE) >= _STREAM_CACHE_CAP:
        _STREAM_CACHE.pop(next(iter(_STREAM_CACHE)))
    _STREAM_CACHE[key] = stream
    _STREAM_STATS["expansions"] += 1
    return stream


def build_replay_system(program: Program, task, config: SimConfig,
                        stream: GuestStream) -> System:
    """A ready-to-run System whose core replays ``stream``.

    Mirrors :func:`repro.sim.factory.build_system` minus the observers
    the batch engine refuses to coexist with (trace recorder, invariant
    checker - :func:`plan` never routes such tasks here). The memfast
    tier *is* attached: each replay instance binds its own design's fast
    hit handlers (the per-instance fast-path slots), and silently stays
    off for ineligible designs.
    """
    from repro.energy.synthetic import make_trace

    trace = task.trace
    if isinstance(trace, str):
        trace = (make_trace(trace) if config.trace_seed is None
                 else make_trace(trace, config.trace_seed))
    nvm = NVMainMemory.for_program(program, config.nvm)
    design = build_design(task.design, nvm, config)
    costs = effective_costs(task.design, config)
    system = System(program, design, config, trace, costs)
    system.core = ReplayCore(program, design, costs, stream)
    attach_memfast(system)
    finish_memfast(system)
    return system


def _replay_task(program: Program, task, config: SimConfig,
                 stream: GuestStream):
    from repro.store.results import store_task

    res = build_replay_system(program, task, config, stream).run()
    if task.verify:
        verify_checks(program, memory_image(res))
    _STREAM_STATS["replays"] += 1
    store_task(task, res)
    return res


def _outcome(fn, *args) -> tuple:
    """Run ``fn``, boxing the result: ("ok", result) or ("err", exc,
    formatted traceback)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("err", exc, traceback.format_exc())


def iter_outcomes(tasks, run_slow: Callable) -> Iterator[tuple]:
    """Yield ``(task, outcome)`` for every task, batching where it can.

    ``run_slow`` is the caller's single-task path (``run_task``); bailed
    and ineligible tasks go through it so they finish on whatever tier
    the environment selects (memfast under the usual switches).
    Outcomes are yielded unit-by-unit in first-appearance order, which
    interleaves groups sharing a workload; callers needing task order
    re-index by task.

    When any task opts into lockstep, adjacent group units sharing a
    ``(workload, scale)`` - the cost families of one design sweep, which
    share a :class:`~repro.batch.stream.StreamSkeleton` - are coalesced
    into one *cluster* and their lockstep-eligible tasks advance
    together as a column (:mod:`repro.lockstep.scheduler`); everything
    else keeps the per-instance replay path unchanged.

    When result memoization is on (:mod:`repro.store.results`), every
    task is first checked against the persistent memo: hits are yielded
    up front without touching the recorder, so an all-hit grid never
    records, expands, or replays anything.
    """
    from repro.store.results import lookup_task

    pending = []
    for task in tasks:
        memo = lookup_task(task)
        if memo is not None:
            yield task, ("ok", memo)
        else:
            pending.append(task)
    tasks = pending
    if not tasks:
        return
    units = plan(tasks)
    if not any(task_lockstep_eligible(t) for t in tasks):
        for kind, unit in units:
            if kind == "solo":
                _STREAM_STATS["solo"] += 1
                yield unit, _outcome(run_slow, unit)
                continue
            group = unit
            try:
                program = build_workload(group.workload, group.scale)
                stream = get_stream(program, group.costs, group.budget)
            except RecordingBail:
                _STREAM_STATS["bails"] += 1
                for task in group.tasks:
                    yield task, _outcome(run_slow, task)
                continue
            except Exception as exc:
                tb = traceback.format_exc()
                for task in group.tasks:
                    yield task, ("err", exc, tb)
                continue
            for task, config in zip(group.tasks, group.configs):
                yield task, _outcome(_replay_task, program, task, config,
                                     stream)
        return
    i = 0
    while i < len(units):
        kind, unit = units[i]
        if kind == "solo":
            _STREAM_STATS["solo"] += 1
            yield unit, _outcome(run_slow, unit)
            i += 1
            continue
        cluster = [unit]
        j = i + 1
        while (j < len(units) and units[j][0] == "group"
               and units[j][1].workload == unit.workload
               and units[j][1].scale == unit.scale):
            cluster.append(units[j][1])
            j += 1
        i = j
        yield from _run_cluster(cluster, run_slow)


def _run_cluster(groups: list, run_slow: Callable) -> Iterator[tuple]:
    """Run one ``(workload, scale)`` cluster: lockstep tasks as one
    column over the shared skeleton, the rest per instance."""
    from repro.lockstep.scheduler import run_column

    try:
        program = build_workload(groups[0].workload, groups[0].scale)
    except Exception as exc:
        tb = traceback.format_exc()
        for group in groups:
            for task in group.tasks:
                yield task, ("err", exc, tb)
        return
    column: list[tuple] = []
    for group in groups:
        try:
            stream = get_stream(program, group.costs, group.budget)
        except RecordingBail:
            _STREAM_STATS["bails"] += 1
            for task in group.tasks:
                yield task, _outcome(run_slow, task)
            continue
        except Exception as exc:
            tb = traceback.format_exc()
            for task in group.tasks:
                yield task, ("err", exc, tb)
            continue
        for task, config in zip(group.tasks, group.configs):
            # column instances must share the event list; a family whose
            # skeleton was evicted mid-cluster replays per instance
            if (resolve(config).lockstep
                    and (not column
                         or stream.skel is column[0][2].skel)):
                column.append((task, config, stream))
            else:
                yield task, _outcome(_replay_task, program, task, config,
                                     stream)
    if not column:
        return
    try:
        results = run_column(program, column)
    except Exception as exc:
        tb = traceback.format_exc()
        for task, _config, _stream in column:
            yield task, ("err", exc, tb)
        return
    from repro.store.results import store_task

    for task, outcome in results:
        if outcome[0] == "ok" and task.verify:
            try:
                verify_checks(program, memory_image(outcome[1]))
            except Exception as exc:
                outcome = ("err", exc, traceback.format_exc())
        if outcome[0] == "ok":
            _STREAM_STATS["replays"] += 1
            _STREAM_STATS["lockstep"] += 1
            store_task(task, outcome[1])
        yield task, outcome


def maybe_run_batched(tasks, run_slow: Callable,
                      progress=None) -> dict | None:
    """The serial batched sweep, or None when no task opts in.

    Mirrors the serial loop in :func:`repro.sim.parallel.run_tasks`:
    results keyed and ordered by ``task.key``, first failure re-raised.
    Progress fires in completion order (group-major), like the pool.
    """
    if not any(task_batch_eligible(t) for t in tasks):
        return None
    total = len(tasks)
    done = 0
    by_key = {}
    for task, outcome in iter_outcomes(tasks, run_slow):
        if outcome[0] != "ok":
            raise outcome[1]
        by_key[task.key] = outcome[1]
        done += 1
        if progress is not None:
            progress(done, total, task.key)
    return {task.key: by_key[task.key] for task in tasks}


def maybe_run_chunk_batched(chunk, run_slow: Callable) -> list | None:
    """The pool-worker batched chunk body, or None when no task opts in.

    Returns records in *chunk order* (the parent zips them with the
    chunk's tasks), in the exact shape
    :func:`repro.sim.parallel._run_chunk` ships: ``("ok", result)`` or
    ``("err", exc type name, message, traceback)``.
    """
    if not any(task_batch_eligible(t) for t in chunk):
        return None
    boxed: dict[int, tuple] = {}
    for task, outcome in iter_outcomes(chunk, run_slow):
        boxed[id(task)] = outcome
    records = []
    for task in chunk:
        outcome = boxed[id(task)]
        if outcome[0] == "ok":
            records.append(("ok", outcome[1]))
        else:
            exc = outcome[1]
            records.append(("err", type(exc).__name__, str(exc),
                            outcome[2]))
    return records


def warm_stream(workload: str, scale: float,
                config: SimConfig | None = None,
                design: str = "WL-Cache") -> GuestStream:
    """Record (or fetch) the stream a grid over ``workload`` will use -
    benchmark helper to separate recording cost from replay cost."""
    config = config or SimConfig()
    program = build_workload(workload, scale)
    costs = effective_costs(design, config)
    return get_stream(program, costs, config.max_instructions)


def batch_stats() -> dict:
    """Engine counters (tests/benchmarks)."""
    return {"streams": len(_STREAM_CACHE),
            "raw_recordings": len(_RECORDING_CACHE), **_STREAM_STATS}


def absorb_stats(delta: dict) -> None:
    """Fold a worker's per-chunk counter deltas into this process.

    Pool workers ship a trailing ``("stats", delta)`` record with each
    chunk (:func:`repro.sim.parallel._run_chunk`); the sweep parent
    absorbs them here so :func:`batch_stats` reflects the whole sweep -
    recordings, cache hits, disk hits - not just the parent's share.
    Cache-size gauges (``streams``/``raw_recordings``) describe the
    worker's caches, not events, and are skipped."""
    for key, value in delta.items():
        if key in _STREAM_STATS and value:
            _STREAM_STATS[key] += value


def clear_streams() -> None:
    """Drop cached recordings/streams and reset counters (tests)."""
    _STREAM_CACHE.clear()
    _RECORDING_CACHE.clear()
    from repro.batch.stream import clear_stream_meta
    clear_stream_meta()
    for k in _STREAM_STATS:
        _STREAM_STATS[k] = 0


__all__ = [
    "CACHE_DIR_ENV",
    "absorb_stats",
    "batch_enabled",
    "batch_stats",
    "build_replay_system",
    "clear_streams",
    "effective_costs",
    "get_stream",
    "iter_outcomes",
    "maybe_run_batched",
    "maybe_run_chunk_batched",
    "plan",
    "resolve_config",
    "task_batch_eligible",
    "task_batchable",
    "task_lockstep_eligible",
    "warm_stream",
]

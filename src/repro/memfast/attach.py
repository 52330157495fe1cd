"""Attaching the fast hit-path tier to a memory system.

The tier is the same *instance-attribute shadowing* the trace recorder
and invariant checker use - zero overhead when off, and a strict
pecking order when observability is in play:

* :func:`attach_memfast` **refuses** (returns ``None``) when the trace
  recorder has wrapped ``core.run_chunk`` or anything has shadowed the
  design's ``load``/``store``/``store_masked`` (recorder or invariant
  checker): those wrappers must see every call, so they always win.
* :func:`detach_memfast` restores the pristine design methods and
  removes the chunk-end flush wrapper.
* :meth:`~repro.obs.recorder.attach_trace` detaches the fast path
  before instrumenting.
* The batch tier (:mod:`repro.batch`) slots in *above* memfast and
  *below* the recorder/checker: its engine never batches instrumented
  runs, and memfast is the one tier it composes with - each replay
  instance attaches the fast handlers to its own design
  (``attach_memfast`` works unchanged because a fresh ``ReplayCore``
  has nothing shadowing ``run_chunk``), and :func:`finish_memfast`
  wraps ``ReplayCore.run_chunk`` like any other.

Deferred-stats discipline (the heart of bit-exactness): the handlers
batch the hit counters, hit energies, and the LRU stamp in
``MemfastState.acc`` and *every* code path that could read or write
those fields outside the handlers is bracketed with ``flush()`` /
``resync()``:

* every slow-path bail (miss, stall, waterline, ACK due) - the class
  method runs against fully synced stats, then the accumulator re-reads
  them;
* ``flush_for_checkpoint`` / ``on_boot`` / ``finalize`` - the
  checkpoint protocol both reads and adds energies;
* chunk end - :func:`finish_memfast` wraps ``core.run_chunk`` (the
  interpreter's or a ``ReplayCore``'s) so the per-chunk capacitor
  accounting in ``System.run`` always reads exact values.

``flush`` adds the integer hit deltas to both stat fields they cover
(exact, order-free) and writes the float slots back as absolute
values; since each float slot accumulates from the synced value in
slow-path order, the flushed result is bit-identical to never having
deferred at all.
"""

from __future__ import annotations

from repro.caches.base import CachedMemorySystem
from repro.caches.nvcache import NVCacheWB
from repro.caches.nvsram import NVSRAMIdeal
from repro.core.dirty_queue import DQEntry
from repro.core.wl_cache import WLCache
from repro.mem.setassoc import SetAssocArray
from repro.memfast.handlers import (build_load, build_wb_stores,
                                    build_wl_stores)
from repro.sim.policy import MEMFAST_ENV, env_flag

#: Instance attrs that mean instrumentation owns the memory methods.
_GUARDED_METHODS = ("load", "store", "store_masked")

#: Protocol methods bracketed because they read or mutate deferred
#: fields (NVSRAM's checkpoint/restore bill cache-write energy).
_BRACKETED_PROTOCOL = ("flush_for_checkpoint", "on_boot", "finalize")

_MISSING = object()


def memfast_enabled() -> bool:
    """True when ``REPRO_MEMFAST`` requests the fast path globally."""
    return env_flag(MEMFAST_ENV)


class MemfastState:
    """Per-design fast-path bookkeeping, parked on ``_memfast_state``."""

    __slots__ = ("design", "acc", "installed", "fast_store", "store_shape",
                 "slow_load", "slow_sm")

    def __init__(self, design):
        self.design = design
        # [fast_load_hits_delta, fast_store_hits_delta,
        #  cache_read_energy_nj, cache_write_energy_nj, array._stamp];
        # hit counters are deltas (a fast hit bumps loads and read_hits
        # by the same 1 - flush adds it to both), energies and the LRU
        # stamp are absolute (floats must accumulate in slow-path order)
        self.acc: list = [0, 0, 0.0, 0.0, 0]
        self.installed: list[tuple[str, object]] = []
        self.fast_store = False
        #: "wl" / "wb" when the store hit path is fast, else None; picks
        #: the store probe the lockstep engine inlines
        self.store_shape: str | None = None
        #: the bracketed slow paths the fast handlers bail to - kept
        #: addressable so the lockstep engine (which inlines the *full*
        #: probe, set scan included) can call them without paying the
        #: handler's redundant re-probe
        self.slow_load = None
        self.slow_sm = None
        self.resync()

    # -- accumulator sync ----------------------------------------------
    def flush(self) -> None:
        """Publish the accumulator into stats/array. Idempotent: the hit
        deltas are zeroed once added, the other slots are absolute."""
        stats = self.design.stats
        acc = self.acc
        if acc[0]:
            stats.loads += acc[0]
            stats.read_hits += acc[0]
            acc[0] = 0
        if acc[1]:
            stats.stores += acc[1]
            stats.write_hits += acc[1]
            acc[1] = 0
        stats.cache_read_energy_nj = acc[2]
        stats.cache_write_energy_nj = acc[3]
        self.design.array._stamp = acc[4]

    def resync(self) -> None:
        """Re-read stats/array into the accumulator (after a slow path)."""
        stats = self.design.stats
        acc = self.acc
        acc[0] = 0
        acc[1] = 0
        acc[2] = stats.cache_read_energy_nj
        acc[3] = stats.cache_write_energy_nj
        acc[4] = self.design.array._stamp

    # -- lockstep integration ------------------------------------------
    def jit_bindings(self) -> tuple:
        """Runtime bindings for inline hit checks, read by the lockstep
        engine's slot builder. ``pending`` is the WL-Cache ACK deque
        (None for other designs - the "wb"/"base" probes never touch
        it)."""
        m = self.design
        array = m.array
        return (array.mru, self.acc, array.line_shift, array.set_mask,
                m._word_mask, m._e_read, m._hit_read_cycles,
                1 if array._lru else 0, m._e_write, m._hit_write_cycles,
                getattr(m, "pending", None))


def _bracket(fn, flush, resync):
    """Wrap a slow-path callable in flush/resync. Nesting is safe: both
    syncs are idempotent, so an inner bracket inside an outer one only
    repeats a no-op write."""
    def call(*args, _fn=fn, _flush=flush, _resync=resync, **kwargs):
        _flush()
        try:
            return _fn(*args, **kwargs)
        finally:
            _resync()
    return call


def _install(m, state: MemfastState, name: str, fn) -> None:
    state.installed.append((name, vars(m).get(name, _MISSING)))
    setattr(m, name, fn)


def attach_design(m) -> MemfastState | None:
    """Install fast handlers on a memory system (no core involved).

    Returns the :class:`MemfastState`, or ``None`` when the design is
    ineligible (no shared base-class load, custom array) or when
    instrumentation has already shadowed the guarded methods.
    Attaching twice is a no-op returning the existing state.
    """
    state = getattr(m, "_memfast_state", None)
    if state is not None:
        return state
    md = vars(m)
    if any(name in md for name in _GUARDED_METHODS):
        return None  # recorder / invariant checker present: they win
    cls = type(m)
    if cls.load is not CachedMemorySystem.load:
        return None  # design overrides the load path (WT+Buffer, hybrid)
    if not isinstance(getattr(m, "array", None), SetAssocArray):
        return None

    state = MemfastState(m)
    flush, resync = state.flush, state.resync
    slow_load = _bracket(cls.load.__get__(m, cls), flush, resync)
    slow_sm = _bracket(cls.store_masked.__get__(m, cls), flush, resync)
    state.slow_load = slow_load
    state.slow_sm = slow_sm

    _install(m, state, "load", build_load(m, state.acc, slow_load))
    if (cls.store_masked is WLCache.store_masked
            and cls.store is WLCache.store):
        stores = build_wl_stores(m, state.acc, slow_sm, DQEntry)
        state.fast_store = True
        state.store_shape = "wl"
    elif (cls.store_masked in (NVSRAMIdeal.store_masked,
                               NVCacheWB.store_masked)
          and cls.store in (NVSRAMIdeal.store, NVCacheWB.store)):
        stores = build_wb_stores(m, state.acc, slow_sm)
        state.fast_store = True
        state.store_shape = "wb"
    else:
        # write-through / persist-queue stores (VCache-WT, ReplayCache):
        # loads go fast, stores stay on the bracketed slow path so their
        # direct stats mutations interleave correctly with the deferral
        stores = {"store_masked": slow_sm,
                  "store": _bracket(cls.store.__get__(m, cls),
                                    flush, resync)}
    for name in ("store", "store_masked"):
        _install(m, state, name, stores[name])
    for name in _BRACKETED_PROTOCOL:
        _install(m, state, name, _bracket(getattr(m, name), flush, resync))
    m._memfast_state = state
    return state


def detach_design(m) -> bool:
    """Flush and remove the fast handlers, restoring pristine methods."""
    state = getattr(m, "_memfast_state", None)
    if state is None:
        return False
    state.flush()
    for name, old in reversed(state.installed):
        if old is _MISSING:
            delattr(m, name)
        else:
            setattr(m, name, old)
    del m._memfast_state
    return True


def attach_memfast(system) -> MemfastState | None:
    """Attach the fast tier to a system's design (observability wins).

    Call :func:`finish_memfast` afterwards to wrap ``run_chunk`` with
    the chunk-end flush.
    """
    if "run_chunk" in vars(system.core):
        return None  # the trace recorder owns it
    return attach_design(system.design)


def finish_memfast(system) -> None:
    """Wrap ``core.run_chunk`` with the chunk-end accumulator flush.

    ``System.run`` reads the cache energies after every chunk for the
    capacitor accounting, so this wrapper is what makes the deferral
    invisible to it. No-op when the fast path is not attached.
    """
    state = getattr(system.design, "_memfast_state", None)
    if state is None:
        return
    core = system.core
    rc = vars(core).get("run_chunk")
    if rc is not None and getattr(rc, "_memfast", False):
        return  # already wrapped
    inner = core.run_chunk

    def run_chunk(max_instrs, _inner=inner, _flush=state.flush):
        try:
            return _inner(max_instrs)
        finally:
            _flush()  # exact stats at every observable chunk boundary

    run_chunk._memfast = True
    core.run_chunk = run_chunk


def detach_memfast(system) -> bool:
    """Detach the fast tier from a system: the run_chunk flush wrapper
    and the design handlers. Returns True if anything was detached."""
    core = system.core
    state = getattr(system.design, "_memfast_state", None)
    if state is None:
        return False
    rc = vars(core).get("run_chunk")
    if rc is not None and getattr(rc, "_memfast", False):
        del core.run_chunk
    return detach_design(system.design)

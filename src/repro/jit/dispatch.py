"""Attaching the JIT ``run_chunk`` to a core.

:func:`attach_jit` swaps the core's per-instruction interpreter loop for a
two-tier compiled dispatcher: *traces* (superblocks spanning jumps and
branch fall-throughs, see :mod:`repro.jit.blocks`) while the chunk budget
is comfortable, exactly-bounded *basic blocks* once it tightens, so the
dispatcher loops once per trace/block instead of once per instruction.
The replacement is an *instance attribute* -
the same zero-overhead-when-off shadowing the trace recorder and the
invariant checker use - so ``System.run`` picks it up through its ordinary
``core.run_chunk`` binding and nothing changes when the JIT is off.

Fidelity contract (enforced by the differential tests):

* Chunk semantics are bit-identical to the interpreter. Whole blocks run
  only while they fit the remaining instruction budget; the tail of a
  chunk (and any resume at a mid-block pc that a *previous* tail left
  behind, until its suffix block is compiled) is delegated to the pristine
  interpreter for exactly the remaining budget. Since per-chunk retirement
  counts and cycle deltas match the interpreter exactly, the simulator's
  float energy accounting - which is sensitive to chunk boundaries -
  accumulates in the same order and stays bit-identical.
* The JIT refuses to attach (returns ``None``) when the methods it inlines
  around have been shadowed: a trace recorder wrapping ``run_chunk`` or
  the memory system's ``load``/``store``/``store_masked``, or the
  invariant checker wrapping ``store_masked``. Compiled blocks bind those
  methods at attach time and would silently bypass any later wrapper, so
  observability and checking always win over speed.

``REPRO_JIT=1`` turns the JIT on globally (mirroring ``REPRO_TRACE`` /
``REPRO_CHECK``); ``SimConfig(jit=True)`` turns it on per run.
"""

from __future__ import annotations

from repro.cpu.core import InOrderCore, _sdiv, _srem
from repro.errors import ExecutionError
from repro.jit.cache import TRACE_CAP, CompiledProgram, get_compiled
from repro.sim.policy import JIT_ENV, env_flag

#: Methods the compiled blocks bind directly; a wrapper on any of these
#: means the JIT must stand down.
_INLINED_MEM_METHODS = ("load", "store", "store_masked")


def jit_enabled() -> bool:
    """True when ``REPRO_JIT`` requests JIT compilation globally."""
    return env_flag(JIT_ENV)


class JITState:
    """Per-core JIT bookkeeping, parked on ``core._jit_state``."""

    __slots__ = ("compiled", "table", "traces", "bind_args")

    def __init__(self, compiled: CompiledProgram, table: list,
                 bind_args: tuple):
        self.compiled = compiled
        self.table = table
        self.traces: dict[int, tuple] = {}  # root pc -> bound trace entry
        self.bind_args = bind_args


def _shadowed(core: InOrderCore) -> bool:
    """True when instrumentation has wrapped a method the JIT inlines.

    The memfast tier's handlers (marked ``_memfast``) are the one kind
    of shadow the JIT cooperates with: compiled code binds them directly
    and the fast path's chunk-flush wrapper goes on *after* the JIT, so
    anything it finds already on ``run_chunk`` is a real wrapper.
    """
    if "run_chunk" in vars(core):
        return True
    mem_dict = vars(core.memsys)
    for name in _INLINED_MEM_METHODS:
        fn = mem_dict.get(name)
        if fn is not None and not getattr(fn, "_memfast", False):
            return True
    return False


def attach_jit(core: InOrderCore) -> JITState | None:
    """Install the block-dispatch ``run_chunk`` on ``core``.

    Returns the :class:`JITState` on success, or ``None`` when the JIT
    disengages because the trace recorder / invariant checker has shadowed
    the methods compiled blocks bind (observability always wins).
    Attaching twice is a no-op returning the existing state.
    """
    state = getattr(core, "_jit_state", None)
    if state is not None:
        return state
    if getattr(core, "_replay", False):
        # a batch-tier ReplayCore: the stream already encodes execution,
        # there is nothing left to compile (batch outranks jit)
        return None
    if _shadowed(core):
        return None
    mem = core.memsys
    # With the memfast tier attached, compile in memfast mode: load and
    # store hits are inlined against the ``_mf`` runtime bindings and the
    # bound ``_load``/``_store``/``_sm`` below are the fast handlers. The
    # module variant is keyed by the design's store family ("base" keeps
    # stores as calls; "wl"/"wb" additionally inline that store hit), so
    # one compiled module is shared across every geometry sweep point of
    # a family.
    mf_state = getattr(mem, "_memfast_state", None)
    mf = mf_state.jit_bindings() if mf_state is not None else None
    mf_mode = (mf_state.store_shape or "base") if mf_state is not None \
        else False
    compiled = get_compiled(core.program, core.costs, memfast=mf_mode)
    # ``ic_lines`` is mutated in place everywhere (flush uses .clear()),
    # so binding the set object itself is safe for the core's lifetime.
    bind_args = (mem.load, mem.store, mem.store_masked, core.ic_lines,
                 _sdiv, _srem, ExecutionError)
    if mf is not None:
        bind_args += (mf,)
    table = compiled.bind(bind_args)
    state = JITState(compiled, table, bind_args)
    core.run_chunk = _make_run_chunk(core, state)
    core._jit_state = state
    return state


def detach_jit(core: InOrderCore) -> bool:
    """Remove the JIT ``run_chunk``, restoring the interpreter. Used by
    the trace recorder when it attaches to an already-JITted core (its
    wrappers must see every memory call). Returns True if detached.

    When the memfast chunk-flush wrapper sits on top of the dispatcher,
    the whole fast tier comes off with the JIT: the interpreter would
    otherwise bind the fast handlers with no chunk-end flush left to
    publish their deferred stats.
    """
    if getattr(core, "_jit_state", None) is None:
        return False
    rc = vars(core).get("run_chunk")
    del core.run_chunk
    del core._jit_state
    if rc is not None and getattr(rc, "_memfast", False):
        from repro.memfast import detach_design
        detach_design(core.memsys)
    return True


def _make_run_chunk(core: InOrderCore, state: JITState):
    """The two-tier dispatch loop, closed over one core's bound tables.

    While the remaining budget is at least :data:`~repro.jit.cache.
    TRACE_CAP`, dispatch runs *traces* (superblocks capped at that length,
    so they can never overshoot the budget); once the budget tightens it
    falls back to exactly-bounded basic blocks, and the final partial
    block is delegated to the interpreter. Retirement and halting are read
    back from ``st[7]``/``st[8]`` after every compiled call.
    """
    table = state.table
    traces = state.traces
    suffix_entry = state.compiled.suffix_entry
    trace_entry = state.compiled.trace_entry
    bind_args = state.bind_args
    prog_n = len(core.program.instructions)
    trace_cap = TRACE_CAP
    # pc-indexed memo of the bound trace functions: the hot dispatch is
    # a list index instead of a dict probe plus tuple unpack
    tfns: list = [None] * prog_n
    # the *pristine* interpreter, for budget tails (bound to the class so
    # a shadowed instance attribute can never recurse into us)
    interp = InOrderCore.run_chunk.__get__(core, InOrderCore)
    name = core.program.name

    def run_chunk(max_instrs: int) -> tuple[int, int]:
        if core.halted:
            return (0, 0)
        regs = core.regs  # re-read every call: restore_arch_state rebinds
        pc = core.pc
        cycle0 = core.cycle
        st = [cycle0, core.ic_last, core.ic_fetches, core.ic_misses,
              core.n_loads, core.n_stores, core.n_branches, 0, 0]
        n = 0
        halted = False
        tail = False
        try:
            while n < max_instrs:
                rem = max_instrs - n
                if rem >= trace_cap and 0 <= pc < prog_n:
                    fn = tfns[pc]
                    if fn is None:
                        entry = traces.get(pc)
                        if entry is None:
                            entry = traces[pc] = trace_entry(pc, bind_args)
                        fn = tfns[pc] = entry[0]
                    pc = fn(regs, st)
                    n += st[7]
                    if st[8]:  # trace parked on HALT
                        halted = True
                        break
                    continue
                try:
                    entry = table[pc]
                except IndexError:
                    raise ExecutionError(
                        f"{name}: pc {pc} outside program") from None
                if entry is None:  # mid-block resume: bind a suffix block
                    entry = table[pc] = suffix_entry(pc, bind_args)
                if entry[1] > rem:
                    tail = True  # block exceeds the budget: interpret it
                    break
                pc = entry[0](regs, st)
                n += st[7]
                if st[8]:  # block ended on HALT
                    halted = True
                    break
        except BaseException:
            # mirror the interpreter's error contract: icache state and
            # retirement counters are flushed, pc/cycle/instret are not
            core.ic_last = st[1]
            core.ic_fetches = st[2]
            core.ic_misses = st[3]
            core.n_loads = st[4]
            core.n_stores = st[5]
            core.n_branches = st[6]
            raise
        core.ic_last = st[1]
        core.ic_fetches = st[2]
        core.ic_misses = st[3]
        core.n_loads = st[4]
        core.n_stores = st[5]
        core.n_branches = st[6]
        core.pc = pc
        core.cycle = st[0]
        core.instret += n
        if halted:
            core.halted = True
        regs[0] = 0  # same rim insurance as the interpreter
        if tail:
            done, _ = interp(max_instrs - n)
            n += done
        return (n, core.cycle - cycle0)

    return run_chunk

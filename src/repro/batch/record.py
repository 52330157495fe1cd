"""Recording pass: execute a kernel once, capture its guest stream.

A sweep group shares one *architectural* execution: registers, memory
values, and control flow are a pure function of (program, initial
memory), because every design checkpoints and restores exact state
across outages - geometry, capacitor, and power trace change *when*
things happen, never *what* happens. The recorder therefore runs the
kernel exactly once per (program, cost model) group, block-at-a-time on
record-mode compiled code (:mod:`repro.jit.blocks`), against a
latency-free flat-memory system, and captures:

* the exit-code sequence (which basic blocks ran, in order, with branch
  directions), from which :mod:`repro.batch.stream` reconstructs the
  full retired-instruction stream;
* every memory operation in retirement order (kind, address, value,
  mask) - the replay tier feeds these to each instance's real cache
  design without recomputing any arithmetic;
* the final architectural registers (the only register state a
  :class:`~repro.sim.results.RunResult` exposes).

Recording costs are the group's effective :class:`CycleCosts` with
``ifetch_miss=0``: the threaded cycle counter then accumulates exactly
the *static* per-instruction costs (base + ``mem_issue``), which is what
the replay tier's prefix-sum arrays need - I-cache misses and memory
latencies are per-instance dynamics added back at replay time.

Anything the stream model cannot represent raises
:class:`RecordingBail` and the group falls back to the per-instance slow
path (the interpreter, with memfast when selected): a guest fault (the
slow path must reproduce the exact error state), a runaway kernel that
exhausts the group's instruction budget without halting, or a stream
that would exceed the memory cap.
"""

from __future__ import annotations

import os

from repro.cpu.core import ARCH_REGS, _sdiv, _srem
from repro.cpu.costs import CycleCosts
from repro.errors import ConfigError, ExecutionError
from repro.isa.program import Program
from repro.jit.cache import get_compiled

#: Instructions a recording may run beyond the group's largest
#: ``max_instructions`` before declaring the kernel runaway (one chunk's
#: worth of slack: the serial tiers overshoot the budget by at most one
#: 65536-instruction chunk before ``System.run`` raises).
BUDGET_SLACK = 65_600

#: Hard cap on recorded stream length (instructions), a memory backstop:
#: the prefix-sum arrays cost 16 bytes per instruction. Overridable via
#: ``REPRO_BATCH_STREAM_CAP`` for stress tests.
STREAM_CAP = 8_000_000


def stream_cap() -> int:
    raw = os.environ.get("REPRO_BATCH_STREAM_CAP")
    if raw is None:
        return STREAM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_BATCH_STREAM_CAP must be an integer instruction "
            f"count, got {raw!r}") from None
    if cap < 1:
        raise ConfigError(
            f"REPRO_BATCH_STREAM_CAP must be >= 1, got {cap}")
    return cap


class RecordingBail(Exception):
    """The kernel cannot be recorded; the group takes the slow path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RecordingMemsys:
    """Latency-free flat word memory that logs every operation.

    Mirrors the value semantics of :class:`~repro.mem.nvm.NVMainMemory`
    plus any cache in front of it (caches are value-transparent), with
    zero reported latency so recorded cycle counts stay purely static.
    Operations are logged in retirement order as tuples:
    ``(1, addr)`` load, ``(2, addr, value)`` store,
    ``(3, addr, bits, mask)`` masked store.
    """

    __slots__ = ("words", "ops")

    def __init__(self, program: Program):
        self.words = program.initial_memory()
        self.ops: list[tuple] = []

    def load(self, addr: int, now: int) -> tuple[int, int]:
        self.ops.append((1, addr))
        return (self.words[addr >> 2], 0)

    def store(self, addr: int, value: int, now: int) -> int:
        self.words[addr >> 2] = value
        self.ops.append((2, addr, value))
        return 0

    def store_masked(self, addr: int, bits: int, mask: int,
                     now: int) -> int:
        i = addr >> 2
        self.words[i] = (self.words[i] & ~mask) | bits
        self.ops.append((3, addr, bits, mask))
        return 0


def recording_costs(costs: CycleCosts) -> CycleCosts:
    """The cost model recordings (and their compiled modules) use."""
    from dataclasses import replace
    return replace(costs, ifetch_miss=0)


def record_run(program: Program, costs: CycleCosts,
               budget: int) -> tuple[list[int], int, int, list[int],
                                     list[tuple]]:
    """Execute ``program`` once and return its raw recording.

    Returns ``(exit_codes, n_retired, total_static_cycles, final_regs,
    ops)``. ``costs`` is the group's *effective* cost model (with any
    per-design ``ifetch_extra`` already folded in); ``budget`` the
    largest ``max_instructions`` in the group. Raises
    :class:`RecordingBail` on a guest fault, a runaway kernel, or a
    stream-cap overflow.
    """
    rcosts = recording_costs(costs)
    compiled = get_compiled(program, rcosts)
    mem = RecordingMemsys(program)
    codes: list[int] = []
    bind_args = (mem.load, mem.store, mem.store_masked, _sdiv, _srem,
                 ExecutionError, codes)
    table = compiled.bind(bind_args)
    suffix_entry = compiled.suffix_entry
    nprog = compiled.n

    regs = [0] * (ARCH_REGS + 1)
    st = [0, 0, 0]  # cycle, retired by the last block, halted
    pc = 0
    n = 0
    stop = budget + BUDGET_SLACK
    cap = stream_cap()
    try:
        while True:
            if not 0 <= pc < nprog:
                # the serial tiers raise "pc outside program" here; the
                # slow path must be the one to produce that error state
                raise RecordingBail(
                    f"{program.name}: pc {pc} escapes the program")
            entry = table[pc]
            if entry is None:  # indirect jalr into a non-leader pc
                entry = table[pc] = suffix_entry(pc, bind_args)
            pc = entry[0](regs, st)
            n += st[1]
            if st[2]:
                break
            if n >= stop:
                raise RecordingBail(
                    f"{program.name}: no HALT within the group's "
                    f"instruction budget ({budget})")
            if n > cap:
                raise RecordingBail(
                    f"{program.name}: stream exceeds the "
                    f"{cap}-instruction cap")
    except ExecutionError as exc:
        raise RecordingBail(f"{program.name}: guest fault while "
                            f"recording: {exc}") from exc
    return codes, n, st[0], regs[:ARCH_REGS], mem.ops

"""Differential fuzzing: the batch recorder vs the interpreter.

Hypothesis generates structured random programs through the
:class:`ProgramBuilder` - ALU mixes (including division by zero, whose
semantics are architecturally defined), sub-word loads/stores, nested
conditionals, calls (JAL/JALR), and loops - asserts they are lint-clean,
then records each with :func:`~repro.batch.record.record_run` (record-
mode compiled blocks) and runs it on the interpreter against the same
latency-free :class:`~repro.batch.record.RecordingMemsys` and recording
cost model. Everything a recording hands the stream builder must match
the interpreter: the architectural registers, the retired count, the
static cycle total, the memory-operation log, and the final memory
image. A second strategy injects out-of-bounds loads; the recording
must then bail with the interpreter's exact fault text.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.batch.record import (RecordingBail, RecordingMemsys, record_run,
                                recording_costs)
from repro.cpu.core import InOrderCore
from repro.cpu.costs import CycleCosts
from repro.errors import ExecutionError
from repro.isa.builder import ProgramBuilder
from repro.lint.findings import ERROR
from repro.lint.runner import lint_program

_ARR_WORDS = 32
_MEM_BYTES = 1 << 14
#: the recording budget: far above any generated program's length
_BUDGET = 1_000_000

# (kind, payload) atoms the program body is assembled from
_ALU2 = ("add", "sub", "mul", "mulh", "and", "or", "xor", "sll", "srl",
         "sra", "slt", "sltu", "div", "rem", "divu", "remu")
_ALUI = ("addi", "andi", "ori", "xori", "slli", "srli", "srai")
_CONDS = ("==", "!=", "<", ">=", "<u", ">=u", ">", "<=u")


def _body_atoms(faults: bool):
    atoms = (
        st.tuples(st.just("alu2"), st.sampled_from(_ALU2)),
        st.tuples(st.just("alui"), st.sampled_from(_ALUI),
                  st.integers(0, 31)),
        st.tuples(st.just("li"), st.integers(0, 0xFFFFFFFF)),
        st.tuples(st.just("lw"), st.integers(0, _ARR_WORDS - 1)),
        st.tuples(st.just("sw"), st.integers(0, _ARR_WORDS - 1)),
        st.tuples(st.just("lbu"), st.integers(0, _ARR_WORDS * 4 - 1)),
        st.tuples(st.just("lb"), st.integers(0, _ARR_WORDS * 4 - 1)),
        st.tuples(st.just("lh"), st.integers(0, _ARR_WORDS * 2 - 1)),
        st.tuples(st.just("lhu"), st.integers(0, _ARR_WORDS * 2 - 1)),
        st.tuples(st.just("sb"), st.integers(0, _ARR_WORDS * 4 - 1)),
        st.tuples(st.just("sh"), st.integers(0, _ARR_WORDS * 2 - 1)),
        st.tuples(st.just("if"), st.sampled_from(_CONDS)),
        st.tuples(st.just("call")),
        st.tuples(st.just("nop")),
    )
    if faults:
        # a load past the end of memory (lint flags it, so the faulting
        # strategy skips the lint gate)
        atoms += (st.tuples(st.just("oob")),)
    return st.one_of(*atoms)


@st.composite
def programs(draw, faults: bool = False):
    """A random but structurally well-formed program with a main loop."""
    seed_words = draw(st.lists(st.integers(0, 0xFFFFFFFF),
                               min_size=_ARR_WORDS, max_size=_ARR_WORDS))
    body = draw(st.lists(_body_atoms(faults), min_size=1, max_size=24))
    iters = draw(st.integers(1, 24))

    b = ProgramBuilder("fuzz", mem_bytes=_MEM_BYTES)
    arr = b.data_words(seed_words, "arr")
    acc, x, t, i, p = b.regs("acc", "x", "t", "i", "p")
    b.li(acc, draw(st.integers(0, 0xFFFFFFFF)))
    b.li(x, draw(st.integers(0, 0xFFFFFFFF)))
    b.li(p, arr)

    sub = b.label("sub")
    done = b.label("done")
    with b.for_range(i, 0, iters):
        for atom in body:
            kind = atom[0]
            if kind == "alu2":
                name = {"and": "and_", "or": "or_"}.get(atom[1], atom[1])
                getattr(b, name)(acc, acc, x)
            elif kind == "alui":
                getattr(b, atom[1])(acc, acc, atom[2])
            elif kind == "li":
                b.li(x, atom[1])
            elif kind == "lw":
                b.lw(t, p, atom[1] * 4)
                b.xor(acc, acc, t)
            elif kind == "sw":
                b.sw(acc, p, atom[1] * 4)
            elif kind in ("lb", "lbu"):
                getattr(b, kind)(t, p, atom[1])
                b.add(acc, acc, t)
            elif kind in ("lh", "lhu"):
                getattr(b, kind)(t, p, atom[1] * 2)
                b.add(acc, acc, t)
            elif kind == "sb":
                b.sb(acc, p, atom[1])
            elif kind == "sh":
                b.sh(acc, p, atom[1] * 2)
            elif kind == "if":
                with b.if_(acc, atom[1], x):
                    b.xor(acc, acc, x)
            elif kind == "call":
                b.call(sub)
            elif kind == "nop":
                b.nop()
            elif kind == "oob":
                b.lw(t, p, _MEM_BYTES)
    b.j(done)
    b.bind(sub)
    b.addi(acc, acc, 7)
    b.ret()
    b.bind(done)
    b.sw(acc, p, 0)
    b.halt()
    return b.build()


def _interpret(prog, costs):
    """Run ``prog`` on the interpreter against the recorder's latency-free
    memory and cost model; returns ``(core, memsys, fault text)``."""
    mem = RecordingMemsys(prog)
    core = InOrderCore(prog, mem, recording_costs(costs))
    try:
        core.run_to_halt(_BUDGET)
    except ExecutionError as exc:
        return core, mem, str(exc)
    return core, mem, None


def _replay_ops(prog, ops) -> list[int]:
    """The memory image the recorded operation log leaves behind."""
    words = prog.initial_memory()
    for op in ops:
        i = op[1] >> 2
        if op[0] == 2:
            words[i] = op[2]
        elif op[0] == 3:
            words[i] = (words[i] & ~op[3]) | op[2]
    return words


_SLOW = [HealthCheck.too_slow, HealthCheck.data_too_large]

#: the default costs plus one with every constant distinct, so a cost
#: folded into the wrong slot cannot cancel out
_COSTS = (CycleCosts(), CycleCosts(alu=2, mul=5, div=17, branch=1,
                                   branch_taken_extra=3, mem_issue=7,
                                   ifetch_miss=9, ifetch_extra=4))


@settings(max_examples=60, deadline=None, suppress_health_check=_SLOW)
@given(prog=programs(), costs=st.sampled_from(_COSTS))
def test_record_matches_interpreter(prog, costs):
    assert not any(f.severity == ERROR for f in lint_program(prog))
    core, mem, err = _interpret(prog, costs)
    assert err is None
    codes, n, cycles, regs, ops = record_run(prog, costs, _BUDGET)
    assert codes
    assert regs == core.regs[:32]
    assert n == core.instret
    assert cycles == core.cycle
    assert ops == mem.ops
    assert _replay_ops(prog, ops) == mem.words


@settings(max_examples=30, deadline=None, suppress_health_check=_SLOW)
@given(prog=programs(faults=True))
def test_record_bail_carries_interpreter_fault(prog):
    costs = CycleCosts()
    core, mem, err = _interpret(prog, costs)
    if err is None:  # the fault sat on a path the run never took
        assert record_run(prog, costs, _BUDGET)[1] == core.instret
        return
    with pytest.raises(RecordingBail) as info:
        record_run(prog, costs, _BUDGET)
    assert err in str(info.value)

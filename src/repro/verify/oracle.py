"""Failure-free oracle execution.

Runs a program on a bare functional memory (no cache model, no timing, no
power failures) to produce the ground-truth final memory image and register
file. Any crash-consistent design simulated under any power trace must end
in exactly this state.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.cpu.core import InOrderCore
from repro.isa.program import Program

_U32 = 0xFFFFFFFF


class FunctionalMemory:
    """Zero-latency word memory satisfying the memory-system protocol."""

    name = "Functional"
    volatile_cache = False

    def __init__(self, words: array):
        self.words = words

    def load(self, addr: int, now: int) -> tuple[int, int]:
        return (self.words[addr >> 2], 0)

    def store(self, addr: int, value: int, now: int) -> int:
        self.words[addr >> 2] = value & _U32
        return 0

    def store_masked(self, addr: int, bits: int, mask: int, now: int) -> int:
        widx = addr >> 2
        self.words[widx] = (self.words[widx] & ~mask) | (bits & mask)
        return 0


@dataclass
class OracleResult:
    memory: array
    regs: list[int]
    instructions: int


def run_oracle(program: Program, max_instrs: int = 50_000_000) -> OracleResult:
    """Execute to HALT with no failures; returns the reference final state."""
    mem = FunctionalMemory(program.initial_memory())
    core = InOrderCore(program, mem)
    core.run_to_halt(max_instrs)
    return OracleResult(memory=mem.words, regs=core.arch_regs,
                        instructions=core.instret)

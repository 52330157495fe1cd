"""Crash-consistency checker.

The contract every design must satisfy: a run under any power trace, with
any number of outages, must halt with NVM main memory and architectural
registers identical to the failure-free oracle. Divergence means data was
lost or corrupted across a power failure - the exact bug class WL-Cache's
protocols (§3.2, §5.3) exist to prevent, and the one the deliberately
broken variants in :mod:`repro.verify.faults` exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConsistencyError
from repro.isa.program import Program
from repro.mem.nvm import PackedImage
from repro.sim.results import RunResult, memory_image
from repro.verify.oracle import OracleResult, run_oracle


@dataclass
class Divergence:
    kind: str  # 'memory' or 'register'
    index: int
    expected: int
    actual: int

    def __str__(self) -> str:
        where = (f"word {self.index:#x}" if self.kind == "memory"
                 else f"x{self.index}")
        return (f"{self.kind} divergence at {where}: "
                f"expected {self.expected:#010x}, got {self.actual:#010x}")


@dataclass
class CheckReport:
    ok: bool
    divergences: list[Divergence] = field(default_factory=list)

    def raise_if_bad(self, context: str = "") -> None:
        if not self.ok:
            head = "; ".join(str(d) for d in self.divergences[:5])
            more = (f" (+{len(self.divergences) - 5} more)"
                    if len(self.divergences) > 5 else "")
            raise ConsistencyError(f"{context}: {head}{more}")


def compare_states(result: RunResult, oracle: OracleResult,
                   max_report: int = 64) -> CheckReport:
    """Compare a run's final NVM/registers against the oracle."""
    divs: list[Divergence] = []
    mem = memory_image(result)
    if mem is None:
        raise ConsistencyError("run result carries no final memory image")
    if len(mem) != len(oracle.memory):
        raise ConsistencyError(
            f"memory size mismatch: {len(mem)} vs {len(oracle.memory)}")
    # the whole-image compare runs at C speed (a packed image without
    # building its list); only a mismatch pays for the word-by-word scan
    # that reports where
    if type(mem) is PackedImage:
        same = mem.matches(oracle.memory)
    else:
        same = mem == oracle.memory.tolist()
    if not same:
        for i, (got, want) in enumerate(zip(mem, oracle.memory)):
            if got != want:
                divs.append(Divergence("memory", i * 4, want, got))
                if len(divs) >= max_report:
                    break
    # x0..x31; x0 always 0
    for i, (got, want) in enumerate(zip(result.final_regs, oracle.regs)):
        if got != want:
            divs.append(Divergence("register", i, want, got))
    return CheckReport(ok=not divs, divergences=divs)


def check_crash_consistency(program: Program, result: RunResult) -> None:
    """End-to-end check; raises :class:`ConsistencyError` on divergence."""
    if not result.halted:
        raise ConsistencyError(f"{program.name}: run did not halt")
    oracle = run_oracle(program)
    compare_states(result, oracle).raise_if_bad(
        f"{program.name} on {result.design}/{result.trace}")

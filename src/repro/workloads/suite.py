"""Workload registry plumbing.

Each benchmark module exports ``build(scale: float = 1.0) -> Program``. The
returned program carries ``meta["checks"]`` - a list of ``(byte_addr,
expected_words)`` computed from a host-Python reference implementation - so
any simulation's final NVM image can be validated for algorithmic
correctness, and ``meta["suite"]`` naming its benchmark suite.

Workload sizes are chosen so a default run retires on the order of 1e5
dynamic instructions: large enough to exercise tens of power outages under
the RF traces, small enough that the full 23-app x 5-design sweeps finish
in minutes on one core.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.errors import ConsistencyError
from repro.isa.program import Program


@dataclass
class Workload:
    """A named benchmark: lazy module import + cached builds per scale."""

    name: str
    suite: str
    module: str
    func: str = "build"
    _cache: dict[float, Program] = field(default_factory=dict, repr=False)

    def build(self, scale: float = 1.0) -> Program:
        """Assemble the kernel at the given size scale (cached)."""
        if scale not in self._cache:
            mod = importlib.import_module(self.module)
            prog = getattr(mod, self.func)(scale)
            prog.meta.setdefault("suite", self.suite)
            prog.meta["workload"] = self.name
            self._cache[scale] = prog
        return self._cache[scale]


def verify_checks(program: Program, memory_words) -> None:
    """Validate a final memory image against the program's embedded checks.

    ``memory_words`` is any word-indexable image: a list, an
    ``array('I')``, or a run's packed image.

    Raises :class:`ConsistencyError` on the first mismatch; silent success
    otherwise.
    """
    checks = program.meta.get("checks", [])
    if not checks:
        raise ConsistencyError(
            f"{program.name}: no embedded checks - refusing vacuous pass")
    for base_addr, expected in checks:
        for i, want in enumerate(expected):
            got = memory_words[(base_addr >> 2) + i]
            if got != want & 0xFFFFFFFF:
                raise ConsistencyError(
                    f"{program.name}: word at {base_addr + 4 * i:#x} is "
                    f"{got:#010x}, expected {want & 0xFFFFFFFF:#010x}")

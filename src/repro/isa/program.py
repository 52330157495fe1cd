"""Program container: instructions, labels, and the initial data image.

A :class:`Program` is the unit handed to the simulator. Instruction memory is
separate from data memory (Harvard-style, like the paper's MCU targets with
separate I/D L1 caches); instruction fetches are modeled through the I-cache
timing path but instructions themselves live in this container.

Data memory is word-addressed internally; the initial image is a dict of
``word_index -> 32-bit value`` applied on top of zero-filled NVM, and
materialized as a packed ``array('I')``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.isa import opcodes as oc
from repro.isa.instructions import Instr, format_of

#: Default base byte address for static data placed by the builder.
DATA_BASE = 0x1000

#: Default data-memory size in bytes (must be a power of two).
DEFAULT_MEM_BYTES = 1 << 20


@dataclass
class Program:
    """An assembled guest program.

    Attributes:
        name: Human-readable program name (used in reports).
        instructions: Resolved instruction tuples; branch/jump targets are
            instruction indices.
        data: Initial data image, ``{word_index: value}``.
        labels: Code labels, ``{name: instruction_index}``.
        symbols: Data symbols, ``{name: byte_address}``.
        mem_bytes: Size of the data address space.
        meta: Free-form metadata (e.g. expected outputs for verification).
    """

    name: str = "program"
    instructions: list[Instr] = field(default_factory=list)
    data: dict[int, int] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    mem_bytes: int = DEFAULT_MEM_BYTES
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`AssemblyError` if broken.

        Ensures every branch/jump target is a valid instruction index, every
        initial data word fits the address space and 32 bits, and the program
        ends in a reachable HALT (at least one HALT present).
        """
        n = len(self.instructions)
        if n == 0:
            raise AssemblyError(f"{self.name}: empty program")
        has_halt = False
        for idx, ins in enumerate(self.instructions):
            op = ins[0]
            fmt = format_of(op)
            if fmt == "B" and not 0 <= ins[3] < n:
                raise AssemblyError(
                    f"{self.name}@{idx}: branch target {ins[3]} out of range"
                )
            if fmt == "J" and not 0 <= ins[2] < n:
                raise AssemblyError(
                    f"{self.name}@{idx}: jump target {ins[2]} out of range"
                )
            if op == oc.HALT:
                has_halt = True
        if not has_halt:
            raise AssemblyError(f"{self.name}: program has no HALT")
        max_word = self.mem_bytes // 4
        for widx, val in self.data.items():
            if not 0 <= widx < max_word:
                raise AssemblyError(
                    f"{self.name}: data word index {widx} outside memory"
                )
            if not 0 <= val < (1 << 32):
                raise AssemblyError(
                    f"{self.name}: data value {val:#x} not a u32 at word {widx}"
                )

    def initial_memory(self) -> array:
        """Materialize the zero-filled ``array('I')`` image with the data
        words applied."""
        words = array("I", [0]) * (self.mem_bytes // 4)
        for widx, val in self.data.items():
            words[widx] = val
        return words

    @property
    def size(self) -> int:
        return len(self.instructions)

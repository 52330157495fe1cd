"""Non-volatile main memory (ReRAM) model.

Holds the persistent word array (the ground truth the crash-consistency
checker inspects), and charges the Table-2 ReRAM latencies and per-access
energies. Latency is folded into two effective numbers - ``read_ns`` and
``write_ns`` per word access, and per-line burst costs for cache refills -
derived from the paper's tCK/tBURST/tRCD/tCL/tWR parameters.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, repeat

from repro.errors import ConfigError

_U32 = 0xFFFFFFFF


class PackedImage:
    """A final memory image held packed: the words below ``top`` as an
    ``array('I')`` plus the full word count; every word from ``top`` up is
    zero.

    Indexing and iteration read through to the implied zero tail, which
    is all :func:`repro.workloads.suite.verify_checks` and the checker
    need; a caller that wants the plain list pays for it with
    :meth:`tolist`.
    """

    __slots__ = ("words", "size")

    def __init__(self, words: array, size: int):
        self.words = words
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError("memory image index out of range")
        return self.words[index] if index < len(self.words) else 0

    def __iter__(self):
        return chain(self.words, repeat(0, self.size - len(self.words)))

    def matches(self, full: array) -> bool:
        """True when ``full``, an ``array('I')`` of the same length, holds
        the same image; compares at C speed."""
        top = len(self.words)
        return (memoryview(self.words) == memoryview(full)[:top]
                and full[top:] == array("I", [0]) * (self.size - top))

    def tolist(self) -> list[int]:
        """The full image as a list allocated at its exact length."""
        out = [0] * self.size
        out[:len(self.words)] = self.words
        return out


@dataclass(frozen=True)
class NVMTimings:
    """Effective NVM access costs in core cycles (1 cycle = 1 ns at 1 GHz).

    Derived from Table 2 (tRCD=18, tCL=15, tBURST=7.5, tWR=150 ns):
    a word read pays activation+CAS (~33 ns rounded), a word write pays the
    write-recovery-dominated cost (~150 ns by default scaled down to keep
    Python-scale runs tractable - the read:write ratio is what matters),
    and line transfers add per-word burst beats.
    """

    read_word: int = 30
    write_word: int = 30
    burst_word: int = 3  # extra per additional word in a line transfer
    read_energy_nj: float = 1.2
    write_energy_nj: float = 4.0
    #: Per-word energy of a burst (line) transfer relative to a random
    #: word access - the activation cost amortizes across the burst.
    burst_energy_factor: float = 0.35

    def __post_init__(self) -> None:
        if min(self.read_word, self.write_word, self.burst_word) < 0:
            raise ConfigError("NVM timings must be >= 0")
        if min(self.read_energy_nj, self.write_energy_nj) < 0:
            raise ConfigError("NVM energies must be >= 0")

    def line_read(self, words: int) -> int:
        """Cycles to read a ``words``-word line (one activation + burst)."""
        return self.read_word + self.burst_word * (words - 1)

    def line_write(self, words: int) -> int:
        """Cycles to write a ``words``-word line."""
        return self.write_word + self.burst_word * (words - 1)


class NVMainMemory:
    """Word-addressable persistent memory with access accounting.

    All cache designs share one instance per simulation; its ``words``
    array is the state that must match the failure-free oracle at the end
    of a crashy run. ``top`` is one past the highest word that can be
    nonzero: it starts at the program's data extent (default: the whole
    image) and every write raises it, so :meth:`image` trims the zero tail
    without a scan.
    """

    def __init__(self, words: array, timings: NVMTimings | None = None,
                 top: int | None = None):
        self.words = words
        self.top = len(words) if top is None else top
        self.timings = timings or NVMTimings()
        self.reads = 0  # word-read accesses
        self.writes = 0  # word-write accesses (write traffic)
        self.energy_read_nj = 0.0
        self.energy_write_nj = 0.0

    @classmethod
    def for_program(cls, program, timings: NVMTimings | None = None
                    ) -> "NVMainMemory":
        """A fresh memory holding ``program``'s initial image, with ``top``
        at one past its highest data word."""
        return cls(program.initial_memory(), timings,
                   max(program.data, default=-1) + 1)

    # -- word granularity ------------------------------------------------
    def read_word(self, addr: int) -> tuple[int, int]:
        """Read the u32 at byte address ``addr``; returns (value, cycles)."""
        self.reads += 1
        self.energy_read_nj += self.timings.read_energy_nj
        return (self.words[addr >> 2], self.timings.read_word)

    def write_word(self, addr: int, value: int) -> int:
        """Write a u32; returns cycles."""
        widx = addr >> 2
        self.words[widx] = value & _U32
        if widx >= self.top:
            self.top = widx + 1
        self.writes += 1
        self.energy_write_nj += self.timings.write_energy_nj
        return self.timings.write_word

    def write_word_masked(self, addr: int, bits: int, mask: int) -> int:
        widx = addr >> 2
        self.words[widx] = (self.words[widx] & ~mask) | (bits & mask)
        if widx >= self.top:
            self.top = widx + 1
        self.writes += 1
        self.energy_write_nj += self.timings.write_energy_nj
        return self.timings.write_word

    # -- line granularity (cache refills / write-backs) -------------------
    def read_line(self, addr: int, nwords: int) -> tuple[list[int], int]:
        """Read an aligned line; returns (words, cycles)."""
        widx = addr >> 2
        self.reads += nwords
        self.energy_read_nj += (self.timings.read_energy_nj * nwords
                                * self.timings.burst_energy_factor)
        return (self.words[widx:widx + nwords], self.timings.line_read(nwords))

    def write_line(self, addr: int, data: list[int]) -> int:
        """Write an aligned line; returns cycles."""
        widx = addr >> 2
        end = widx + len(data)
        self.words[widx:end] = array("I", data)
        if end > self.top:
            self.top = end
        self.writes += len(data)
        self.energy_write_nj += (self.timings.write_energy_nj * len(data)
                                 * self.timings.burst_energy_factor)
        return self.timings.line_write(len(data))

    def image(self) -> PackedImage:
        """A packed copy of the current contents, trimmed at ``top``."""
        return PackedImage(self.words[:self.top], len(self.words))

    # ---------------------------------------------------------------------
    @property
    def total_energy_nj(self) -> float:
        return self.energy_read_nj + self.energy_write_nj

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.energy_read_nj = 0.0
        self.energy_write_nj = 0.0

"""Value-accurate in-order interpreter for the repro ISA.

The core executes the guest program instruction by instruction, charging
cycle costs from :class:`~repro.cpu.costs.CycleCosts` plus whatever latency
the attached memory system reports for loads/stores. It is *value accurate*:
register and memory contents are bit-exact 32-bit results, which the
crash-consistency checker relies on.

The dispatch loop is deliberately a flat ``if/elif`` chain over opcode ints
with locals hoisted out of the loop - the fastest structure available to
pure Python, and this loop dominates simulator runtime. Three further
optimizations keep it hot:

* Programs are **pre-decoded** into dispatch tuples ``(op, a, b, c, line,
  cost)``: the I-cache line index and the instruction's class cycle cost
  (ALU/MUL/DIV/branch, plus the per-fetch ``ifetch_extra``) are computed
  once per (program, costs) pair and cached on ``program.meta``, so the
  loop charges one pre-folded constant instead of re-deriving costs per
  instruction. Memory ops carry only the fetch cost - ``mem_issue`` is
  charged at the call site so the ``now`` passed to the memory system is
  identical to the undecoded interpreter's.
* Writes to ``x0`` are redirected at decode time to a **sink slot**
  (``regs[32]``), removing the per-instruction ``regs[0] = 0`` enforcement
  store; ``regs[0]`` is simply never written.
* Retirement counters (``n_loads``/``n_stores``/``n_branches``, I-cache
  fetch/miss) live in locals for the duration of a chunk and are written
  back once on exit.
"""

from __future__ import annotations

from repro.cpu.costs import CycleCosts
from repro.errors import ExecutionError
from repro.isa import opcodes as oc
from repro.isa.program import Program

_U32 = 0xFFFFFFFF
_SIGN = 0x80000000
_MOD = 1 << 32

# I-cache geometry: 16 instructions per line. With an 8 KB I-cache of 64 B
# lines this corresponds to tracking line residency by index.
_ILINE_SHIFT = 4

#: Architectural register count; ``regs[ARCH_REGS]`` is the x0-write sink.
ARCH_REGS = 32
_SINK = ARCH_REGS

#: Opcodes whose ``a`` field is a destination register (eligible for the
#: x0 -> sink rewrite). For stores and branches ``a`` is a *source* and
#: must be left untouched.
_DEST_A_OPS = (oc.R_FORMAT | oc.I_FORMAT | oc.LI_FORMAT | oc.LOAD_FORMAT
               | oc.J_FORMAT | oc.JR_FORMAT)

_DECODE_CACHE_KEY = "_decoded_by_costs"
_CONTENT_KEY = "_content_key"

#: Process-global decode cache: (program content key, costs) -> dispatch
#: tuples. The per-``meta`` cache below only helps while the same Program
#: *instance* is reused; sweep pool workers and tests rebuild programs, and
#: this content-keyed level makes those rebuilt twins decode once per
#: process too. Bounded by distinct (kernel, cost model) pairs; the cap is
#: a backstop for program-fuzzing tests.
_DECODE_SHARED: dict[tuple, list] = {}
_DECODE_SHARED_CAP = 1024
_DECODE_STATS = {"evictions": 0}


def decode_cache_stats() -> dict:
    """Shared decode cache counters (the unified cache report)."""
    return {"entries": len(_DECODE_SHARED), **_DECODE_STATS}


def program_content_key(program: Program) -> tuple:
    """Hashable identity of a program's executable content (name included:
    it is baked into execution-fault messages), cached on ``meta``."""
    key = program.meta.get(_CONTENT_KEY)
    if key is None:
        key = (program.name, program.mem_bytes, tuple(program.instructions))
        program.meta[_CONTENT_KEY] = key
    return key

# Internal dispatch codes, dense and ordered by measured dynamic frequency
# across the 23-workload suite (hot ops get the earliest ``if/elif`` arms,
# which are compared against int literals - no global/attribute loads in
# the dispatch chain). The run_chunk dispatch below MUST match this order.
_INTERNAL = {
    oc.ADD: 0, oc.ADDI: 1, oc.LW: 2, oc.SLLI: 3, oc.BGE: 4, oc.LI: 5,
    oc.JAL: 6, oc.SUB: 7, oc.MUL: 8, oc.SRLI: 9, oc.LBU: 10, oc.SW: 11,
    oc.ANDI: 12, oc.XOR: 13, oc.SRAI: 14, oc.BEQ: 15, oc.OR: 16,
    oc.BLT: 17, oc.SB: 18, oc.SLT: 19, oc.MULH: 20, oc.SLTU: 21,
    oc.BGEU: 22, oc.LH: 23, oc.LHU: 24, oc.BLTU: 25, oc.BNE: 26,
    oc.SRL: 27, oc.ORI: 28, oc.AND: 29, oc.DIV: 30, oc.JALR: 31,
    oc.LB: 32, oc.SH: 33, oc.XORI: 34, oc.SLL: 35, oc.SRA: 36,
    oc.SLTI: 37, oc.SLTIU: 38, oc.REM: 39, oc.DIVU: 40, oc.REMU: 41,
    oc.NOP: 42, oc.HALT: 43,
}
assert len(_INTERNAL) == oc.NUM_OPCODES


def _base_cost_table(costs: CycleCosts) -> list[int]:
    """Per-opcode cycle cost charged before dispatch, ``ifetch_extra``
    folded in. Memory ops carry only the fetch cost (see module docs)."""
    table = [costs.alu + costs.ifetch_extra] * oc.NUM_OPCODES
    for op in (oc.MUL, oc.MULH):
        table[op] = costs.mul + costs.ifetch_extra
    for op in (oc.DIV, oc.REM, oc.DIVU, oc.REMU):
        table[op] = costs.div + costs.ifetch_extra
    for op in oc.B_FORMAT:
        table[op] = costs.branch + costs.ifetch_extra
    for op in (oc.JAL, oc.JALR):
        table[op] = (costs.branch + costs.branch_taken_extra
                     + costs.ifetch_extra)
    for op in oc.MEMORY_OPS:
        table[op] = costs.ifetch_extra
    return table


def predecode(program: Program, costs: CycleCosts) -> list[tuple]:
    """Pre-decode ``program`` into ``(code, a, b, c, line, cost)`` tuples.

    ``code`` is the internal frequency-ordered dispatch code (see
    ``_INTERNAL``), ``line`` the I-cache line index of the instruction, and
    ``cost`` its pre-folded base cycle cost. The decode is cached at two
    levels, keyed by the (hashable, frozen) ``costs``: on ``program.meta``
    for instance reuse, and in the process-global content-keyed
    ``_DECODE_SHARED`` so rebuilt copies of the same kernel (sweep pool
    workers, per-test builds) decode once per process per cost model.
    """
    cache = program.meta.setdefault(_DECODE_CACHE_KEY, {})
    code = cache.get(costs)
    if code is None:
        shared_key = (program_content_key(program), costs)
        code = _DECODE_SHARED.get(shared_key)
        if code is None:
            table = _base_cost_table(costs)
            internal = _INTERNAL
            code = []
            for idx, (op, a, b, c) in enumerate(program.instructions):
                if a == 0 and op in _DEST_A_OPS:
                    a = _SINK
                code.append((internal[op], a, b, c,
                             idx >> _ILINE_SHIFT, table[op]))
            while len(_DECODE_SHARED) >= _DECODE_SHARED_CAP:
                # evict the oldest entry instead of dumping the whole
                # cache: fuzzing churn must not cold-start sweep kernels
                _DECODE_SHARED.pop(next(iter(_DECODE_SHARED)))
                _DECODE_STATS["evictions"] += 1
            _DECODE_SHARED[shared_key] = code
        cache[costs] = code
    return code


def _sdiv(a: int, b: int) -> int:
    """RISC-V signed division semantics on u32 operands."""
    if b == 0:
        return _U32
    sa = a - _MOD if a & _SIGN else a
    sb = b - _MOD if b & _SIGN else b
    if sa == -(1 << 31) and sb == -1:
        return _SIGN
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & _U32


def _srem(a: int, b: int) -> int:
    """RISC-V signed remainder semantics on u32 operands."""
    if b == 0:
        return a
    sa = a - _MOD if a & _SIGN else a
    sb = b - _MOD if b & _SIGN else b
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & _U32


class InOrderCore:
    """Single-issue in-order core bound to a program and a memory system.

    The memory system must provide::

        load(addr, now) -> (u32 value, cycles)
        store(addr, u32 value, now) -> cycles
        store_masked(addr, bits, mask, now) -> cycles

    where ``addr`` is a word-aligned byte address and ``now`` is the core's
    absolute cycle counter (used to retire asynchronous write-backs).

    ``self.regs`` holds 33 slots: x0..x31 plus the decode-time sink for
    writes to x0 (``regs[0]`` itself is never written and stays 0).
    """

    def __init__(self, program: Program, memsys, costs: CycleCosts | None = None):
        self.program = program
        self.memsys = memsys
        self.costs = costs or CycleCosts()
        self.regs: list[int] = [0] * (ARCH_REGS + 1)
        self.pc = 0
        self.cycle = 0
        self.instret = 0
        self.halted = False
        self.mem_bytes = program.mem_bytes
        self._code = predecode(program, self.costs)
        # I-cache residency (line index set); volatile unless the design
        # says otherwise - the simulator flushes it on power failure.
        self.ic_lines: set[int] = set()
        self.ic_last = -1
        self.ic_fetches = 0
        self.ic_misses = 0
        # per-class retirement counters (for reports)
        self.n_loads = 0
        self.n_stores = 0
        self.n_branches = 0

    # ------------------------------------------------------------------
    @property
    def arch_regs(self) -> list[int]:
        """The 32 architectural registers (without the decode sink)."""
        return self.regs[:ARCH_REGS]

    def snapshot_arch_state(self) -> tuple[list[int], int]:
        """Capture (registers, pc) for JIT checkpointing."""
        return (self.regs[:ARCH_REGS], self.pc)

    def restore_arch_state(self, state: tuple[list[int], int]) -> None:
        regs, pc = state
        r = list(regs[:ARCH_REGS])
        r.extend([0] * (ARCH_REGS + 1 - len(r)))
        self.regs = r
        self.pc = pc

    def flush_icache(self) -> None:
        self.ic_lines.clear()
        self.ic_last = -1

    # ------------------------------------------------------------------
    def run_chunk(self, max_instrs: int) -> tuple[int, int]:
        """Execute up to ``max_instrs`` instructions; returns (retired, cycles).

        Stops early on HALT. Raises :class:`ExecutionError` on illegal
        accesses so guest bugs never masquerade as results.
        """
        if self.halted:
            return (0, 0)
        code = self._code
        regs = self.regs
        mem = self.memsys
        costs = self.costs
        c_brx = costs.branch_taken_extra
        c_mem = costs.mem_issue
        c_imiss = costs.ifetch_miss
        ic_lines = self.ic_lines
        ic_last = self.ic_last
        ic_fetches = self.ic_fetches
        ic_misses = self.ic_misses
        n_loads = self.n_loads
        n_stores = self.n_stores
        n_branches = self.n_branches
        mem_bytes = self.mem_bytes
        load = mem.load
        store = mem.store
        store_masked = mem.store_masked

        pc = self.pc
        cycle = self.cycle
        n = 0
        nprog = len(code)

        try:
            while n < max_instrs:
                # No explicit pc bounds check: pc is never negative (branch
                # targets are validated, JALR targets are masked to u32), so
                # a runaway pc surfaces as IndexError on the fetch below and
                # is converted to ExecutionError by the handler at the end.
                op, a, b, c, line, cost = code[pc]
                n += 1
                # --- instruction fetch ---
                if line != ic_last:
                    ic_last = line
                    ic_fetches += 1
                    if line not in ic_lines:
                        ic_lines.add(line)
                        ic_misses += 1
                        cycle += c_imiss
                cycle += cost
                pc += 1

                # --- execute ---
                # Dispatch codes are int literals in measured dynamic
                # frequency order (see ``_INTERNAL`` - the mapping and this
                # chain must stay in sync).
                if op == 0:  # ADD
                    regs[a] = (regs[b] + regs[c]) & _U32
                elif op == 1:  # ADDI
                    regs[a] = (regs[b] + c) & _U32
                elif op == 2:  # LW
                    addr = (regs[b] + c) & _U32
                    if addr & 3 or addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad lw addr {addr:#x}")
                    val, lat = load(addr, cycle)
                    regs[a] = val
                    cycle += c_mem + lat
                    n_loads += 1
                elif op == 3:  # SLLI
                    regs[a] = (regs[b] << c) & _U32
                elif op == 4:  # BGE
                    x = regs[a]
                    y = regs[b]
                    if (x - _MOD if x & _SIGN else x) >= (y - _MOD if y & _SIGN else y):
                        pc = c
                        cycle += c_brx
                    n_branches += 1
                elif op == 5:  # LI
                    regs[a] = b
                elif op == 6:  # JAL
                    regs[a] = pc  # link: next instruction index
                    pc = b
                elif op == 7:  # SUB
                    regs[a] = (regs[b] - regs[c]) & _U32
                elif op == 8:  # MUL
                    regs[a] = (regs[b] * regs[c]) & _U32
                elif op == 9:  # SRLI
                    regs[a] = regs[b] >> c
                elif op == 10:  # LBU
                    addr = (regs[b] + c) & _U32
                    if addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad lb addr {addr:#x}")
                    val, lat = load(addr & ~3, cycle)
                    regs[a] = (val >> ((addr & 3) * 8)) & 0xFF
                    cycle += c_mem + lat
                    n_loads += 1
                elif op == 11:  # SW
                    addr = (regs[b] + c) & _U32
                    if addr & 3 or addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad sw addr {addr:#x}")
                    cycle += c_mem + store(addr, regs[a], cycle)
                    n_stores += 1
                elif op == 12:  # ANDI
                    regs[a] = regs[b] & c
                elif op == 13:  # XOR
                    regs[a] = regs[b] ^ regs[c]
                elif op == 14:  # SRAI
                    x = regs[b]
                    if x & _SIGN:
                        x -= _MOD
                    regs[a] = (x >> c) & _U32
                elif op == 15:  # BEQ
                    if regs[a] == regs[b]:
                        pc = c
                        cycle += c_brx
                    n_branches += 1
                elif op == 16:  # OR
                    regs[a] = regs[b] | regs[c]
                elif op == 17:  # BLT
                    x = regs[a]
                    y = regs[b]
                    if (x - _MOD if x & _SIGN else x) < (y - _MOD if y & _SIGN else y):
                        pc = c
                        cycle += c_brx
                    n_branches += 1
                elif op == 18:  # SB
                    addr = (regs[b] + c) & _U32
                    if addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad sb addr {addr:#x}")
                    sh = (addr & 3) * 8
                    cycle += c_mem + store_masked(
                        addr & ~3, (regs[a] & 0xFF) << sh, 0xFF << sh, cycle)
                    n_stores += 1
                elif op == 19:  # SLT
                    x = regs[b]
                    y = regs[c]
                    regs[a] = 1 if (x - _MOD if x & _SIGN else x) < (
                        y - _MOD if y & _SIGN else y) else 0
                elif op == 20:  # MULH
                    x = regs[b]
                    y = regs[c]
                    if x & _SIGN:
                        x -= _MOD
                    if y & _SIGN:
                        y -= _MOD
                    regs[a] = ((x * y) >> 32) & _U32
                elif op == 21:  # SLTU
                    regs[a] = 1 if regs[b] < regs[c] else 0
                elif op == 22:  # BGEU
                    if regs[a] >= regs[b]:
                        pc = c
                        cycle += c_brx
                    n_branches += 1
                elif op == 23 or op == 24:  # LH / LHU
                    addr = (regs[b] + c) & _U32
                    if addr & 1 or addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad lh addr {addr:#x}")
                    val, lat = load(addr & ~3, cycle)
                    half = (val >> ((addr & 2) * 8)) & 0xFFFF
                    if op == 23 and half & 0x8000:
                        half |= 0xFFFF0000
                    regs[a] = half
                    cycle += c_mem + lat
                    n_loads += 1
                elif op == 25:  # BLTU
                    if regs[a] < regs[b]:
                        pc = c
                        cycle += c_brx
                    n_branches += 1
                elif op == 26:  # BNE
                    if regs[a] != regs[b]:
                        pc = c
                        cycle += c_brx
                    n_branches += 1
                elif op == 27:  # SRL
                    regs[a] = regs[b] >> (regs[c] & 31)
                elif op == 28:  # ORI
                    regs[a] = regs[b] | c
                elif op == 29:  # AND
                    regs[a] = regs[b] & regs[c]
                elif op == 30:  # DIV
                    regs[a] = _sdiv(regs[b], regs[c])
                elif op == 31:  # JALR
                    target = (regs[b] + c) & _U32
                    regs[a] = pc
                    pc = target
                elif op == 32:  # LB
                    addr = (regs[b] + c) & _U32
                    if addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad lb addr {addr:#x}")
                    val, lat = load(addr & ~3, cycle)
                    byte = (val >> ((addr & 3) * 8)) & 0xFF
                    if byte & 0x80:
                        byte |= 0xFFFFFF00
                    regs[a] = byte
                    cycle += c_mem + lat
                    n_loads += 1
                elif op == 33:  # SH
                    addr = (regs[b] + c) & _U32
                    if addr & 1 or addr >= mem_bytes:
                        raise ExecutionError(
                            f"{self.program.name}@{pc - 1}: bad sh addr {addr:#x}")
                    sh = (addr & 2) * 8
                    cycle += c_mem + store_masked(
                        addr & ~3, (regs[a] & 0xFFFF) << sh, 0xFFFF << sh, cycle)
                    n_stores += 1
                elif op == 34:  # XORI
                    regs[a] = regs[b] ^ c
                elif op == 35:  # SLL
                    regs[a] = (regs[b] << (regs[c] & 31)) & _U32
                elif op == 36:  # SRA
                    x = regs[b]
                    if x & _SIGN:
                        x -= _MOD
                    regs[a] = (x >> (regs[c] & 31)) & _U32
                elif op == 37:  # SLTI
                    x = regs[b]
                    regs[a] = 1 if (x - _MOD if x & _SIGN else x) < c else 0
                elif op == 38:  # SLTIU
                    regs[a] = 1 if regs[b] < (c & _U32) else 0
                elif op == 39:  # REM
                    regs[a] = _srem(regs[b], regs[c])
                elif op == 40:  # DIVU
                    regs[a] = _U32 if regs[c] == 0 else regs[b] // regs[c]
                elif op == 41:  # REMU
                    regs[a] = regs[b] if regs[c] == 0 else regs[b] % regs[c]
                elif op == 42:  # NOP
                    pass
                elif op == 43:  # HALT
                    self.halted = True
                    pc -= 1  # stay on the HALT
                    break
                else:  # pragma: no cover - opcode table is exhaustive
                    raise ExecutionError(f"illegal opcode {op} at {pc - 1}")
        except IndexError:
            if pc >= nprog:
                raise ExecutionError(
                    f"{self.program.name}: pc {pc} outside program") from None
            raise
        finally:
            self.ic_last = ic_last
            self.ic_fetches = ic_fetches
            self.ic_misses = ic_misses
            self.n_loads = n_loads
            self.n_stores = n_stores
            self.n_branches = n_branches

        regs[0] = 0  # invariant (never written; cheap insurance at the rim)
        dcycles = cycle - self.cycle
        self.pc = pc
        self.cycle = cycle
        self.instret += n
        return (n, dcycles)

    # ------------------------------------------------------------------
    def run_to_halt(self, max_instrs: int = 50_000_000) -> int:
        """Run until HALT (no power failures); returns retired instructions.

        The final chunk is clamped to the remaining budget, so no more
        than ``max_instrs`` instructions ever execute; exhausting the
        budget without halting raises :class:`ExecutionError`.
        """
        total = 0
        while not self.halted:
            if total >= max_instrs:
                raise ExecutionError(
                    f"{self.program.name}: exceeded {max_instrs} instructions")
            done, _ = self.run_chunk(min(65536, max_instrs - total))
            total += done
        return total

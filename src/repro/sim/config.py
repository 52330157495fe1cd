"""Simulation configuration (the code form of the paper's Table 2).

One :class:`SimConfig` fully determines a run: core costs, cache geometry
and per-design array parameters, NVM timings, capacitor, energy model, and
the WL-Cache/DirtyQueue settings. ``SimConfig()`` is the paper's default
configuration: 1 GHz in-order core, 8 KB 2-way 64 B-line L1 D-cache, ReRAM
NVM, 1 uF capacitor with Vmin 2.8 V / Vmax 3.5 V, DirtyQueue of 8 with
maxline 6 / waterline 5, FIFO DirtyQueue cleaning, LRU cache replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.caches.params import CacheParams
from repro.cpu.costs import CycleCosts
from repro.energy.model import EnergyModel
from repro.errors import ConfigError
from repro.mem.nvm import NVMTimings
from repro.mem.setassoc import CacheGeometry

#: Design names accepted by the factory, in the paper's plotting order.
DESIGNS = (
    "NVCache-WB",
    "VCache-WT",
    "ReplayCache",
    "NVSRAM(ideal)",
    "WL-Cache",
)

#: The paper's baseline for every normalized figure.
BASELINE_DESIGN = "NVSRAM(ideal)"


def sram_cache_params() -> CacheParams:
    """SRAM L1 array: 0.3 ns hits (1 cycle), low energy, low leakage.

    ``ckpt_line_energy_nj`` prices NVSRAM's SRAM-to-shadow line copy; at
    6.5 nJ x 128 lines the full-cache reserve lands at ~1.0 uJ, i.e. a
    Vbackup of ~3.15 V on the 1 uF capacitor - the paper's Table 2 setting
    (NVSRAM backs up at the highest voltage of all designs).
    """
    return CacheParams(
        hit_read_cycles=1,
        hit_write_cycles=1,
        read_energy_nj=0.040,
        write_energy_nj=0.050,
        lru_extra_energy_nj=0.020,
        leakage_w=0.060,
        ckpt_line_cycles=6,
        ckpt_line_energy_nj=6.5,
        restore_line_cycles=6,
        restore_line_energy_nj=0.5,
    )


def nv_cache_params() -> CacheParams:
    """Non-volatile (FRAM/ReRAM-class) L1 array: slow hits, hungry writes,
    and several times the SRAM leakage (the §6.2 comparison point)."""
    return CacheParams(
        hit_read_cycles=4,
        hit_write_cycles=7,
        read_energy_nj=0.30,
        write_energy_nj=0.80,
        lru_extra_energy_nj=0.020,
        leakage_w=0.40,
        ckpt_line_cycles=0,
        ckpt_line_energy_nj=0.0,
        restore_line_cycles=0,
    )


@dataclass(frozen=True)
class SimConfig:
    """Everything Table 2 specifies, plus the scaled-energy knobs."""

    # core
    costs: CycleCosts = field(default_factory=CycleCosts)
    nvcache_ifetch_extra: int = 2  # slow NV I-cache fetch for NVCache-WB

    # memory hierarchy
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    cache_replacement: str = "lru"  # paper default (§6.1)
    nvm: NVMTimings = field(default_factory=NVMTimings)
    sram_params: CacheParams = field(default_factory=sram_cache_params)
    nvcache_params: CacheParams = field(default_factory=nv_cache_params)

    # WL-Cache / DirtyQueue (§6.1 defaults)
    dq_capacity: int = 8
    maxline: int = 6
    waterline: int | None = None  # None -> maxline - 1
    dq_policy: str = "fifo"
    adaptive: bool = True
    dynamic: bool = False

    # energy substrate
    capacitance_f: float = 1.0e-6
    v_max: float = 3.5
    v_min: float = 2.8
    #: Von = min(v_max, Vbackup + von_headroom): a design may reboot once
    #: it holds this much voltage headroom over its own backup threshold,
    #: so small-reserve designs boot earlier and at lower voltages
    #: (Table 2: restore 3.3 V for NVP, 3.5 V for NVSRAM, 3.3-3.5 V for
    #: WL-Cache). Charging energy between fixed voltages scales with C,
    #: which is what collapses performance for oversized capacitors
    #: (Fig. 10b).
    von_headroom_v: float = 0.4
    #: Self-discharge power while the system is off (erodes charge during
    #: harvesting fades).
    off_leakage_w: float = 0.04
    #: When True, charge left after the JIT checkpoint is lost across the
    #: outage (unmanaged NVP leakage over the long off period drains the
    #: buffer), so every cycle recharges the design's full Vmin->Von window.
    #: This is how a large reserve turns into the recurring cost the paper
    #: attributes to NVSRAM-style designs (S1, S6.3) and why performance
    #: collapses with oversized capacitors (Fig. 10b).
    deep_discharge: bool = True
    energy: EnergyModel = field(default_factory=EnergyModel)
    #: where volatile registers are JIT-checkpointed: 'nvff' (NVP-style
    #: non-volatile flip-flops adjacent to the registers) or 'nvm'
    #: (QuickRecall-style software checkpointing into main memory, S2.1 -
    #: cheaper hardware, larger reserve and slower restore).
    register_backend: str = "nvff"

    # ReplayCache
    region_stores: int = 8
    persist_depth: int = 8

    # simulator mechanics
    #: Attach the WL-Cache protocol invariant checker
    #: (:mod:`repro.lint.invariants`). ``REPRO_CHECK=1`` in the environment
    #: enables it too; when neither is set the runtime cost is zero.
    check_invariants: bool = False
    #: Attach the observability layer (:mod:`repro.obs`): event tracing
    #: into a TraceRecorder plus a metrics registry published as
    #: ``RunResult.metrics``. ``REPRO_TRACE=1`` in the environment enables
    #: it too; when neither is set the runtime cost is zero.
    trace: bool = False
    #: Attach the memory-hierarchy fast path (:mod:`repro.memfast`):
    #: geometry-specialized hit handlers with deferred stats, bit-identical
    #: to the slow path. Disengages automatically when the trace recorder
    #: or invariant checker is attached. ``REPRO_MEMFAST=1`` in the
    #: environment enables it too.
    memfast: bool = False
    #: Batched sweep execution (:mod:`repro.batch`): grid points sharing a
    #: kernel and cost model record the architectural execution once and
    #: replay it per point, bit-identical to serial interpretation. Only
    #: sweeps (``run_grid``/``run_tasks``) consult this flag - a lone
    #: ``run_one`` has nothing to batch. Disengages per run when the trace
    #: recorder or invariant checker is attached, and falls back to the
    #: per-instance slow path when a kernel cannot be recorded.
    #: ``REPRO_BATCH=1`` in the environment enables it too.
    batch: bool = False
    #: Lockstep multi-instance replay (:mod:`repro.lockstep`): sweep
    #: points sharing a recording advance *together* through one
    #: generated walker that issues each instance's memory calls with
    #: its own cost bindings, instead of once per point through a
    #: private ``ReplayCore`` loop. Requires (and implies nothing
    #: beyond) batch eligibility; a point that diverges from the column
    #: - guest fault, or an explicit :class:`~repro.lockstep.scheduler.
    #: LockstepBail` - is evicted to the per-instance replay path at an
    #: exact event index and may rejoin at a later chunk boundary.
    #: Bit-identical to serial on every ``RunResult`` field.
    #: ``REPRO_LOCKSTEP=1`` in the environment enables it too.
    lockstep: bool = False
    #: Memoize finished results through the persistent artifact store
    #: (:mod:`repro.store`): a completed run's stats are written under
    #: ``program content x design x trace x config`` and an identical
    #: later task returns them without simulating. Stats-only (no
    #: ``final_memory``); a ``verify=True`` task only accepts entries
    #: written by verified runs. Never engages for trace-recorder or
    #: invariant-checker runs. ``REPRO_RESULT_CACHE=1`` in the
    #: environment enables it too; either way nothing is stored unless
    #: the store itself is enabled (``REPRO_CACHE_DIR``).
    result_cache: bool = False
    chunk_instrs: int = 32
    max_instructions: int = 60_000_000
    max_outages: int = 100_000
    trace_seed: int | None = None

    def __post_init__(self) -> None:
        if self.cache_replacement not in ("lru", "fifo"):
            raise ConfigError("cache_replacement must be 'lru' or 'fifo'")
        if self.dq_policy not in ("fifo", "lru"):
            raise ConfigError("dq_policy must be 'fifo' or 'lru'")
        if not 1 <= self.maxline <= self.dq_capacity:
            raise ConfigError("need 1 <= maxline <= dq_capacity")
        if self.waterline is not None and not (
                0 <= self.waterline <= self.maxline):
            raise ConfigError("need 0 <= waterline <= maxline")
        if self.chunk_instrs < 1:
            raise ConfigError("chunk_instrs must be >= 1")
        if not 0 < self.v_min < self.v_max:
            raise ConfigError("need 0 < v_min < v_max")
        if self.register_backend not in ("nvff", "nvm"):
            raise ConfigError("register_backend must be 'nvff' or 'nvm'")

    # convenience -----------------------------------------------------------
    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    @property
    def effective_waterline(self) -> int:
        return self.maxline - 1 if self.waterline is None else self.waterline

    def margin_nj(self) -> float:
        """Chunked-voltage-check safety margin folded into every reserve."""
        return self.chunk_instrs * self.energy.worst_instr_nj

    def describe(self) -> list[tuple[str, str]]:
        """Key/value rows mirroring Table 2 (for the config bench)."""
        g = self.geometry
        return [
            ("Processor", "1.0 GHz, 1 core, in-order"),
            ("L1 D-cache", f"{g.size_bytes} B, {g.assoc}-way, "
                           f"{g.line_bytes} B block, {self.cache_replacement}"),
            ("Cache hit (SRAM/NV)", f"{self.sram_params.hit_read_cycles}/"
                                    f"{self.nvcache_params.hit_read_cycles} cycles"),
            ("NVM (ReRAM) read/write/burst",
             f"{self.nvm.read_word}/{self.nvm.write_word}/"
             f"{self.nvm.burst_word} cycles per word"),
            ("Energy buffer", f"{self.capacitance_f * 1e6:g} uF"),
            ("Vmin/Vmax", f"{self.v_min}/{self.v_max} V"),
            ("DirtyQueue", f"|DQ|={self.dq_capacity}, maxline={self.maxline}, "
                           f"waterline={self.effective_waterline}, "
                           f"{self.dq_policy} cleaning"),
            ("Adaptation", "adaptive" if self.adaptive else "static"
                           + (", dynamic" if self.dynamic else "")),
        ]


DEFAULT_CONFIG = SimConfig()

"""Factory wiring programs, cache designs, traces, and configs into Systems."""

from __future__ import annotations

from dataclasses import replace

from repro.caches.nvcache import NVCacheWB
from repro.caches.nvsram import NVSRAMIdeal
from repro.caches.nvsram_variants import NVSRAMFull, NVSRAMPractical
from repro.caches.replay import ReplayCache
from repro.caches.vcache_wt import VCacheWT
from repro.caches.wt_buffer import WTBufferCache
from repro.core.variants import EagerCleanupWLCache
from repro.core.wl_cache import WLCache
from repro.energy.synthetic import make_trace
from repro.energy.traces import PowerTrace
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.mem.memsys import NoCacheNVP
from repro.mem.nvm import NVMainMemory
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.policy import resolve
from repro.sim.system import System

#: Every design name :func:`build_design` accepts: the paper's five plus
#: the extension designs (§2.3.3 variants, §3.3 strawman, §5.4 ablation).
ALL_DESIGN_NAMES = DESIGNS + (
    "NoCache",
    "NVSRAM(full)",
    "NVSRAM(practical)",
    "WT+Buffer",
    "WL-Cache(eager)",
)


def validate_design(name: str) -> str:
    """Return ``name`` if it is a known design, else raise ConfigError."""
    if name not in ALL_DESIGN_NAMES:
        raise ConfigError(
            f"unknown design {name!r}; have {ALL_DESIGN_NAMES}")
    return name


def build_design(name: str, nvm: NVMainMemory, config: SimConfig):
    """Instantiate a cache design by its paper name."""
    g = config.geometry
    repl = config.cache_replacement
    if name == "NoCache":
        return NoCacheNVP(nvm)
    if name == "VCache-WT":
        return VCacheWT(nvm, g, repl, config.sram_params)
    if name == "NVCache-WB":
        return NVCacheWB(nvm, g, repl, config.nvcache_params)
    if name == "NVSRAM(ideal)":
        return NVSRAMIdeal(nvm, g, repl, config.sram_params)
    if name == "ReplayCache":
        return ReplayCache(nvm, g, repl, config.sram_params,
                           region_stores=config.region_stores,
                           persist_depth=config.persist_depth)
    if name == "WL-Cache":
        return WLCache(nvm, g, repl, config.sram_params,
                       dq_capacity=config.dq_capacity,
                       maxline=config.maxline,
                       waterline=config.waterline,
                       dq_policy=config.dq_policy)
    # extension designs (§2.3.3 variants, §3.3 strawman, §5.4 ablation)
    if name == "NVSRAM(full)":
        return NVSRAMFull(nvm, g, repl, config.sram_params)
    if name == "NVSRAM(practical)":
        return NVSRAMPractical(nvm, g, repl, config.sram_params,
                               nv_params=config.nvcache_params)
    if name == "WT+Buffer":
        return WTBufferCache(nvm, g, repl, config.sram_params,
                             buffer_depth=config.persist_depth)
    if name == "WL-Cache(eager)":
        return EagerCleanupWLCache(nvm, g, repl, config.sram_params,
                                   dq_capacity=config.dq_capacity,
                                   maxline=config.maxline,
                                   waterline=config.waterline,
                                   dq_policy=config.dq_policy)
    raise ConfigError(f"unknown design {name!r}; have {ALL_DESIGN_NAMES}")


def build_system(program: Program, design_name: str,
                 trace: PowerTrace | str | None = None,
                 config: SimConfig | None = None, **overrides) -> System:
    """Build a ready-to-run :class:`System`.

    ``trace`` may be a :class:`PowerTrace`, one of the five named sources
    ('trace1', 'trace2', 'trace3', 'solar', 'thermal'), or None for a
    failure-free run. ``overrides`` are :class:`SimConfig` field overrides.
    """
    config = config or SimConfig()
    if overrides:
        config = config.with_(**overrides)
    if isinstance(trace, str):
        trace = (make_trace(trace) if config.trace_seed is None
                 else make_trace(trace, config.trace_seed))
    nvm = NVMainMemory.for_program(program, config.nvm)
    design = build_design(design_name, nvm, config)
    # each opt-in tier package loads only when the policy selects it
    policy = resolve(config)
    if policy.check:
        from repro.lint.invariants import attach_invariants
        attach_invariants(design)
    costs = config.costs
    if design_name == "NVCache-WB":
        costs = replace(costs, ifetch_extra=config.nvcache_ifetch_extra)
    system = System(program, design, config, trace, costs)
    if policy.trace:
        from repro.obs.recorder import attach_trace
        attach_trace(system)
    if policy.memfast:
        from repro.memfast import attach_memfast, finish_memfast
        # under trace/check shadowing it silently stays off
        attach_memfast(system)
        finish_memfast(system)
    return system


def run_one(program: Program, design_name: str,
            trace: PowerTrace | str | None = None,
            config: SimConfig | None = None, **overrides):
    """Build and run in one call; returns the :class:`RunResult`."""
    return build_system(program, design_name, trace, config, **overrides).run()

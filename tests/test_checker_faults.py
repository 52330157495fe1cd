"""The crash-consistency checker must catch deliberately broken designs."""

import pytest

from repro.errors import ConsistencyError
from repro.isa.builder import ProgramBuilder
from repro.mem.nvm import NVMainMemory
from repro.sim.config import SimConfig
from repro.sim.system import System
from repro.verify.checker import (Divergence, check_crash_consistency,
                                  compare_states)
from repro.verify.faults import (BrokenWLCacheNoCleanFirst,
                                 VCacheWBNoCheckpoint)
from repro.verify.oracle import run_oracle
from repro.workloads import build_workload


def build_faulty_system(prog, cls, trace="trace2", **design_kwargs):
    from repro.energy.synthetic import make_trace
    cfg = SimConfig(adaptive=False)
    nvm = NVMainMemory(prog.initial_memory(), cfg.nvm)
    design = cls(nvm, cfg.geometry, cfg.cache_replacement, cfg.sram_params,
                 **design_kwargs)
    return System(prog, design, cfg, make_trace(trace) if trace else None)


class TestOracle:
    def test_oracle_matches_program_checks(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.workloads import verify_checks
        verify_checks(prog, oracle.memory)

    def test_compare_states_detects_memory_diff(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.sim.factory import run_one
        res = run_one(prog, "WL-Cache", trace=None)
        res.final_memory[100] ^= 0xFF  # corrupt
        report = compare_states(res, oracle)
        assert not report.ok
        assert report.divergences[0].kind == "memory"
        with pytest.raises(ConsistencyError):
            report.raise_if_bad("corrupted")

    def test_compare_states_detects_register_diff(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.sim.factory import run_one
        res = run_one(prog, "WL-Cache", trace=None)
        res.final_regs[5] ^= 1
        report = compare_states(res, oracle)
        assert not report.ok
        assert any(d.kind == "register" for d in report.divergences)

    def test_compare_states_caps_report_in_address_order(self):
        prog = build_workload("qsort", 0.2)
        oracle = run_oracle(prog)
        from repro.sim.factory import run_one
        res = run_one(prog, "WL-Cache", trace=None)
        assert compare_states(res, oracle).ok
        # 100 corrupted words, written out of address order
        corrupt = sorted({(i * 7919) % len(res.final_memory)
                          for i in range(100)}, reverse=True)
        assert len(corrupt) == 100
        for i in corrupt:
            res.final_memory[i] ^= 0x5A5A5A5A
        report = compare_states(res, oracle)
        assert not report.ok
        first = sorted(corrupt)[:64]
        assert report.divergences == [
            Divergence("memory", i * 4, oracle.memory[i],
                       oracle.memory[i] ^ 0x5A5A5A5A) for i in first]
        assert len(compare_states(res, oracle, max_report=3).divergences) == 3


def clean_first_race_program():
    """Deterministic trigger for the §5.3 lost-update anomaly.

    Store X=1, trip the waterline so X's write-back goes in flight, store
    X=2 while it is in flight, then keep computing past the ACK. A correct
    WL-Cache re-inserts X; the broken variant's ACK clears the dirty bit
    and the newer value is silently dropped at eviction/finalize.
    """
    b = ProgramBuilder("race")
    base = b.space_words(512, "buf")
    x, p, i = b.regs("x", "p", "i")
    b.li(p, base)
    b.li(x, 1)
    b.sw(x, p, 0)          # X = 1 (dirty, in DirtyQueue)
    b.sw(x, p, 64)         # second dirty line -> waterline trips, X cleaned
    b.li(x, 2)
    b.sw(x, p, 0)          # X = 2 while X's write-back is in flight
    with b.for_range(i, 0, 200):   # let the ACK arrive
        b.nop()
    b.halt()
    return b.build(), base


class TestBrokenWLCache:
    def test_lost_update_detected(self):
        prog, base = clean_first_race_program()
        system = build_faulty_system(
            prog, BrokenWLCacheNoCleanFirst, trace=None,
            dq_capacity=8, maxline=2, waterline=1)
        res = system.run()
        assert res.final_memory[base >> 2] == 1  # X=2 was lost
        with pytest.raises(ConsistencyError):
            check_crash_consistency(prog, res)

    def test_correct_wl_passes_same_program(self):
        from repro.sim.factory import run_one
        prog, base = clean_first_race_program()
        res = run_one(prog, "WL-Cache", trace=None,
                      maxline=2, waterline=1, adaptive=False)
        assert res.final_memory[base >> 2] == 2
        check_crash_consistency(prog, res)


class TestNoCheckpointCache:
    def test_dirty_lines_lost_across_outage(self):
        prog = build_workload("qsort", 1.5)
        system = build_faulty_system(prog, VCacheWBNoCheckpoint,
                                     trace="trace2")
        res = system.run()
        assert res.outages > 0
        with pytest.raises(ConsistencyError):
            check_crash_consistency(prog, res)

    def test_same_design_fine_without_outages(self):
        prog = build_workload("qsort", 0.3)
        system = build_faulty_system(prog, VCacheWBNoCheckpoint, trace=None)
        res = system.run()
        check_crash_consistency(prog, res)

"""The packed final memory image.

A run keeps its final NVM image as an ``array('I')`` trimmed at the
highest word written (:class:`repro.mem.nvm.PackedImage`);
``RunResult.final_memory`` builds the full plain list on first read. These
tests pin that the trimmed image is exact, that the list behaves like the
one the simulator used to store, and that the internal readers (the
embedded checks, the crash-consistency checker, serial sweeps, pickling to
pool workers) never need the list.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConsistencyError
from repro.isa.builder import ProgramBuilder
from repro.mem.nvm import PackedImage
from repro.sim.config import DESIGNS
from repro.sim.factory import build_system, run_one
from repro.sim.parallel import clear_shared_results
from repro.sim.results import memory_image
from repro.sim.sweep import run_grid
from repro.verify.checker import check_crash_consistency, compare_states
from repro.verify.oracle import run_oracle
from repro.workloads import ALL_WORKLOADS, build_workload


@pytest.mark.parametrize("trace", [None, "trace1"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_list_read_back_equals_live_image(workload, trace):
    prog = build_workload(workload, 0.05)
    for design in DESIGNS:
        system = build_system(prog, design, trace)
        res = system.run()
        assert type(memory_image(res)) is PackedImage
        assert res.final_memory == system.design.nvm.words.tolist(), design


def _stack_program():
    """Stores one word just below the top of memory (where a stack
    lives), far past every data word."""
    b = ProgramBuilder("stack_store")
    b.data_words([1, 2, 3])
    sp, val = b.regs("sp", "val")
    b.li(sp, b.mem_bytes - 64)
    b.li(val, 0xCAFE)
    b.sw(val, sp, 0)
    b.halt()
    return b.build()


@pytest.mark.parametrize("design", ["WL-Cache", "VCache-WT"])
def test_store_near_top_of_memory_keeps_full_extent(design):
    prog = _stack_program()
    nwords = prog.mem_bytes // 4
    res = run_one(prog, design, trace="trace1")
    image = memory_image(res)
    # past the stored word (a line write-back reaches the end of memory)
    assert len(image.words) >= nwords - 15
    assert image[nwords - 16] == 0xCAFE
    assert res.final_memory[nwords - 16] == 0xCAFE
    check_crash_consistency(prog, res)


def test_final_memory_is_one_cached_full_length_list():
    prog = build_workload("sha", 0.05)
    res = run_one(prog, "WL-Cache", trace=None)
    mem = res.final_memory
    assert type(mem) is list
    assert mem is res.final_memory
    assert len(mem) == prog.mem_bytes // 4
    assert memory_image(res) is mem


def test_in_place_edit_persists_and_is_reported():
    prog = build_workload("sha", 0.05)
    res = run_one(prog, "WL-Cache", trace="trace1")
    oracle = run_oracle(prog)
    assert compare_states(res, oracle).ok  # packed compare
    res.final_memory[1100] ^= 0xFF
    assert res.final_memory[1100] == oracle.memory[1100] ^ 0xFF
    report = compare_states(res, oracle)  # list compare
    assert not report.ok
    assert [d.index for d in report.divergences] == [1100 * 4]


def test_corrupt_word_in_zero_tail_fails_the_checker():
    prog = build_workload("sha", 0.05)
    oracle = run_oracle(prog)
    res = run_one(prog, "WL-Cache", trace=None)
    image = memory_image(res)
    tail = len(image.words) + 10
    oracle.memory[tail] = 7  # the packed run implies 0 there
    report = compare_states(res, oracle)
    assert not report.ok
    assert [(d.index, d.expected, d.actual)
            for d in report.divergences] == [(tail * 4, 7, 0)]
    oracle.memory[tail] = 0
    res.final_memory[-1] = 7  # and an edited list past the extent
    report = compare_states(res, oracle)
    assert [d.index for d in report.divergences] == [(len(image) - 1) * 4]
    with pytest.raises(ConsistencyError):
        report.raise_if_bad("tail")


def test_serial_verified_grid_leaves_results_packed():
    clear_shared_results()
    grid = run_grid(["sha", "qsort"], ("WL-Cache", "NVSRAM(ideal)"),
                    "trace1", jobs=1, scale=0.05, verify=True)
    assert grid
    assert all(type(memory_image(r)) is PackedImage for r in grid.values())


def test_pickled_result_ships_packed_and_round_trips():
    prog = build_workload("sha", 0.15)
    res = run_one(prog, "WL-Cache", trace="trace1")
    blob = pickle.dumps(res)
    assert len(blob) < 64 * 1024
    back = pickle.loads(blob)
    assert type(memory_image(back)) is PackedImage
    assert back == res

"""The persistent artifact store: roots, round-trips, corruption
tolerance, warm-started codegen, result memoization, and maintenance.

Every test opts into a throwaway store root under ``tmp_path`` (the
suite-wide default is ``REPRO_CACHE_DIR=off``, see conftest) and resets
the process-global counters around itself, so store tests never leak
state into the rest of the suite - the whole point of the store being
that state *does* leak across processes when asked to.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats_io import result_to_dict
from repro.batch import batch_stats, clear_streams
from repro.batch.stream import clear_stream_meta, stream_meta_stats
from repro.cpu.costs import CycleCosts
from repro.jit.cache import (clear_code_cache, code_cache_stats,
                             get_compiled)
from repro.lockstep.codegen import clear_engines, engine_cache_stats
from repro.memfast.handlers import (_render_load, clear_handler_sources,
                                    codegen_cache_stats)
from repro.sim.config import SimConfig
from repro.sim.parallel import (SweepTask, _init_worker, run_task,
                                worker_initargs)
from repro.sim.results import EnergyBreakdown, PeriodStats, RunResult
from repro.sim.sweep import run_grid
from repro.store import (CLASSES, FORMAT, ArtifactStore, cache_report,
                         clear_loaded_sources, clear_store, disk_usage,
                         gc_store, get_store, key_digest, loaded_sources,
                         lookup_task, modules_fingerprint,
                         package_fingerprint, reset_store_stats,
                         result_from_payload, result_to_payload,
                         store_root, store_stats, store_task)
from repro.store.core import absorb_store_stats
from repro.store.sources import jit_fingerprint
from tests.conftest import build_sum_program

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def store_dir(tmp_path, monkeypatch):
    """A live store rooted in tmp_path, with clean counters/caches."""
    monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_store_stats()
    clear_loaded_sources()
    yield str(tmp_path)
    reset_store_stats()
    clear_loaded_sources()


@pytest.fixture
def fresh_codegen():
    """Cold in-memory codegen caches on both sides of the test."""
    def _clear():
        clear_code_cache()
        clear_handler_sources()
        clear_engines()
        clear_streams()
        clear_stream_meta()
    _clear()
    yield _clear
    _clear()


# ---------------------------------------------------------------------------
# root resolution
# ---------------------------------------------------------------------------

class TestRoot:
    @pytest.mark.parametrize("value", ["0", "off", "none", "disabled",
                                       "OFF", "", "  "])
    def test_off_values_disable(self, monkeypatch, value):
        monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", value)
        assert store_root() is None
        assert get_store() is None

    def test_explicit_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert store_root() == str(tmp_path)
        assert get_store().root == str(tmp_path)

    def test_legacy_stream_alias_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STREAM_CACHE", str(tmp_path / "legacy"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "new"))
        assert store_root() == str(tmp_path / "legacy")
        # ...even over an explicit off: shard scripts that only set the
        # PR 9 variable keep caching
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert store_root() == str(tmp_path / "legacy")

    def test_default_under_xdg(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert store_root() == str(tmp_path / "repro")


# ---------------------------------------------------------------------------
# entry round-trips and corruption tolerance
# ---------------------------------------------------------------------------

_PAYLOADS = {
    "src": "def _bind():\n    return 1\n",
    "skel": (5, [1, 2], [0, 1], [0], [4], [0] * 8),
    "stream": (b"\x01\x02", 7, 123, None, [0] * 8, 9),
    "result": {"stats": {"instructions": 1}, "verified": True},
}


class TestRoundTrip:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_save_load(self, store_dir, cls):
        store = get_store()
        key = ("test", cls, 1, 2.5, ("nested", True))
        assert store.load(cls, key) is None  # counted miss
        assert store.save(cls, key, _PAYLOADS[cls])
        assert store.contains(cls, key)
        assert store.load(cls, key) == _PAYLOADS[cls]
        stats = store_stats()
        assert stats[f"{cls}_misses"] == 1
        assert stats[f"{cls}_writes"] == 1
        assert stats[f"{cls}_hits"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] > 0

    def test_contains_counts_nothing(self, store_dir):
        store = get_store()
        assert not store.contains("src", ("nope",))
        assert store_stats() == {}

    def test_distinct_keys_distinct_entries(self, store_dir):
        store = get_store()
        store.save("src", ("a",), "source a")
        store.save("src", ("b",), "source b")
        assert store.load("src", ("a",)) == "source a"
        assert store.load("src", ("b",)) == "source b"

    def test_interp_tag_in_layout(self, store_dir):
        store = get_store()
        store.save("src", ("k",), "v")
        path = store._path("src", key_digest(("k",)))
        from repro.store.core import interp_tag
        assert f"/v{FORMAT}/{interp_tag()}/src/" in path


class TestCorruption:
    def _entry_path(self, store, cls, key):
        return store._path(cls, key_digest(key))

    def _assert_corrupt_miss(self, store, cls, key):
        before = store_stats().get(f"{cls}_corrupt", 0)
        assert store.load(cls, key) is None
        stats = store_stats()
        assert stats[f"{cls}_corrupt"] == before + 1
        assert stats[f"{cls}_misses"] >= 1

    def test_truncated_entry(self, store_dir):
        store = get_store()
        key = ("trunc",)
        store.save("src", key, "x" * 4096)
        path = self._entry_path(store, "src", key)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        self._assert_corrupt_miss(store, "src", key)

    def test_garbage_entry(self, store_dir):
        store = get_store()
        key = ("garbage",)
        store.save("skel", key, (1, 2))
        with open(self._entry_path(store, "skel", key), "wb") as fh:
            fh.write(b"\x00not a pickle at all")
        self._assert_corrupt_miss(store, "skel", key)

    def test_format_stamp_mismatch(self, store_dir):
        store = get_store()
        key = ("stamp",)
        digest = key_digest(key)
        path = self._entry_path(store, "result", key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps((FORMAT + 1, digest, {"stats": {}})))
        self._assert_corrupt_miss(store, "result", key)

    def test_misfiled_entry(self, store_dir):
        # an entry copied to another key's path fails the digest check
        store = get_store()
        store.save("src", ("original",), "the source")
        src = self._entry_path(store, "src", ("original",))
        dst = self._entry_path(store, "src", ("elsewhere",))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(src, "rb") as fh:
            blob = fh.read()
        with open(dst, "wb") as fh:
            fh.write(blob)
        self._assert_corrupt_miss(store, "src", ("elsewhere",))

    def test_unwritable_root_is_soft(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the tree wants a directory")
        store = ArtifactStore(str(blocker))
        assert store.save("src", ("k",), "v") is False  # no exception


class TestStats:
    def test_absorb_int_only(self, store_dir):
        reset_store_stats()
        absorb_store_stats({"src_hits": 3, "bytes_read": 10,
                            "junk": "nope", "zero": 0, "f": 1.5})
        assert store_stats() == {"src_hits": 3, "bytes_read": 10}

    def test_absorb_accumulates(self, store_dir):
        reset_store_stats()
        absorb_store_stats({"result_hits": 1})
        absorb_store_stats({"result_hits": 2})
        assert store_stats()["result_hits"] == 3


class TestRacingWriters:
    def test_last_atomic_rename_wins(self, store_dir):
        store = get_store()
        key = ("contended",)
        payloads = [f"payload-{i}" * 200 for i in range(8)]
        errors = []

        def hammer(payload):
            try:
                for _ in range(25):
                    store.save("src", key, payload)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(p,))
                   for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = store.load("src", key)
        assert loaded in payloads  # valid and complete, never torn
        assert store_stats().get("src_corrupt", 0) == 0


# ---------------------------------------------------------------------------
# maintenance: usage, GC, clear
# ---------------------------------------------------------------------------

class TestMaintenance:
    def _fill(self, store, n=6):
        keys = [(f"entry-{i}",) for i in range(n)]
        for i, key in enumerate(keys):
            store.save("src", key, f"source {i} " * 50)
        return keys

    def test_disk_usage_per_class(self, store_dir):
        store = get_store()
        self._fill(store, 3)
        store.save("result", ("r",), {"stats": {}})
        usage = disk_usage(store_dir)
        assert usage["classes"]["src"]["files"] == 3
        assert usage["classes"]["result"]["files"] == 1
        assert usage["files"] == 4
        assert usage["bytes"] > 0

    def test_gc_evicts_lru(self, store_dir):
        store = get_store()
        keys = self._fill(store, 6)
        # backdate all but the last two: GC must take the stale ones
        for i, key in enumerate(keys[:-2]):
            path = store._path("src", key_digest(key))
            os.utime(path, (1000.0 + i, 1000.0 + i))
        entry_bytes = disk_usage(store_dir)["bytes"] // 6
        report = gc_store(store_dir, max_bytes=2 * entry_bytes + 2)
        assert report["removed_files"] == 4
        assert report["kept_bytes"] <= 2 * entry_bytes + 2
        for key in keys[:-2]:
            assert not store.contains("src", key)
        for key in keys[-2:]:
            assert store.contains("src", key)

    def test_gc_load_touches_recency(self, store_dir):
        store = get_store()
        keys = self._fill(store, 3)
        for key in keys:
            path = store._path("src", key_digest(key))
            os.utime(path, (1000.0, 1000.0))
        store.load("src", keys[0])  # the hit must refresh its stamp
        entry_bytes = disk_usage(store_dir)["bytes"] // 3
        gc_store(store_dir, max_bytes=entry_bytes + 2)
        assert store.contains("src", keys[0])

    def test_clear_store(self, store_dir):
        store = get_store()
        self._fill(store, 4)
        assert clear_store(store_dir) == 4
        assert disk_usage(store_dir)["files"] == 0
        assert store.load("src", ("entry-0",)) is None


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_deterministic(self):
        a = modules_fingerprint("repro.jit.blocks", "repro.cpu.core")
        b = modules_fingerprint("repro.jit.blocks", "repro.cpu.core")
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0

    def test_distinct_module_sets(self):
        assert (modules_fingerprint("repro.jit.blocks")
                != modules_fingerprint("repro.cpu.core"))
        assert (modules_fingerprint("repro.jit.blocks")
                != modules_fingerprint("repro.jit.blocks",
                                       "repro.cpu.core"))

    def test_package_fingerprint(self):
        fp = package_fingerprint()
        assert fp == package_fingerprint()
        assert len(fp) == 16 and int(fp, 16) >= 0


# ---------------------------------------------------------------------------
# warm-started codegen: jit, memfast, lockstep, skeletons
# ---------------------------------------------------------------------------

class TestWarmCodegen:
    def test_jit_blocks_load_not_compile(self, store_dir, fresh_codegen):
        costs = CycleCosts()
        cold = get_compiled(build_sum_program(200), costs)
        assert code_cache_stats()["compiles"] == 1
        cold_source = cold.source

        fresh_codegen()  # a "new process": in-memory caches gone
        clear_loaded_sources()
        warm = get_compiled(build_sum_program(200), costs)
        stats = code_cache_stats()
        assert stats["loads"] == 1 and stats["compiles"] == 0
        assert warm.source == cold_source
        assert warm._starts == cold._starts
        # the load landed in the A009 ledger with its unit tag
        assert any(unit == "jit:sum" for unit, _s, _r in loaded_sources())

    def test_jit_suffix_load(self, store_dir, fresh_codegen):
        costs = CycleCosts()
        prog = build_sum_program(200)
        cold = get_compiled(prog, costs)
        starts = cold._starts
        assert len(starts) >= 2
        suffix_pc = starts[1] + 1  # a mid-block jalr landing point
        cold.suffix_entry(suffix_pc, (None,) * 7)
        assert code_cache_stats()["suffix_compiles"] == 1
        suffix_src = cold.suffix_sources[suffix_pc]

        fresh_codegen()
        warm = get_compiled(build_sum_program(200), costs)
        warm.suffix_entry(suffix_pc, (None,) * 7)
        stats = code_cache_stats()
        assert stats["suffix_loads"] == 1 and stats["suffix_compiles"] == 0
        assert warm.suffix_sources[suffix_pc] == suffix_src

    def test_memfast_handlers_load_not_render(self, store_dir,
                                              fresh_codegen):
        from repro.memfast.handlers import _keyed_source
        key = ("load", 6, 3, True, 0.5, 0xFFFFFFFF, 1)
        cold = _keyed_source(key, "memfast:load",
                             lambda: _render_load(*key[1:]))
        assert codegen_cache_stats()["renders"] == 1

        fresh_codegen()
        warm = _keyed_source(key, "memfast:load",
                             lambda: _render_load(*key[1:]))
        stats = codegen_cache_stats()
        assert stats["loads"] == 1 and stats["renders"] == 0
        assert warm == cold

    def test_memfast_end_to_end_warm(self, store_dir, fresh_codegen):
        cfg = SimConfig(memfast=True)
        cold = run_grid(("sha",), ("WL-Cache",), "trace1", scale=0.2,
                        jobs=1, config=cfg)
        assert codegen_cache_stats()["renders"] >= 1

        fresh_codegen()
        warm = run_grid(("sha",), ("WL-Cache",), "trace1", scale=0.2,
                        jobs=1, config=cfg)
        stats = codegen_cache_stats()
        assert stats["renders"] == 0 and stats["loads"] >= 1
        assert cold == warm

    def test_lockstep_engines_load_not_render(self, store_dir,
                                              fresh_codegen):
        kwargs = dict(scale=0.2, jobs=1, batch=True, lockstep=True)
        cold = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                        **kwargs)
        cold_stats = engine_cache_stats()
        assert cold_stats["renders"] >= 1 and cold_stats["loads"] == 0

        fresh_codegen()
        warm = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                        **kwargs)
        warm_stats = engine_cache_stats()
        assert warm_stats["renders"] == 0
        assert warm_stats["loads"] == cold_stats["renders"]
        assert cold == warm

    def test_stream_skeleton_and_recording_load(self, store_dir,
                                                fresh_codegen):
        kwargs = dict(scale=0.2, jobs=1, batch=True)
        cold = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                        **kwargs)
        assert stream_meta_stats()["skeleton_builds"] >= 1
        assert batch_stats()["recordings"] >= 1

        fresh_codegen()
        warm = run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)"), "trace1",
                        **kwargs)
        bstats = batch_stats()
        sstats = stream_meta_stats()
        assert bstats["recordings"] == 0 and bstats["disk_hits"] >= 1
        assert sstats["skeleton_builds"] == 0
        assert sstats["skeleton_loads"] >= 1
        assert cold == warm


# ---------------------------------------------------------------------------
# result memoization
# ---------------------------------------------------------------------------

def _memo_task(verify=True, config=None, **kwargs) -> SweepTask:
    config = config if config is not None else SimConfig(result_cache=True)
    fields = dict(workload="sha", design="WL-Cache", trace="trace1",
                  scale=0.2, verify=verify, config=config, overrides={})
    fields.update(kwargs)
    return SweepTask(**fields)


def _stats_equal(a: RunResult, b: RunResult) -> bool:
    return (result_to_dict(a, include_periods=True)
            == result_to_dict(b, include_periods=True)
            and list(a.final_regs) == list(b.final_regs))


class TestResultMemo:
    def test_write_then_hit(self, store_dir):
        fresh = run_task(_memo_task())
        assert store_stats().get("result_writes") == 1
        memo = run_task(_memo_task())
        assert store_stats().get("result_hits") == 1
        assert _stats_equal(fresh, memo)
        assert memo.final_memory is None  # stats-only by design
        assert fresh.final_memory is not None

    def test_disabled_without_opt_in(self, store_dir):
        run_task(_memo_task(config=SimConfig()))
        assert "result_writes" not in store_stats()

    def test_env_opt_in_shares_entries(self, store_dir, monkeypatch):
        run_task(_memo_task())  # flag-enabled write
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        # result_cache is normalized out of the key: the env-enabled
        # lookup of the flagless task hits the flag-enabled entry
        memo = lookup_task(_memo_task(config=SimConfig()))
        assert memo is not None
        assert store_stats().get("result_hits") == 1

    def test_trace_and_checker_runs_never_memoized(self, store_dir):
        run_task(_memo_task(config=SimConfig(result_cache=True,
                                             trace=True)))
        run_task(_memo_task(config=SimConfig(result_cache=True,
                                             check_invariants=True)))
        assert "result_writes" not in store_stats()

    def test_verified_semantics(self, store_dir):
        unverified = _memo_task(verify=False)
        res = run_task(unverified)
        assert store_stats().get("result_writes") == 1
        # a verify=True lookup must not trust an unverified entry
        assert lookup_task(_memo_task(verify=True)) is None
        # ...but an unverified lookup may
        assert lookup_task(unverified) is not None
        # a verified run upgrades the entry in place
        run_task(_memo_task(verify=True))
        assert store_stats().get("result_writes") == 2
        assert lookup_task(_memo_task(verify=True)) is not None
        # an unverified run never downgrades an existing entry
        assert store_task(unverified, res) is False
        assert store_stats().get("result_writes") == 2

    def test_payload_roundtrip_from_simulation(self, store_dir):
        res = run_task(_memo_task())
        back = result_from_payload(result_to_payload(res, True))
        assert _stats_equal(res, back)


_scalar_ints = st.integers(min_value=0, max_value=2 ** 50)
_energies = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
_synthetic_results = st.builds(
    RunResult,
    program=st.sampled_from(["sha", "qsort", "fft"]),
    design=st.sampled_from(["WL-Cache", "NVSRAM(ideal)"]),
    trace=st.sampled_from(["trace1", "trace2"]),
    halted=st.booleans(),
    total_time_ns=_scalar_ints, on_time_ns=_scalar_ints,
    off_time_ns=_scalar_ints, exec_cycles=_scalar_ints,
    instructions=_scalar_ints, outages=st.integers(0, 10 ** 6),
    checkpoint_lines_total=_scalar_ints, reconfig_count=_scalar_ints,
    maxline_min=st.integers(0, 6), maxline_max=st.integers(0, 6),
    prediction_accuracy=st.floats(0.0, 1.0, allow_nan=False),
    dyn_raises=_scalar_ints, nvm_reads=_scalar_ints,
    nvm_writes=_scalar_ints, read_hits=_scalar_ints,
    read_misses=_scalar_ints, write_hits=_scalar_ints,
    write_misses=_scalar_ints, store_stall_cycles=_scalar_ints,
    async_writebacks=_scalar_ints, dirty_evictions=_scalar_ints,
    energy=st.builds(EnergyBreakdown, cache_read_nj=_energies,
                     cache_write_nj=_energies, mem_read_nj=_energies,
                     mem_write_nj=_energies, compute_nj=_energies,
                     checkpoint_nj=_energies, discarded_nj=_energies),
    periods=st.lists(
        st.builds(PeriodStats, on_time_ns=_scalar_ints,
                  instrs=_scalar_ints, dirty_highwater=st.integers(0, 64),
                  async_writebacks=_scalar_ints, maxline=st.integers(0, 6)),
        max_size=4),
    final_regs=st.lists(st.integers(0, 2 ** 32 - 1), min_size=0,
                        max_size=16),
)


class TestPayloadProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(result=_synthetic_results, verified=st.booleans())
    def test_payload_roundtrip(self, result, verified):
        payload = result_to_payload(result, verified)
        # the payload must survive the store's pickle framing
        payload = pickle.loads(pickle.dumps(payload))
        back = result_from_payload(payload)
        assert _stats_equal(result, back)
        assert payload["verified"] is verified
        assert back.final_memory is None


# ---------------------------------------------------------------------------
# warm == cold, bit for bit
# ---------------------------------------------------------------------------

def _grid_stats(grid) -> dict:
    return {key: (result_to_dict(res, include_periods=True),
                  list(res.final_regs)) for key, res in grid.items()}


class TestWarmEqualsCold:
    def test_reduced_grid_bit_identical(self, store_dir, fresh_codegen):
        cfg = SimConfig(memfast=True, result_cache=True)
        kwargs = dict(trace="trace1", scale=0.2, jobs=1, config=cfg)
        cold = run_grid(("sha",), ("NVSRAM(ideal)", "WL-Cache"), **kwargs)
        assert store_stats().get("result_writes") == 2

        fresh_codegen()
        reset_store_stats()
        warm = run_grid(("sha",), ("NVSRAM(ideal)", "WL-Cache"), **kwargs)
        assert store_stats().get("result_hits") == 2
        assert code_cache_stats()["compiles"] == 0
        assert codegen_cache_stats()["renders"] == 0
        assert _grid_stats(cold) == _grid_stats(warm)

    @pytest.mark.skipif(not os.environ.get("REPRO_TIER2"),
                        reason="full grid is tier-2 (set REPRO_TIER2=1)")
    def test_full_grid_bit_identical(self, store_dir, fresh_codegen):
        cfg = SimConfig(memfast=True, result_cache=True)
        kwargs = dict(trace="trace1", scale=0.2, jobs=1, config=cfg)
        cold = run_grid(**kwargs)  # all 23 workloads x 5 designs
        fresh_codegen()
        reset_store_stats()
        warm = run_grid(**kwargs)
        assert store_stats().get("result_hits") == len(cold)
        assert code_cache_stats()["compiles"] == 0
        assert _grid_stats(cold) == _grid_stats(warm)


# ---------------------------------------------------------------------------
# pool propagation
# ---------------------------------------------------------------------------

class TestPoolPropagation:
    def test_initargs_carry_store_switches(self, store_dir, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        args = worker_initargs()
        assert len(args) == 8
        assert store_dir in args
        assert "1" in args

    def test_init_worker_sets_and_pops(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        _init_worker(None, None, store_env="/tmp/somewhere",
                     result_cache_env="1")
        assert os.environ["REPRO_CACHE_DIR"] == "/tmp/somewhere"
        assert os.environ["REPRO_RESULT_CACHE"] == "1"
        _init_worker(None, None, store_env=None, result_cache_env=None)
        assert "REPRO_CACHE_DIR" not in os.environ
        assert "REPRO_RESULT_CACHE" not in os.environ

    def test_pooled_sweep_ships_store_stats_home(self, store_dir,
                                                 fresh_codegen):
        cfg = SimConfig(result_cache=True)
        kwargs = dict(trace="trace1", scale=0.2, config=cfg)
        run_grid(("sha", "qsort"), ("WL-Cache",), jobs=1, **kwargs)
        assert store_stats().get("result_writes") == 2
        reset_store_stats()
        warm = run_grid(("sha", "qsort"), ("WL-Cache",), jobs=2, **kwargs)
        # the workers' hit counters rode home on the chunk records
        assert store_stats().get("result_hits") == 2
        assert len(warm) == 2


# ---------------------------------------------------------------------------
# in-memory cache caps
# ---------------------------------------------------------------------------

class TestCacheCaps:
    def test_decode_cache_cap(self, monkeypatch):
        from repro.cpu import core
        saved = dict(core._DECODE_SHARED)
        saved_ev = core._DECODE_STATS["evictions"]
        try:
            core._DECODE_SHARED.clear()
            core._DECODE_STATS["evictions"] = 0
            monkeypatch.setattr(core, "_DECODE_SHARED_CAP", 2)
            costs = CycleCosts()
            for n in (11, 12, 13):
                core.predecode(build_sum_program(n), costs)
            stats = core.decode_cache_stats()
            assert stats["entries"] <= 2
            assert stats["evictions"] >= 1
        finally:
            core._DECODE_SHARED.clear()
            core._DECODE_SHARED.update(saved)
            core._DECODE_STATS["evictions"] = saved_ev

    def test_cache_report_covers_every_cache(self, store_dir):
        report = cache_report(include_disk=True)
        assert report["enabled"] and report["root"] == store_dir
        caches = report["process_caches"]
        for name in ("jit", "memfast", "lockstep", "batch", "stream_meta",
                     "decode", "store_loads", "sweep"):
            assert name in caches
        assert "entries" in caches["decode"]
        assert "loaded" in caches["store_loads"]
        assert set(caches["sweep"]) == {"live", "shared", "simulated"}
        assert "disk" in report


# ---------------------------------------------------------------------------
# the A009 contract: store-loaded sources re-render byte-identical
# ---------------------------------------------------------------------------

class TestStoreAudit:
    def _jit_blocks_key(self, program, costs):
        from repro.cpu.core import program_content_key
        return ("jit-blocks", jit_fingerprint(),
                program_content_key(program), costs)

    def test_legitimate_loads_audit_clean(self, store_dir, fresh_codegen):
        from repro.lint.codegen_audit import audit_store_loads
        costs = CycleCosts()
        get_compiled(build_sum_program(150), costs)
        fresh_codegen()
        clear_loaded_sources()
        get_compiled(build_sum_program(150), costs)
        assert loaded_sources()
        assert audit_store_loads() == []

    def test_seeded_mutation_is_caught(self, store_dir, fresh_codegen):
        from repro.lint.codegen_audit import audit_store_loads
        costs = CycleCosts()
        program = build_sum_program(150)
        get_compiled(program, costs)

        # tamper with the persisted entry: still valid Python (it must
        # survive compile()), but not what the renderer produces
        store = get_store()
        key = self._jit_blocks_key(program, costs)
        digest = key_digest(key)
        path = store._path("src", digest)
        with open(path, "rb") as fh:
            _fmt, _dig, source = pickle.loads(fh.read())
        tampered = source + "\n# tampered\n"
        with open(path, "wb") as fh:
            fh.write(pickle.dumps((FORMAT, digest, tampered)))

        fresh_codegen()
        clear_loaded_sources()
        warm = get_compiled(build_sum_program(150), costs)
        assert warm.source == tampered  # the load itself cannot tell
        findings = audit_store_loads()
        assert len(findings) == 1
        assert findings[0].rule == "A009"
        assert findings[0].location == "jit:sum"
        assert "stale or tampered" in findings[0].message

    def test_audit_suite_includes_store_loads(self, store_dir):
        from repro.lint.codegen_audit import audit_suite
        results = audit_suite(apps=("sha",), designs=("WL-Cache",))
        assert "store:loads" in results


# ---------------------------------------------------------------------------
# the `repro cache` CLI
# ---------------------------------------------------------------------------

class TestCacheCli:
    def test_stats_json(self, store_dir, capsys):
        import json

        from repro.cli import main
        get_store().save("src", ("cli",), "x")
        assert main(["cache", "stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["root"] == store_dir
        assert report["disk"]["classes"]["src"]["files"] == 1

    def test_stats_human(self, store_dir, capsys):
        from repro.cli import main
        get_store().save("src", ("cli",), "x")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert store_dir in out and "src" in out

    def test_gc_and_clear(self, store_dir, capsys):
        from repro.cli import main
        store = get_store()
        for i in range(5):
            store.save("src", (f"cli-{i}",), "y" * 2048)
        assert main(["cache", "gc", "--max-size", "4K"]) == 0
        assert disk_usage(store_dir)["bytes"] <= 4096
        assert main(["cache", "clear"]) == 0
        assert disk_usage(store_dir)["files"] == 0

    def test_gc_disabled_store_fails(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert main(["cache", "gc", "--max-size", "1M"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_bad_size_rejected(self, store_dir):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--max-size", "lots"])

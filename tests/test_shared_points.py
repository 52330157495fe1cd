"""Serial default-policy sweeps simulate each identical point once.

While a caller holds a ``RunResult``, a serial ``run_grid`` under the
default execution policy serves a repeat of the same (workload, scale,
design, trace, config) point with that very object. Every other path -
the process pool, any tier, an observer, the result memo - simulates
each point for real, so the differential tests keep comparing two runs.

Each test clears the seven switch variables, so the file holds whatever
tier the surrounding environment exports.
"""

import gc

import pytest

from repro.errors import ConfigError
from repro.sim import parallel
from repro.sim.parallel import clear_shared_results, shared_result_stats
from repro.sim.config import SimConfig
from repro.sim.policy import SWITCHES
from repro.sim.sweep import run_grid

APP = "sha"
SCALE = 0.05
DESIGNS = ("NVSRAM(ideal)", "WL-Cache")


@pytest.fixture(autouse=True)
def default_policy(monkeypatch):
    for _, var in SWITCHES.values():
        monkeypatch.delenv(var, raising=False)
    clear_shared_results()
    yield
    clear_shared_results()


def grid(designs=DESIGNS, trace="trace1", jobs=1, **kw):
    return run_grid([APP], designs, trace, scale=SCALE, jobs=jobs, **kw)


def assert_all_fresh(first, second):
    """Equal results, none of them the same object."""
    assert first == second
    assert all(second[k] is not first[k] for k in first)


class TestSharing:
    def test_same_object_across_calls(self):
        first = grid()
        second = grid()
        assert all(second[k] is first[k] for k in first)
        assert shared_result_stats() == {
            "live": len(first), "shared": len(first),
            "simulated": len(first)}

    def test_same_object_within_one_call(self):
        res = run_grid([APP, APP], ["WL-Cache"], "trace1", scale=SCALE,
                       jobs=1)
        assert len(res) == 1
        stats = shared_result_stats()
        assert (stats["shared"], stats["simulated"]) == (1, 1)

    def test_dropped_result_is_simulated_again(self):
        first = grid(designs=["WL-Cache"])
        kept = first[(APP, "WL-Cache")]
        snapshot = grid(designs=["WL-Cache"])[(APP, "WL-Cache")]
        assert snapshot is kept
        del first, kept, snapshot
        gc.collect()
        assert shared_result_stats()["live"] == 0
        again = grid(designs=["WL-Cache"])
        stats = shared_result_stats()
        assert (stats["shared"], stats["simulated"]) == (1, 2)
        assert again[(APP, "WL-Cache")].instructions > 0

    def test_progress_fires_once_per_task(self):
        calls = []
        first = grid()
        grid(progress=lambda done, total, key: calls.append(
            (done, total, key)))
        assert calls == [(i + 1, len(first), key)
                         for i, key in enumerate(first)]

    def test_verify_on_a_hit_still_checks(self, monkeypatch):
        checked = []
        original = parallel.verify_checks

        def counting(prog, memory):
            checked.append(prog.name)
            return original(prog, memory)

        monkeypatch.setattr(parallel, "verify_checks", counting)
        first = grid(verify=True)
        second = grid(verify=True)
        assert all(second[k] is first[k] for k in first)
        assert len(checked) == 2 * len(first)

    def test_equal_but_differently_written_configs_not_shared(self):
        # 0.0 == -0.0, but the two configs are different points
        plus = grid(trace=None, off_leakage_w=0.0)
        minus = grid(trace=None, off_leakage_w=-0.0)
        assert all(minus[k] is not plus[k] for k in plus)
        assert shared_result_stats()["shared"] == 0

    def test_different_trace_not_shared(self):
        first = grid(trace="trace1")
        second = grid(trace="trace2")
        assert all(second[k] is not first[k] for k in first)
        assert shared_result_stats()["shared"] == 0


class TestFailures:
    def test_failing_point_raises_every_call(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(parallel, "run_one", boom)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="simulated failure"):
                grid(designs=["WL-Cache"])
        stats = shared_result_stats()
        assert (stats["live"], stats["shared"], stats["simulated"]) == (
            0, 0, 2)

    def test_unresolvable_config_raises_every_call(self):
        for _ in range(2):
            with pytest.raises(ConfigError, match="maxline"):
                grid(designs=["WL-Cache"], maxline=0)
        assert shared_result_stats()["shared"] == 0


class TestNoSharingOffTheDefaultPath:
    def test_pool(self):
        first = grid(jobs=2)
        assert_all_fresh(first, grid(jobs=2))
        assert shared_result_stats()["simulated"] == 0

    @pytest.mark.parametrize("switch",
                             ["memfast", "trace", "check_invariants"])
    def test_config_switch(self, switch):
        # ``trace`` is also run_grid's trace name, so switch via config
        config = SimConfig().with_(**{switch: True})
        first = grid(config=config)
        assert_all_fresh(first, grid(config=config))
        assert shared_result_stats()["simulated"] == 0

    @pytest.mark.parametrize("var", ["REPRO_MEMFAST", "REPRO_TRACE",
                                     "REPRO_CHECK"])
    def test_env_switch(self, monkeypatch, var):
        monkeypatch.setenv(var, "1")
        first = grid()
        assert_all_fresh(first, grid())
        assert shared_result_stats()["simulated"] == 0

    def test_result_memo(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        first = grid(trace=None)
        second = grid(trace=None)  # memo hits: loaded, not shared
        assert all(second[k] is not first[k] for k in first)
        assert shared_result_stats()["simulated"] == 0

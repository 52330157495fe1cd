"""Property tests: the stochastic trace ensembles (repro.energy.stochastic).

The campaign engine's determinism guarantees bottom out here: a
``(family, seed)`` pair must denote exactly one trace - bit-identical
segment lists in every process and whatever order it is queried in -
while different seeds must denote *different* conditions drawn from the
same distribution.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.stochastic import (MC_FAMILIES, RecordedTrace, derive_seed,
                                     recorded_trace)
from repro.energy.synthetic import TRACE_FACTORIES, make_trace
from repro.energy.traces import PowerTrace, save_csv
from repro.errors import TraceError

families = st.sampled_from(MC_FAMILIES)
seeds = st.integers(0, 10_000)
#: horizons ~ tens of ms for the short families; mc-rf-long generates
#: ~1 segment per 40 ms, so these exercise a handful of its segments too
horizons = st.integers(10**6, 5 * 10**7)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed("mc-rf-home", 3, "segments")
        assert a == derive_seed("mc-rf-home", 3, "segments")
        assert a != derive_seed("mc-rf-home", 3, "params")
        assert a != derive_seed("mc-rf-home", 4, "segments")
        assert a != derive_seed("mc-rf-office", 3, "segments")

    def test_process_independent(self):
        # crc32 of the formatted identity - pinned so a refactor to
        # hash() (randomized per process) cannot slip in silently
        import zlib
        assert derive_seed("f", 1, "p") == zlib.crc32(b"f/1/p")


class TestRegistry:
    def test_families_registered(self):
        for fam in MC_FAMILIES:
            assert fam in TRACE_FACTORIES
            tr = make_trace(fam, 1)
            assert isinstance(tr, PowerTrace)

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            make_trace("mc-rf-mars", 1)


@settings(max_examples=40, deadline=None)
@given(fam=families, seed=seeds, horizon=horizons)
def test_same_seed_bit_identical_segments(fam, seed, horizon):
    a = make_trace(fam, seed)
    b = make_trace(fam, seed)
    a.power_w(horizon)
    b.power_w(horizon)
    assert a.starts == b.starts
    assert a.powers == b.powers


@settings(max_examples=40, deadline=None)
@given(fam=families, seed=seeds, horizon=horizons,
       t=st.integers(0, 5 * 10**7))
def test_query_order_independent(fam, seed, horizon, t):
    a = make_trace(fam, seed)
    b = make_trace(fam, seed)
    b.power_w(t + horizon)  # extend b far ahead first
    assert a.power_w(t) == b.power_w(t)
    assert a.energy_nj(0, t) == pytest.approx(b.energy_nj(0, t))


@settings(max_examples=20, deadline=None)
@given(fam=families, seed=seeds)
def test_different_seeds_distinct(fam, seed):
    a = make_trace(fam, seed)
    b = make_trace(fam, seed + 1)
    horizon = 5 * 10**8 if fam == "mc-rf-long" else 10**7
    a.power_w(horizon)
    b.power_w(horizon)
    # parameter jitter alone already shifts every non-zero level
    assert (a.starts, a.powers) != (b.starts, b.powers)


@settings(max_examples=30, deadline=None)
@given(fam=families, seed=seeds, horizon=horizons)
def test_powertrace_invariants(fam, seed, horizon):
    tr = make_trace(fam, seed)
    tr.power_w(horizon)
    assert tr.starts[0] == 0
    assert all(a < b for a, b in zip(tr.starts, tr.starts[1:]))
    assert all(p >= 0.0 for p in tr.powers)
    assert len(tr.starts) == len(tr.powers)


@settings(max_examples=30, deadline=None)
@given(fam=families, seed=seeds, a=st.integers(0, 3 * 10**7),
       b=st.integers(0, 3 * 10**7), c=st.integers(0, 3 * 10**7))
def test_energy_additive(fam, seed, a, b, c):
    tr = make_trace(fam, seed)
    t0, t1, t2 = sorted((a, b, c))
    whole = tr.energy_nj(t0, t2)
    split = tr.energy_nj(t0, t1) + tr.energy_nj(t1, t2)
    assert whole == pytest.approx(split, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(fam=families, seed=seeds, t0=st.integers(0, 10**7),
       needed=st.floats(min_value=0.01, max_value=1000.0))
def test_time_to_harvest_round_trip(fam, seed, t0, needed):
    tr = make_trace(fam, seed)
    try:
        t = tr.time_to_harvest(t0, needed, horizon_ns=10**10)
    except TraceError:
        return  # a dropout window longer than the horizon: legitimately dead
    assert t >= t0
    assert tr.energy_nj(t0, t) >= needed - 1e-6


def test_long_family_is_lazy_at_hour_scale():
    """mc-rf-long covers an hour in tens of thousands of segments, and
    only generates what queries demand."""
    tr = make_trace("mc-rf-long", 5)
    primed = len(tr.starts)
    hour_ns = 3_600 * 10**9
    tr.power_w(hour_ns)
    n = len(tr.starts)
    assert n > primed
    assert 30_000 < n < 400_000  # ms-scale segments, not the ~10M of us-scale
    # the final segment *covers* the hour mark; its start may sit up to
    # one segment duration (<= 60 ms, pre-jitter) before it
    assert tr.starts[-1] >= hour_ns - 10**8


def test_ensemble_mean_tracks_base_family():
    """Jitter + dropout perturb the operating point, they don't replace
    it: ensemble mean power stays in a band around the named source, and
    the home > office > mobile stability ordering survives."""
    def mean_w(tr, horizon=2 * 10**7):
        return tr.energy_nj(0, horizon) / horizon

    bands = {"mc-rf-home": (0.25, 0.75), "mc-rf-office": (0.15, 0.65),
             "mc-rf-mobile": (0.10, 0.55)}
    means = {}
    for fam, (lo, hi) in bands.items():
        m = sum(mean_w(make_trace(fam, s)) for s in range(6)) / 6
        means[fam] = m
        assert lo < m < hi, f"{fam}: ensemble mean {m:.3f} outside ({lo}, {hi})"
    assert means["mc-rf-home"] > means["mc-rf-office"] > means["mc-rf-mobile"]


class TestRecorded:
    def _write(self, tmp_path, starts, powers):
        path = str(tmp_path / "rec.csv")
        save_csv(PowerTrace(starts, powers, "rec"), path)
        return path

    def test_round_trip_unrotated(self, tmp_path):
        path = self._write(tmp_path, [0, 100, 250], [0.1, 0.4, 0.2])
        tr = make_trace(f"csv:{path}")
        assert tr.power_w(0) == 0.1
        assert tr.power_w(150) == 0.4
        assert tr.power_w(300) == 0.2
        # period = 250 + mean duration (125) = 375; tile 2 repeats tile 1
        assert tr.power_w(375) == 0.1
        assert tr.power_w(375 + 150) == 0.4

    def test_seed_rotates_phase_but_preserves_energy(self, tmp_path,
                                                     monkeypatch):
        # the trace name seeds the phase, so it must not carry the
        # per-run tmp directory: seeds 1, 2, 9 give two distinct
        # powers at t=40 for "csv:rec.csv"
        self._write(tmp_path, [0, 100, 250], [0.1, 0.4, 0.2])
        monkeypatch.chdir(tmp_path)
        path = "rec.csv"
        period = 375
        base = make_trace(f"csv:{path}")
        e0 = base.energy_nj(0, 4 * period)
        for seed in (1, 2, 9):
            tr = make_trace(f"csv:{path}", seed)
            assert isinstance(tr, RecordedTrace)
            # whole periods carry the full recording once each, whatever
            # the rotation - the seed moves the phase, not the histogram
            assert tr.energy_nj(0, 4 * period) == pytest.approx(e0)
        powers_by_seed = {s: make_trace(f"csv:{path}", s).power_w(40)
                          for s in (1, 2, 9)}
        assert len(set(powers_by_seed.values())) > 1  # phases really differ

    def test_deterministic_per_seed_any_query_order(self, tmp_path):
        path = self._write(tmp_path, [0, 100, 250], [0.1, 0.4, 0.2])
        a = make_trace(f"csv:{path}", 7)
        b = make_trace(f"csv:{path}", 7)
        b.power_w(10**6)  # far first
        a.power_w(10**3)
        a.power_w(10**6)
        assert a.starts == b.starts
        assert a.powers == b.powers

    def test_single_segment_recording(self, tmp_path):
        path = self._write(tmp_path, [0], [0.3])
        tr = make_trace(f"csv:{path}", 3)
        assert tr.power_w(0) == 0.3
        assert tr.power_w(10**8) == 0.3

    def test_bad_prefix_raises(self):
        with pytest.raises(TraceError):
            recorded_trace("not-a-csv-family")

    def test_missing_file_raises(self):
        with pytest.raises(OSError):
            make_trace("csv:/nonexistent/rec.csv")

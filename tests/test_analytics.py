import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedstudy import (
    MANEUVERS,
    ManeuverClass,
    Phase,
    PhaseSummary,
    build_phase_summary,
    compare_phases,
    delta_mismatches,
    histogram,
    mean_speed,
    percent_change,
    percentile_85,
)
from speedstudy.analytics import MAX_HISTOGRAM_BINS
from speedstudy.cli import _json_text
from speedstudy.compare import load_summary, round1
from speedstudy.errors import (
    ConfigError,
    EmptyInput,
    InvariantViolation,
    LocationMismatch,
    NonPositiveBaseline,
)


def summary(loc, phase, mean, p85, count=100, hours=10.0):
    return PhaseSummary(loc, phase, count, hours, mean, p85)


def write_summary(directory: Path, s: PhaseSummary) -> Path:
    """s written under directory as analyze writes it."""
    path = directory / f"{s.phase.value}_summary.json"
    path.write_text(_json_text(s.to_json_dict()), encoding="utf-8")
    return path


def oracle_p85(values):
    """Brute force: pure-Python sort, rank 0.85*(n-1), clamped interpolation."""
    v = sorted(float(x) for x in values)
    rank = 0.85 * (len(v) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return v[lo]
    return min(max(v[lo] + (rank - lo) * (v[hi] - v[lo]), v[lo]), v[hi])


class TestMean:
    def test_three_values(self):
        assert mean_speed([10.0, 20.0, 30.0]) == 20.0

    def test_singleton(self):
        assert mean_speed([17.3]) == 17.3

    def test_sampling_oracle(self, rng):
        draws = rng.uniform(20, 30, 1000)
        assert abs(mean_speed(draws) - 25.0) < 0.5

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mean_speed([])


class TestPercentile:
    def test_singleton(self):
        assert percentile_85([10.0]) == 10.0

    def test_uniform_grid(self):
        assert percentile_85(list(range(101))) == 85.0

    def test_matches_oracle_exactly(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 101))
            values = rng.uniform(0, 60, n)
            assert percentile_85(values) == oracle_p85(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1e4), min_size=1, max_size=200))
    def test_property_oracle_and_bounds(self, values):
        got = percentile_85(values)
        assert got == oracle_p85(values)
        assert min(values) <= got <= max(values)

    def test_permutation_invariance(self, rng):
        values = list(rng.uniform(0, 50, 40))
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert percentile_85(values) == percentile_85(shuffled)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            percentile_85([])


class TestHistogram:
    def test_example_bins(self):
        bins = dict(histogram([0.5, 1.5, 1.6]))
        assert bins[0.0] == 1
        assert bins[1.0] == 2

    def test_empty(self):
        assert histogram([]) == ()

    def test_counting_oracle(self, rng):
        speeds = rng.uniform(0, 45, 500)
        bins = dict(histogram(speeds))
        for lo, count in bins.items():
            assert count == int(np.sum((speeds >= lo) & (speeds < lo + 1.0)))
        assert sum(bins.values()) == 500

    def test_merge_equals_concatenation(self, rng):
        a = rng.uniform(0, 40, 200)
        b = rng.uniform(5, 50, 300)
        merged = {}
        for lo, c in histogram(a) + histogram(b):
            merged[lo] = merged.get(lo, 0) + c
        combined = {lo: c for lo, c in histogram(np.concatenate([a, b])) if c}
        assert {k: v for k, v in merged.items() if v} == combined

    def test_too_many_or_unindexable_bins_refused(self):
        assert len(histogram([0.0, MAX_HISTOGRAM_BINS - 1.0])) == MAX_HISTOGRAM_BINS
        assert len(histogram([-0.5, MAX_HISTOGRAM_BINS - 1.5])) == MAX_HISTOGRAM_BINS
        for values in (
            [0.0, float(MAX_HISTOGRAM_BINS)],
            [-0.5, MAX_HISTOGRAM_BINS - 0.5],
            [12.0, 4.2e6],  # anchors near the horizon project kilometres apart
            [1e300],
            [-1e300],
            [float("nan")],
        ):
            with pytest.raises(ConfigError, match="more than 100,000 one-mph bins") as refused:
                histogram(values)
            assert f"speeds {min(values)!r} to {max(values)!r} mph" in str(refused.value)


class TestRound1:
    def test_half_away_from_zero(self):
        assert round1(0.05) == 0.1
        assert round1(-0.05) == -0.1
        assert round1(2.25) == 2.3
        assert round1(-2.25) == -2.3
        assert round1(1.04) == 1.0

    def test_float_artifacts(self):
        assert round1(20.9 - 25.6) == -4.7
        assert round1(20.8 - 25.6) == -4.8

    @pytest.mark.parametrize("value", [2.0**52, -(2.0**52) - 2, 1e27, -1e300, 1.7e308])
    def test_whole_floats_beyond_decimal_precision(self, value):
        assert round1(value) == value

    @pytest.mark.parametrize("value", [-0.0, -0.04, 0.04])
    def test_zero_never_prints_negative(self, value):
        assert f"{round1(value):.1f}" == "0.0"


class TestCompare:
    def test_mean_row_example(self):
        rows = compare_phases(
            summary(1, Phase.PRE, 25.6, 29.2),
            summary(1, Phase.POST_W1, 20.9, 25.8),
            summary(1, Phase.POST_W2, 20.8, 25.9),
        )
        mean_row = rows[0]
        assert (mean_row.delta_w1, mean_row.delta_w2) == (-4.7, -4.8)

    def test_p85_row_example(self):
        _, p85_row = compare_phases(
            summary(8, Phase.PRE, 24.6, 32.0),
            summary(8, Phase.POST_W1, 21.4, 26.5),
            summary(8, Phase.POST_W2, 21.3, 26.5),
        )
        assert (p85_row.delta_w1, p85_row.delta_w2) == (-5.5, -5.5)

    def test_identical_summaries_zero_delta(self):
        s = summary(2, Phase.PRE, 20.0, 25.0)
        w1 = summary(2, Phase.POST_W1, 20.0, 25.0)
        w2 = summary(2, Phase.POST_W2, 20.0, 25.0)
        for row in compare_phases(s, w1, w2):
            assert row.delta_w1 == 0.0
            assert row.delta_w2 == 0.0

    def test_location_mismatch(self):
        with pytest.raises(LocationMismatch):
            compare_phases(
                summary(1, Phase.PRE, 20.0, 25.0),
                summary(2, Phase.POST_W1, 20.0, 25.0),
                summary(1, Phase.POST_W2, 20.0, 25.0),
            )

    def test_empty_phase_rejected(self):
        with pytest.raises(EmptyInput):
            compare_phases(
                PhaseSummary(1, Phase.PRE, 0, 1.0, None, None),
                summary(1, Phase.POST_W1, 20.0, 25.0),
                summary(1, Phase.POST_W2, 20.0, 25.0),
            )

    def test_delta_mismatch_flagging(self):
        _, p85_row = compare_phases(
            summary(6, Phase.PRE, 13.9, 20.4),
            summary(6, Phase.POST_W1, 12.1, 18.5),
            summary(6, Phase.POST_W2, 15.7, 24.6),
        )
        assert p85_row.delta_w1 == -1.9
        issues = delta_mismatches(p85_row, reported_w1=-1.7, reported_w2=4.2)
        assert len(issues) == 1
        assert "computed -1.9" in issues[0] and "reported -1.7" in issues[0]
        assert delta_mismatches(p85_row, reported_w1=-1.9, reported_w2=4.2) == []


class TestPercentChange:
    @pytest.mark.parametrize(
        "pre,post,expected",
        [
            (25.6, 20.8, -18.75),
            (32.6, 27.2, -16.56),
            (21.5, 17.2, -20.0),
            (32.0, 26.5, -17.19),
        ],
    )
    def test_published_reduction_extremes(self, pre, post, expected):
        assert percent_change(pre, post) == pytest.approx(expected, abs=0.01)

    def test_no_change_is_exactly_zero(self):
        assert percent_change(21.7, 21.7) == 0.0

    def test_nonpositive_baseline(self):
        with pytest.raises(NonPositiveBaseline):
            percent_change(0.0, 10.0)

    def test_change_beyond_float_range(self):
        with pytest.raises(NonPositiveBaseline, match="overflows a float"):
            percent_change(1e-310, 20.0)


class TestPhaseSummary:
    def test_single_vehicle(self):
        s = build_phase_summary(1, Phase.PRE, [20.0], hours=1.0)
        assert s.sample_count == 1
        assert s.mean_mph == 20.0
        assert s.p85_mph == 20.0
        assert dict(s.histogram)[20.0] == 1

    def test_empty_phase_summary(self):
        codes = np.array([], dtype=np.int8)
        s = build_phase_summary(1, Phase.PRE, [], hours=1.0, maneuvers=codes)
        assert (s.sample_count, s.mean_mph, s.p85_mph, s.histogram) == (0, None, None, ())
        assert s.maneuver_shares is None
        assert "maneuvers" not in s.to_json_dict()

    def test_maneuver_shares_wired(self):
        codes = np.array(
            [MANEUVERS.index(ManeuverClass.PASS_THROUGH), MANEUVERS.index(ManeuverClass.SLOW_DOWN)],
            dtype=np.int8,
        )
        s = build_phase_summary(1, Phase.PRE, [20.0, 7.0], hours=2.0, maneuvers=codes)
        assert s.maneuver_shares["pass_through"] == 50.0
        assert s.maneuver_shares["slow_down"] == 50.0
        assert s.maneuver_shares["stop_and_go"] == 0.0

    def test_histogram_total_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            PhaseSummary(1, Phase.PRE, 5, 1.0, 20.0, 20.0, histogram=((20.0, 1),))

    def test_json_round_trip(self, tmp_path):
        s = build_phase_summary(
            3,
            Phase.POST_W1,
            [18.0, 22.5, 31.0],
            hours=12.5,
            maneuvers=np.array([MANEUVERS.index(ManeuverClass.PASS_THROUGH)], dtype=np.int8),
        )
        back = load_summary(write_summary(tmp_path, s), Phase.POST_W1)
        assert back == s
        assert back.histogram == s.histogram
        assert back.maneuver_shares == s.maneuver_shares

    def test_summary_without_histogram_round_trips(self, tmp_path):
        # criterion 1 builds its summaries from the published tables, without bins
        s = PhaseSummary(5, Phase.POST_W2, 412, 81.5, 21.3, 26.0)
        assert "histogram" not in s.to_json_dict()
        assert load_summary(write_summary(tmp_path, s), Phase.POST_W2) == s

    @settings(max_examples=60, deadline=None)
    @given(
        speeds=st.lists(st.floats(0.0, 150.0), max_size=30),
        codes=st.none() | st.lists(st.integers(0, len(MANEUVERS) - 1), max_size=30),
        hours=st.floats(1e-6, 1e6),
        location_id=st.integers(-(2**63), 2**63 - 1),
        phase=st.sampled_from(Phase),
    )
    def test_load_summary_reads_back_what_analyze_writes(
        self, speeds, codes, hours, location_id, phase
    ):
        maneuvers = None if codes is None else np.array(codes, dtype=np.int8)
        s = build_phase_summary(location_id, phase, speeds, hours, maneuvers=maneuvers)
        with tempfile.TemporaryDirectory() as tmp:
            assert load_summary(write_summary(Path(tmp), s), phase) == s

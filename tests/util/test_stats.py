"""Tests for counters, latency stats, histograms and stat groups."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    Counter,
    Histogram,
    LatencyStat,
    StatGroup,
    geometric_mean,
)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single(self):
        assert geometric_mean([3.7]) == pytest.approx(3.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) <= g * (1 + 1e-9)
        assert g <= max(values) * (1 + 1e-9)


class TestCounter:
    def test_starts_zero(self):
        assert Counter("x").value == 0

    def test_add_default_and_amount(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert int(c) == 5

    def test_reset(self):
        c = Counter("x")
        c.add(3)
        c.reset()
        assert c.value == 0


class TestLatencyStat:
    def test_empty_summary_is_zero(self):
        stat = LatencyStat("t")
        assert stat.mean == 0.0
        assert stat.percentile(50) == 0.0

    def test_mean_min_max(self):
        stat = LatencyStat("t")
        for v in (1, 2, 3, 10):
            stat.record(v)
        assert stat.mean == pytest.approx(4.0)
        assert stat.minimum == 1
        assert stat.maximum == 10

    def test_percentile_nearest_rank(self):
        stat = LatencyStat("t")
        for v in range(1, 11):
            stat.record(v)
        assert stat.percentile(50) == 5
        assert stat.percentile(100) == 10
        assert stat.percentile(0) == 1

    def test_percentile_range_checked(self):
        stat = LatencyStat("t")
        stat.record(1)
        with pytest.raises(ValueError):
            stat.percentile(101)

    def test_percentile_range_checked_even_when_empty(self):
        # Historically an out-of-range q on an empty stat returned 0.0
        # silently; a bad quantile is a caller bug regardless of count.
        stat = LatencyStat("t")
        with pytest.raises(ValueError):
            stat.percentile(-1)
        with pytest.raises(ValueError):
            stat.percentile(100.5)

    def test_nan_rejected(self):
        stat = LatencyStat("t")
        with pytest.raises(ValueError):
            stat.record(math.nan)
        assert stat.count == 0

    def test_sorted_cache_invalidated_by_record(self):
        stat = LatencyStat("t")
        stat.record(10)
        assert stat.percentile(50) == 10
        stat.record(1)
        stat.record(2)
        assert stat.percentile(0) == 1
        assert stat.percentile(100) == 10

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_percentiles_bounded_by_extremes(self, values):
        stat = LatencyStat("t")
        for v in values:
            stat.record(v)
        for q in (0, 25, 50, 75, 100):
            assert stat.minimum <= stat.percentile(q) <= stat.maximum

    def test_summary_keys(self):
        stat = LatencyStat("t")
        stat.record(2)
        assert set(stat.summary()) == {"count", "mean", "min", "p50", "p95", "max"}

    @given(
        st.one_of(
            # Cycle counts: few distinct values, many repeats.
            st.lists(st.integers(-50, 400), min_size=1, max_size=200),
            st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
            st.lists(
                st.one_of(st.integers(-5, 5), st.sampled_from([0.5, 2.0, -0.0, 3.25])),
                min_size=1, max_size=80,
            ),
        )
    )
    def test_counted_samples_match_a_sorted_list(self, values):
        # The value -> count table against the list of samples it
        # replaced: same numbers, and floats throughout.
        stat = LatencyStat("t")
        for v in values:
            stat.record(v)
        ordered = sorted(float(v) for v in values)
        n = len(ordered)
        assert stat.count == n
        assert stat.minimum == ordered[0] and type(stat.minimum) is float
        assert stat.maximum == ordered[-1] and type(stat.maximum) is float
        for q in (0, 50, 95, 100):
            nearest_rank = ordered[max(0, math.ceil(q / 100.0 * n) - 1)]
            assert stat.percentile(q) == nearest_rank
            assert type(stat.percentile(q)) is float
        assert type(stat.mean) is float
        if all(v == int(v) for v in values):
            assert stat.mean == sum(ordered) / n  # integer sums are exact
        else:
            assert stat.mean == pytest.approx(math.fsum(ordered) / n, rel=1e-9, abs=1e-6)
        assert [type(v) for v in stat.summary().values()] == [int] + [float] * 5

    def test_memory_follows_distinct_values(self):
        stat = LatencyStat("t")
        for i in range(10_000):
            stat.record(i % 7)
        assert stat.count == 10_000
        assert len(stat._counts) == 7


class TestHistogram:
    def test_binning(self):
        h = Histogram("h", 0, 100, 10)
        h.record(5)    # bin 0
        h.record(15)   # bin 1
        h.record(95)   # bin 9
        assert h.bins[0] == 1 and h.bins[1] == 1 and h.bins[9] == 1

    def test_overflow_bin(self):
        h = Histogram("h", 0, 10, 5)
        h.record(10)
        h.record(1000)
        assert h.bins[5] == 2

    def test_underflow_clamped(self):
        h = Histogram("h", 0, 10, 5)
        h.record(-3)
        assert h.bins[0] == 1

    def test_fractions_sum_to_one(self):
        h = Histogram("h", 0, 10, 5)
        for v in (0, 3, 5, 100):
            h.record(v)
        assert sum(h.fractions()) == pytest.approx(1.0)

    def test_fractions_empty(self):
        assert sum(Histogram("h", 0, 10, 5).fractions()) == 0.0

    def test_mode_fraction(self):
        h = Histogram("h", 0, 10, 2)
        for v in (1, 2, 3, 7):
            h.record(v)
        assert h.mode_fraction() == pytest.approx(0.75)

    def test_edges(self):
        h = Histogram("h", 0, 10, 2)
        assert h.edges() == [0, 5, 10]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Histogram("h", 5, 5, 2)
        with pytest.raises(ValueError):
            Histogram("h", 0, 10, 0)

    @given(st.lists(st.floats(min_value=-50, max_value=500), max_size=60))
    def test_count_conserved(self, values):
        h = Histogram("h", 0, 100, 7)
        for v in values:
            h.record(v)
        assert sum(h.bins) == h.count == len(values)

    def test_float_edge_just_below_hi_stays_in_last_regular_bin(self):
        # (value - lo) / bin_width can round up to nbins for values a few
        # ulps below hi; those must land in the last regular bin, not
        # raise IndexError or spill into overflow.
        h = Histogram("h", 0.0, 0.3, 3)
        h.record(math.nextafter(0.3, 0.0))
        assert h.bins[2] == 1
        assert h.bins[3] == 0

    def test_nan_rejected(self):
        h = Histogram("h", 0, 10, 5)
        with pytest.raises(ValueError):
            h.record(math.nan)
        assert h.count == 0

    @given(st.floats(min_value=-1e9, max_value=1e9),
           st.floats(min_value=1e-6, max_value=1e9),
           st.integers(min_value=1, max_value=40),
           st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12), max_size=40))
    def test_record_never_raises_for_finite_input(self, lo, width, nbins, values):
        h = Histogram("h", lo, lo + width, nbins)
        for v in values:
            h.record(v)
        assert sum(h.bins) == len(values)


class TestStatGroup:
    def test_counters_cached(self):
        g = StatGroup("g")
        assert g.counter("a") is g.counter("a")

    def test_nested_groups(self):
        g = StatGroup("top")
        g.group("net").counter("sent").add(3)
        assert g.as_dict()["net"]["sent"] == 3

    def test_as_dict_latency(self):
        g = StatGroup("g")
        g.latency("lat").record(7)
        assert g.as_dict()["lat"]["mean"] == 7

    def test_as_dict_histogram(self):
        g = StatGroup("g")
        g.histogram("h", 0, 10, 2).record(1)
        assert g.as_dict()["h"]["count"] == 1

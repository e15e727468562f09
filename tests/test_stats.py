"""Tests for counters, ratios, groups and confidence intervals."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.stats.confidence import ConfidenceInterval, mean_confidence_interval
from repro.stats.counters import Counter, RatioStat, StatGroup


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("hits").value == 0

    def test_increment(self):
        counter = Counter("hits")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("hits").increment(-1)

    def test_reset(self):
        counter = Counter("hits")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0

    def test_repr_includes_name(self):
        assert "hits" in repr(Counter("hits"))


class TestRatioStat:
    def test_empty_ratio_is_zero(self):
        assert RatioStat("acc").value == 0.0

    def test_record(self):
        ratio = RatioStat("acc")
        ratio.record(True)
        ratio.record(False)
        ratio.record(True)
        assert ratio.value == pytest.approx(2 / 3)
        assert ratio.percent == pytest.approx(200 / 3)

    def test_add(self):
        ratio = RatioStat("acc")
        ratio.add(9, 10)
        assert ratio.value == pytest.approx(0.9)

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            RatioStat("acc").add(-1, 2)

    def test_reset(self):
        ratio = RatioStat("acc")
        ratio.record(True)
        ratio.reset()
        assert ratio.denominator == 0
        assert ratio.value == 0.0


class TestStatGroup:
    def test_set_get(self):
        group = StatGroup("cache")
        group.set("hits", 10)
        assert group.get("hits") == 10
        assert "hits" in group
        assert len(group) == 1

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            StatGroup("cache").get("nope")

    def test_merge_child_prefixes_names(self):
        parent = StatGroup("system")
        child = StatGroup("l2")
        child.set("misses", 3)
        parent.merge_child(child)
        assert parent.get("l2.misses") == 3

    def test_as_dict_is_copy(self):
        group = StatGroup("cache")
        group.set("hits", 1)
        copy = group.as_dict()
        copy["hits"] = 99
        assert group.get("hits") == 1

    def test_items_order(self):
        group = StatGroup("cache")
        group.set("a", 1)
        group.set("b", 2)
        assert [k for k, _ in group.items()] == ["a", "b"]


class TestConfidence:
    def test_single_sample_zero_width(self):
        interval = mean_confidence_interval([5.0])
        assert interval.mean == 5.0
        assert interval.half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_identical_samples_zero_width(self):
        interval = mean_confidence_interval([2.0] * 10)
        assert interval.half_width == pytest.approx(0.0)
        assert interval.contains(2.0)

    def test_known_small_sample(self):
        # mean 3, sample std 1, n=5 -> half width = 2.776 / sqrt(5)
        interval = mean_confidence_interval([2.0, 2.0, 3.0, 4.0, 4.0])
        assert interval.mean == pytest.approx(3.0)
        assert interval.half_width == pytest.approx(2.776 * 1.0 / 5 ** 0.5, rel=1e-3)

    def test_bounds_and_containment(self):
        interval = ConfidenceInterval(mean=10.0, half_width=2.0)
        assert interval.lower == 8.0
        assert interval.upper == 12.0
        assert interval.contains(9.5)
        assert not interval.contains(13.0)
        assert interval.relative_error == pytest.approx(0.2)

    def test_zero_mean_relative_error(self):
        # Undecidable: an unconverged measurement of a zero-mean quantity
        # must not report itself as converged (relative error 0).
        assert ConfidenceInterval(mean=0.0, half_width=1.0).relative_error == math.inf
        assert ConfidenceInterval(mean=0.0, half_width=0.0).relative_error == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_mean_always_inside_interval(self, samples):
        interval = mean_confidence_interval(samples)
        assert interval.lower <= interval.mean <= interval.upper

    def test_more_samples_narrow_interval(self):
        few = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        many = mean_confidence_interval([1.0, 2.0, 3.0, 4.0] * 10)
        assert many.half_width < few.half_width


class TestConfidenceEdgeCases:
    """Sampling-driver edge cases: n=1, zero variance, mean near zero."""

    def test_single_window_never_reports_converged_error(self):
        # n=1 yields a zero-width interval; the adaptive stopper must not
        # read that as precision (it refuses to converge below 2 windows).
        from repro.stats.sampling import AdaptiveStopper, WindowSeries

        series = WindowSeries("miss")
        series.add(0, 0.25)
        assert series.interval().half_width == 0.0
        assert not AdaptiveStopper().converged(series)

    def test_zero_variance_converges_immediately(self):
        from repro.stats.sampling import AdaptiveStopper, WindowSeries

        series = WindowSeries("miss")
        for i in range(2):
            series.add(i, 0.125)
        assert AdaptiveStopper().converged(series)

    def test_near_zero_mean_needs_absolute_floor(self):
        from repro.stats.sampling import AdaptiveStopper, WindowSeries

        deltas = WindowSeries("delta")
        for i, value in enumerate([1e-9, -1e-9, 2e-9, -2e-9]):
            deltas.add(i, value)
        # Relative criterion alone can never converge (mean ~ 0)...
        assert not AdaptiveStopper().converged(deltas)
        assert deltas.interval().relative_error > 1.0
        # ...but an absolute floor sized to the quantity decides it.
        assert AdaptiveStopper(absolute_floor=1e-6).converged(deltas)

    def test_interval_of_empty_series_rejected(self):
        from repro.stats.sampling import WindowSeries

        with pytest.raises(ValueError):
            WindowSeries("empty").interval()

    def test_duplicate_window_rejected(self):
        from repro.stats.sampling import WindowSeries

        series = WindowSeries("m")
        series.add(3, 1.0)
        with pytest.raises(ValueError):
            series.add(3, 2.0)


class TestMatchedPairOrderIndependence:
    """Property: aggregation must not depend on measurement order."""

    @given(
        values=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                        min_size=2, max_size=40),
        seed=st.integers(0, 2 ** 16),
    )
    def test_shuffled_insertion_gives_identical_aggregates(self, values, seed):
        import random

        from repro.stats.sampling import WindowSeries, matched_pair_deltas

        indexed = list(enumerate(values))
        shuffled = indexed[:]
        random.Random(seed).shuffle(shuffled)

        def build(pairs, side):
            series = WindowSeries("s")
            for index, pair in pairs:
                series.add(index, pair[side])
            return series

        ordered = matched_pair_deltas(build(indexed, 0), build(indexed, 1))
        scrambled = matched_pair_deltas(build(shuffled, 0), build(shuffled, 1))
        assert ordered.values() == scrambled.values()
        assert ordered.interval() == scrambled.interval()

    @given(
        common=st.lists(st.floats(-100, 100), min_size=2, max_size=20),
        extra=st.integers(0, 5),
    )
    def test_unmatched_windows_are_ignored(self, common, extra):
        from repro.stats.sampling import WindowSeries, matched_pair_deltas

        a = WindowSeries("a")
        b = WindowSeries("b")
        for i, value in enumerate(common):
            a.add(i, value + 1.0)
            b.add(i, value)
        for j in range(extra):  # windows only one side measured
            a.add(1000 + j, 123.0)
        deltas = matched_pair_deltas(a, b)
        assert len(deltas) == len(common)
        assert all(d == pytest.approx(1.0) for d in deltas.values())

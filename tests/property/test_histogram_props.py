"""Property-based tests for histograms (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import build_equi_depth, build_maxdiff

values_strategy = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=300
)
buckets_strategy = st.integers(min_value=1, max_value=40)


@st.composite
def histogram_and_values(draw):
    values = np.asarray(draw(values_strategy))
    buckets = draw(buckets_strategy)
    kind = draw(st.sampled_from([build_equi_depth, build_maxdiff]))
    return kind(values, buckets), values


class TestHistogramInvariants:
    @given(histogram_and_values())
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_rows(self, pair):
        hist, values = pair
        assert hist.counts.sum() == values.shape[0]

    @given(histogram_and_values())
    @settings(max_examples=60, deadline=None)
    def test_distincts_sum_to_ndv(self, pair):
        hist, values = pair
        assert hist.distinct_count == len(np.unique(values))

    @given(histogram_and_values())
    @settings(max_examples=60, deadline=None)
    def test_buckets_sorted_disjoint(self, pair):
        hist, _ = pair
        for i in range(hist.bucket_count):
            assert hist.lows[i] <= hist.highs[i]
            if i + 1 < hist.bucket_count:
                assert hist.highs[i] < hist.lows[i + 1]

    @given(histogram_and_values(), st.integers(-1200, 1200))
    @settings(max_examples=60, deadline=None)
    def test_equality_selectivity_in_unit_interval(self, pair, probe):
        hist, _ = pair
        assert 0.0 <= hist.selectivity_equal(probe) <= 1.0

    @given(
        histogram_and_values(),
        st.integers(-1200, 1200),
        st.integers(-1200, 1200),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_selectivity_in_unit_interval(self, pair, a, b):
        hist, _ = pair
        low, high = min(a, b), max(a, b)
        assert 0.0 <= hist.selectivity_range(low=low, high=high) <= 1.0

    @given(histogram_and_values(), st.integers(-1200, 1200))
    @settings(max_examples=60, deadline=None)
    def test_range_monotone_in_upper_bound(self, pair, split):
        hist, _ = pair
        narrower = hist.selectivity_range(high=split)
        wider = hist.selectivity_range(high=split + 100)
        assert wider >= narrower - 1e-12

    @given(histogram_and_values())
    @settings(max_examples=60, deadline=None)
    def test_full_range_covers_everything(self, pair):
        hist, values = pair
        assert hist.selectivity_range(
            low=float(values.min()), high=float(values.max())
        ) >= 0.999

    @given(histogram_and_values(), st.integers(-1200, 1200))
    @settings(max_examples=40, deadline=None)
    def test_point_range_matches_equality(self, pair, probe):
        """selectivity(= v) should not exceed selectivity(v <= col <= v)
        by more than interpolation error allows in the other direction."""
        hist, _ = pair
        eq = hist.selectivity_equal(probe)
        point_range = hist.selectivity_range(low=probe, high=probe)
        # a single-value bucket gives equality == range; wide buckets
        # interpolate the range down to ~0, so only a loose bound holds
        assert eq <= 1.0 and point_range <= 1.0


def _full_loop_range(hist, low, high, low_inclusive, high_inclusive):
    """``selectivity_range`` as it was before it windowed the buckets:
    every bucket visited, in order, with the same per-bucket formula."""
    if hist.row_count == 0 or hist.bucket_count == 0:
        return 0.0
    total = 0.0
    for i in range(hist.bucket_count):
        overlap = hist._overlap_fraction(
            hist.lows[i],
            hist.highs[i],
            low,
            high,
            low_inclusive,
            high_inclusive,
        )
        total += hist.counts[i] * overlap
    return hist._clamp(total / hist.row_count)


def bound_strategy(hist):
    """No bound, any number, or a bucket edge exactly (where inclusive
    bounds and point buckets decide the result)."""
    edges = sorted(set(hist.lows.tolist()) | set(hist.highs.tolist()))
    return st.one_of(
        st.none(),
        st.integers(-1600, 1600),
        st.floats(-1600.0, 1600.0, allow_nan=False),
        st.sampled_from(edges),
    )


@st.composite
def maintained_histogram_and_range(draw):
    """A built histogram, maybe with sample-scaled counts, maybe after
    incremental inserts that stretch its edge buckets, and a range."""
    hist, _ = draw(histogram_and_values())
    if draw(st.booleans()):
        hist.counts = hist.counts * draw(st.floats(1.0, 40.0))
    inserted = draw(st.lists(st.integers(-1500, 1500), max_size=30))
    if inserted:
        hist.add_values(inserted)
    low, high = draw(bound_strategy(hist)), draw(bound_strategy(hist))
    return hist, (low, high, draw(st.booleans()), draw(st.booleans()))


class TestWindowedRange:
    @given(maintained_histogram_and_range())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_full_bucket_loop(self, case):
        hist, args = case
        assert hist.selectivity_range(*args) == _full_loop_range(
            hist, *args
        )

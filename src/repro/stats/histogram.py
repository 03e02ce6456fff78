"""Histograms over a single (encoded) column.

Two classic variants (paper Sec 3: "Equi-depth, MaxDiff"):

* :class:`EquiDepthHistogram` — bucket boundaries at value quantiles, so
  every bucket holds roughly the same number of rows.
* :class:`MaxDiffHistogram` — bucket boundaries at the largest jumps in
  per-value frequency (Poosala et al., SIGMOD '96), which isolates heavy
  hitters into their own buckets and is far more accurate on skewed data.

Both expose the same estimation interface the optimizer consumes:
``selectivity_equal``, ``selectivity_range``, ``selectivity_in``, and
``distinct_count``.  All estimates assume uniformity *within* a bucket,
which is the textbook model.
"""

from __future__ import annotations

import copy
import enum
from typing import Optional

import numpy as np

from repro.errors import StatisticsError
from repro.storage.join_index import counting_pays


class HistogramKind(enum.Enum):
    EQUI_DEPTH = "equi_depth"
    MAXDIFF = "maxdiff"


class Histogram:
    """Base histogram: parallel bucket arrays plus summary counters.

    Buckets are half-open on neither side: bucket *i* covers the closed
    value interval ``[lows[i], highs[i]]`` and holds ``counts[i]`` rows of
    ``distincts[i]`` distinct values.  Buckets are disjoint and sorted.
    """

    kind: HistogramKind

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        counts: np.ndarray,
        distincts: np.ndarray,
        row_count: int,
    ) -> None:
        self.lows = np.asarray(lows, dtype=np.float64)
        self.highs = np.asarray(highs, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.float64)
        self.distincts = np.asarray(distincts, dtype=np.float64)
        self.row_count = int(row_count)
        self._counts_at_build = None  # set on first add_values()
        self._rows_at_build = int(row_count)
        if not (
            self.lows.shape
            == self.highs.shape
            == self.counts.shape
            == self.distincts.shape
        ):
            raise StatisticsError("histogram bucket arrays must align")
        if self.row_count > 0 and self.lows.size == 0:
            raise StatisticsError("non-empty data produced zero buckets")

    # ------------------------------------------------------------------
    # summary properties
    # ------------------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        return int(self.lows.shape[0])

    @property
    def distinct_count(self) -> float:
        """Estimated number of distinct values in the column."""
        return float(self.distincts.sum()) if self.bucket_count else 0.0

    @property
    def min_value(self) -> Optional[float]:
        return float(self.lows[0]) if self.bucket_count else None

    @property
    def max_value(self) -> Optional[float]:
        return float(self.highs[-1]) if self.bucket_count else None

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------

    def _clamp(self, fraction: float) -> float:
        return float(min(1.0, max(0.0, fraction)))

    def selectivity_equal(self, value) -> float:
        """Estimated fraction of rows with column == value."""
        if self.row_count == 0:
            return 0.0
        value = float(value)
        idx = self._bucket_of(value)
        if idx is None:
            return 0.0
        distinct = max(1.0, self.distincts[idx])
        return self._clamp(self.counts[idx] / distinct / self.row_count)

    def selectivity_range(
        self,
        low: Optional[float] = None,
        high: Optional[float] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows with column in the interval.

        ``None`` bounds are unbounded.  Within the boundary buckets, the
        covered fraction is linearly interpolated.  Only the buckets that
        can overlap the interval are visited: the sorted buckets before
        the first ``high >= low`` and from the first ``low > high`` on
        would each add exactly ``0.0``.
        """
        if self.row_count == 0 or self.bucket_count == 0:
            return 0.0
        start = 0 if low is None else self.highs.searchsorted(low, "left")
        stop = (
            self.bucket_count
            if high is None
            else self.lows.searchsorted(high, "right")
        )
        total = 0.0
        for i in range(start, stop):
            b_low, b_high = self.lows[i], self.highs[i]
            b_count = self.counts[i]
            overlap = self._overlap_fraction(
                b_low, b_high, low, high, low_inclusive, high_inclusive
            )
            total += b_count * overlap
        return self._clamp(total / self.row_count)

    def selectivity_in(self, values) -> float:
        """Estimated fraction of rows with column in the value list."""
        total = sum(self.selectivity_equal(v) for v in set(values))
        return self._clamp(total)

    def selectivity_not_equal(self, value) -> float:
        return self._clamp(1.0 - self.selectivity_equal(value))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def join_selectivity(self, other: "Histogram") -> float:
        """Equijoin selectivity against another histogram.

        Estimates the join size by aligning the two bucket sets: within
        each overlapping value segment, rows are assumed uniform over the
        segment's distinct values and the containment assumption gives
        ``rows_a * rows_b / max(ndv_a, ndv_b)`` for that segment.  This
        refines the global ``1 / max(ndv)`` rule whenever the two domains
        only partially overlap (e.g. a fact table referencing a slice of
        a dimension).

        Returns the selectivity relative to the cross product.
        """
        if self.row_count == 0 or other.row_count == 0:
            return 0.0
        if self.bucket_count == 0 or other.bucket_count == 0:
            return 0.0
        # pairwise overlap of every (a-bucket, b-bucket) pair, vectorized
        lo = np.maximum(self.lows[:, None], other.lows[None, :])
        hi = np.minimum(self.highs[:, None], other.highs[None, :])
        overlap = np.maximum(hi - lo, 0.0)
        overlapping = hi >= lo
        a_width = np.maximum(self.highs - self.lows, 0.0)[:, None]
        b_width = np.maximum(other.highs - other.lows, 0.0)[None, :]
        # floor each side's covered share at one distinct value's worth:
        # a point bucket (heavy hitter) overlapping a wide bucket still
        # matches that one value's share of the wide bucket's mass
        a_floor = 1.0 / np.maximum(1.0, self.distincts)[:, None]
        b_floor = 1.0 / np.maximum(1.0, other.distincts)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_fraction = np.where(
                a_width > 0,
                np.maximum(overlap / a_width, a_floor),
                1.0,
            )
            b_fraction = np.where(
                b_width > 0,
                np.maximum(overlap / b_width, b_floor),
                1.0,
            )
        a_fraction = np.where(overlapping, a_fraction, 0.0)
        b_fraction = np.where(overlapping, b_fraction, 0.0)
        rows_a = self.counts[:, None] * a_fraction
        rows_b = other.counts[None, :] * b_fraction
        ndv_a = np.maximum(1.0, self.distincts[:, None] * a_fraction)
        ndv_b = np.maximum(1.0, other.distincts[None, :] * b_fraction)
        join_rows = float(
            (rows_a * rows_b / np.maximum(ndv_a, ndv_b))[overlapping].sum()
        )
        cross = self.row_count * other.row_count
        return float(min(1.0, max(0.0, join_rows / cross)))

    # ------------------------------------------------------------------
    # incremental maintenance (paper ref [8], simplified)
    # ------------------------------------------------------------------

    def add_values(self, values) -> None:
        """Fold newly inserted values into the bucket counts in place.

        The Gibbons/Matias/Poosala style of approximate maintenance,
        simplified: each value increments its bucket's count (boundary
        buckets stretch to absorb out-of-range values); per-bucket
        distinct counts are left untouched (they would need a backing
        sample to maintain exactly).  Use :meth:`needs_rebuild` to decide
        when the approximation has degraded enough for a full rebuild.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if self.bucket_count == 0:
            # an empty histogram cannot absorb values approximately
            raise StatisticsError(
                "cannot incrementally maintain an empty histogram"
            )
        if self._counts_at_build is None:
            self._counts_at_build = self.counts.copy()
            self._rows_at_build = self.row_count
        self.lows[0] = min(self.lows[0], float(values.min()))
        self.highs[-1] = max(self.highs[-1], float(values.max()))
        idx = np.searchsorted(self.highs, values, side="left")
        idx = np.minimum(idx, self.bucket_count - 1)
        # gap values: widen the receiving bucket downward
        gap = values < self.lows[idx]
        if gap.any():
            np.minimum.at(self.lows, idx[gap], values[gap])
        np.add.at(self.counts, idx, 1.0)
        self.row_count += int(values.size)

    def with_values(self, values) -> "Histogram":
        """A copy of this histogram with ``values`` folded in
        (:meth:`add_values` on the copy): a reader still holding this one
        sees its arrays unchanged."""
        updated = copy.copy(self)
        # distincts and the build-time baseline are never written in place
        updated.lows = self.lows.copy()
        updated.highs = self.highs.copy()
        updated.counts = self.counts.copy()
        updated.add_values(values)
        return updated

    def needs_rebuild(self, divergence_threshold: float = 0.15) -> bool:
        """Has incremental maintenance degraded this histogram?

        Rebuild when the *inserted* mass is distributed differently from
        the data the histogram was built on: the L-infinity distance
        between the per-bucket share of insertions and the per-bucket
        share at build time exceeds ``divergence_threshold``.  Stationary
        inserts (even into skewed data) track the built shares and never
        trip this; distribution drift does.
        """
        if self._counts_at_build is None or self.bucket_count == 0:
            return False
        inserted = self.row_count - self._rows_at_build
        if inserted < 5 * self.bucket_count:
            return False
        deltas = self.counts - self._counts_at_build
        insert_share = deltas / max(1.0, float(inserted))
        build_share = self._counts_at_build / max(
            1.0, float(self._rows_at_build)
        )
        divergence = float(np.abs(insert_share - build_share).max())
        return divergence > divergence_threshold

    def _bucket_of(self, value: float) -> Optional[int]:
        """Index of the bucket containing ``value``, or None."""
        if self.bucket_count == 0:
            return None
        idx = int(np.searchsorted(self.highs, value, side="left"))
        if idx >= self.bucket_count:
            return None
        if self.lows[idx] <= value <= self.highs[idx]:
            return idx
        return None

    def _overlap_fraction(
        self, b_low, b_high, low, high, low_inclusive, high_inclusive
    ) -> float:
        """Fraction of bucket [b_low, b_high] covered by the query range."""
        effective_low = b_low if low is None else max(b_low, low)
        effective_high = b_high if high is None else min(b_high, high)
        if effective_low > effective_high:
            return 0.0
        width = b_high - b_low
        if width <= 0:
            # single-value bucket: it's in or out
            inside = True
            if low is not None:
                inside &= b_low > low or (low_inclusive and b_low == low)
            if high is not None:
                inside &= b_high < high or (high_inclusive and b_high == high)
            return 1.0 if inside else 0.0
        return (effective_high - effective_low) / width

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(buckets={self.bucket_count}, "
            f"rows={self.row_count}, ndv={self.distinct_count:.0f})"
        )


class EquiDepthHistogram(Histogram):
    kind = HistogramKind.EQUI_DEPTH


class MaxDiffHistogram(Histogram):
    kind = HistogramKind.MAXDIFF


#: float64 holds every integer of this magnitude or less, and not beyond
_MAX_EXACT_INT = 2**53


def _count_column(values: np.ndarray, with_codes: bool):
    """:func:`summarize_column` by counting, for a dense integer column;
    ``None`` when ``values`` is not one."""
    if values.dtype.kind not in "iu" or values.ndim != 1 or not values.size:
        return None
    low, high = int(values.min()), int(values.max())
    if low < -_MAX_EXACT_INT or high > _MAX_EXACT_INT:
        return None  # neighbours collide once compared as float64
    span = high - low + 1
    if not counting_pays(span, values.size):
        return None
    offsets = values.astype(np.int64, copy=False) - low
    table = np.bincount(offsets, minlength=span)
    present = np.flatnonzero(table)
    codes = None
    if with_codes:
        # rank of each present value among them, gathered per row
        codes = (np.cumsum(table != 0) - 1)[offsets]
    return (present + low).astype(np.float64), table[present], codes


def summarize_column(values, with_codes: bool = True):
    """Sorted distinct values (as float64), their frequencies and — with
    ``with_codes`` — each row's index into them as int64, else ``None``.

    Values are compared as float64: int64 values that collide beyond
    2**53 are one value.  A dense integer column is counted
    (:func:`~repro.storage.join_index.counting_pays`); everything else is
    sorted.
    """
    values = np.asarray(values)
    counted = _count_column(values, with_codes)
    if counted is not None:
        return counted
    values = values.astype(np.float64, copy=False)
    if not with_codes:
        return (*np.unique(values, return_counts=True), None)
    distinct, codes, freqs = np.unique(
        values, return_inverse=True, return_counts=True
    )
    return distinct, freqs, codes.astype(np.int64, copy=False)


def summarize(values: np.ndarray):
    """Sorted distinct values (as float64) and their frequencies."""
    return summarize_column(values, with_codes=False)[:2]


def _buckets_from_boundaries(distinct, freqs, starts):
    """Build bucket arrays given start indexes into the distinct array."""
    lows, highs, counts, ndvs = [], [], [], []
    boundaries = list(starts) + [distinct.shape[0]]
    for begin, end in zip(boundaries[:-1], boundaries[1:]):
        if begin >= end:
            continue
        lows.append(distinct[begin])
        highs.append(distinct[end - 1])
        counts.append(freqs[begin:end].sum())
        ndvs.append(end - begin)
    return (
        np.asarray(lows),
        np.asarray(highs),
        np.asarray(counts),
        np.asarray(ndvs),
    )


def _equi_depth_starts(freqs: np.ndarray, buckets: int) -> list:
    """Boundaries at the value quantiles ``b / buckets`` of the rows."""
    cumulative = np.cumsum(freqs)
    target = int(cumulative[-1]) / buckets
    starts = [0]
    for b in range(1, buckets):
        # first distinct value whose cumulative count reaches b * target
        idx = int(np.searchsorted(cumulative, b * target, side="left")) + 1
        if idx > starts[-1] and idx < freqs.shape[0]:
            starts.append(idx)
    return starts


def _maxdiff_starts(freqs: np.ndarray, buckets: int) -> list:
    """Boundaries after the ``buckets - 1`` largest differences in
    frequency between adjacent distinct values."""
    if buckets == 1:
        return [0]
    diffs = np.abs(np.diff(freqs.astype(np.float64)))
    # boundary after position i means a bucket starts at i + 1
    top = np.argsort(-diffs, kind="stable")[: buckets - 1]
    return [0] + sorted(int(i) + 1 for i in top)


_BUILDERS = {
    HistogramKind.EQUI_DEPTH: (EquiDepthHistogram, _equi_depth_starts),
    HistogramKind.MAXDIFF: (MaxDiffHistogram, _maxdiff_starts),
}


def histogram_from_summary(
    distinct: np.ndarray,
    freqs: np.ndarray,
    buckets: int,
    kind: HistogramKind = HistogramKind.MAXDIFF,
) -> Histogram:
    """Histogram with at most ``buckets`` buckets over a column given as
    its :func:`summarize` output, so a caller that already holds the
    sorted distinct values (the statistic builder) does not sort again.
    """
    try:
        cls, starts_of = _BUILDERS[kind]
    except KeyError:
        raise StatisticsError(f"unknown histogram kind {kind!r}") from None
    if distinct.shape[0] == 0:
        empty = np.empty(0)
        return cls(empty, empty, empty, empty, 0)
    buckets = max(1, min(buckets, distinct.shape[0]))
    lows, highs, counts, ndvs = _buckets_from_boundaries(
        distinct, freqs, starts_of(freqs, buckets)
    )
    return cls(lows, highs, counts, ndvs, int(freqs.sum()))


def build_histogram(
    values: np.ndarray,
    buckets: int,
    kind: HistogramKind = HistogramKind.MAXDIFF,
) -> Histogram:
    """Build a histogram of the requested kind."""
    return histogram_from_summary(*summarize(values), buckets, kind)


def build_equi_depth(values: np.ndarray, buckets: int) -> EquiDepthHistogram:
    """Equi-depth histogram with at most ``buckets`` buckets."""
    return build_histogram(values, buckets, HistogramKind.EQUI_DEPTH)


def build_maxdiff(values: np.ndarray, buckets: int) -> MaxDiffHistogram:
    """MaxDiff(V, F) histogram with at most ``buckets`` buckets."""
    return build_histogram(values, buckets, HistogramKind.MAXDIFF)

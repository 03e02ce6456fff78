"""Tests for repro.stats.multidim (joint histograms)."""

import numpy as np
import pytest

from repro.stats.multidim import build_mhist


def _correlated(n=4000, seed=0):
    """y tracks x closely — independence is badly wrong here."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=n)
    y = x + rng.integers(0, 5, size=n)
    return x, y


def _independent(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=n), rng.integers(0, 100, size=n)


def _true_box(x, y, x_lo, x_hi, y_lo, y_hi):
    mask = np.ones(x.shape[0], dtype=bool)
    if x_lo is not None:
        mask &= x >= x_lo
    if x_hi is not None:
        mask &= x <= x_hi
    if y_lo is not None:
        mask &= y >= y_lo
    if y_hi is not None:
        mask &= y <= y_hi
    return float(mask.mean())


class TestConstruction:
    def test_empty_inputs(self):
        hist = build_mhist(np.array([]), np.array([]))
        assert hist.cell_count == 0
        assert hist.selectivity_box(x_lo=0) == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(Exception):
            build_mhist(np.arange(3), np.arange(4))

    def test_counts_cover_all_rows(self):
        x, y = _correlated()
        hist = build_mhist(x, y)
        assert sum(c.count for c in hist.cells) == pytest.approx(x.shape[0])

    def test_full_box_is_one(self):
        x, y = _correlated()
        hist = build_mhist(x, y)
        assert hist.selectivity_box() == pytest.approx(1.0)

    def test_cells_bounded_by_budget(self):
        x, y = _independent()
        hist = build_mhist(x, y, max_cells=16)
        assert hist.cell_count <= 16

    def test_single_point_data(self):
        x = np.full(10, 5.0)
        y = np.full(10, 7.0)
        hist = build_mhist(x, y)
        assert hist.selectivity_box(5, 5, 7, 7) == pytest.approx(1.0)
        assert hist.selectivity_box(0, 1, 0, 1) == 0.0


class TestEstimation:
    @pytest.mark.parametrize("build", [build_mhist])
    def test_box_estimates_bounded(self, build):
        x, y = _correlated()
        hist = build(x, y)
        for box in [(10, 30, 10, 30), (None, 50, 20, None)]:
            sel = hist.selectivity_box(*box)
            assert 0.0 <= sel <= 1.0

    @pytest.mark.parametrize("build", [build_mhist])
    def test_reasonable_on_independent_data(self, build):
        x, y = _independent()
        hist = build(x, y)
        true = _true_box(x, y, 20, 60, 30, 70)
        assert hist.selectivity_box(20, 60, 30, 70) == pytest.approx(
            true, abs=0.12
        )

    def test_joint_beats_independence_on_correlation(self):
        """The reason to build joint histograms at all."""
        x, y = _correlated()
        hist = build_mhist(x, y)
        # anti-correlated box: x small AND y large is (nearly) empty,
        # but independence predicts ~25% of rows
        true = _true_box(x, y, None, 30, 70, None)
        joint_estimate = hist.selectivity_box(
            x_lo=None, x_hi=30, y_lo=70, y_hi=None
        )
        independence_estimate = _true_box(
            x, y, None, 30, None, None
        ) * _true_box(x, y, None, None, 70, None)
        joint_err = abs(joint_estimate - true)
        indep_err = abs(independence_estimate - true)
        assert joint_err < indep_err

    def test_monotone_in_box_width(self):
        x, y = _independent()
        hist = build_mhist(x, y)
        narrow = hist.selectivity_box(20, 40, 20, 40)
        wide = hist.selectivity_box(10, 60, 10, 60)
        assert wide >= narrow


def _mhist_recomputing_every_split(x, y, max_cells=64):
    """``build_mhist`` as it was before it kept each cell's best split,
    kept verbatim: every working cell's split recomputed at every step.
    Returns the cells as tuples."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def best_split(rows):
        best = (0.0, None, None)
        for dimension, values in (("x", x[rows]), ("y", y[rows])):
            distinct, freqs = np.unique(values, return_counts=True)
            if distinct.shape[0] < 2:
                continue
            diffs = np.abs(np.diff(freqs.astype(np.float64)))
            idx = int(np.argmax(diffs))
            score = float(diffs[idx])
            if score > best[0]:
                best = (score, dimension, float(distinct[idx]))
        return best

    working = [np.arange(x.shape[0])]
    while len(working) < max_cells:
        candidates = [(best_split(w), i) for i, w in enumerate(working)]
        candidates = [
            (score, dim, value, i)
            for (score, dim, value), i in candidates
            if dim is not None
        ]
        if not candidates:
            break
        score, dim, value, i = max(candidates, key=lambda c: c[0])
        if score <= 0:
            break
        rows = working.pop(i)
        values = x[rows] if dim == "x" else y[rows]
        left_mask = values <= value
        left, right = rows[left_mask], rows[~left_mask]
        if left.shape[0] == 0 or right.shape[0] == 0:
            working.insert(i, rows)
            break
        working.extend([left, right])
    return [
        (x[r].min(), x[r].max(), y[r].min(), y[r].max(), float(r.shape[0]))
        for r in working
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_cells", [2, 16, 64, 256])
def test_mhist_keeping_best_splits_matches_recomputing_them(seed, max_cells):
    """Same cells in the same order, ties included (small domains make
    equal jumps common, and the first maximal cell must still win)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 3000))
    domain = int(rng.integers(3, 60))
    x = rng.integers(0, domain, size=n)
    y = (x * int(rng.integers(0, 3)) + rng.integers(0, domain, size=n)) % 97
    hist = build_mhist(x, y, max_cells=max_cells)
    cells = [(c.x_lo, c.x_hi, c.y_lo, c.y_hi, c.count) for c in hist.cells]
    assert cells == _mhist_recomputing_every_split(x, y, max_cells)

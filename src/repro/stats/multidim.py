"""Two-dimensional (joint) histograms over column pairs.

Paper Sec 3: "Multi-dimensional histogram structures can be constructed
using Phased or MHIST-p [14] strategy over the joint distribution of
multiple columns of a relation."  SQL Server 7.0's multi-column
statistics carry only prefix densities (Sec 7.1), which answer equality
conjunctions; a joint histogram additionally answers *range* conjunctions
over correlated column pairs, where the independence assumption fails.

We build the second of the two, MHIST-2 (Poosala & Ioannidis): greedy
binary splits that repeatedly pick the cell whose marginal frequency
distribution has the largest MaxDiff jump along either dimension and
split it there.

Estimation assumes uniformity within each cell, as in 1-D.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import StatisticsError


class JointHistogramKind(enum.Enum):
    MHIST = "mhist"


@dataclass
class _Cell:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    count: float


class JointHistogram:
    """A bag of disjoint rectangular cells covering the joint domain."""

    kind = JointHistogramKind.MHIST

    def __init__(self, cells: List[_Cell], row_count: int) -> None:
        self.cells = cells
        self.row_count = int(row_count)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def selectivity_box(
        self,
        x_lo: Optional[float] = None,
        x_hi: Optional[float] = None,
        y_lo: Optional[float] = None,
        y_hi: Optional[float] = None,
    ) -> float:
        """Fraction of rows with (x, y) inside the closed query box.

        ``None`` bounds are unbounded; within partially-overlapped cells
        the covered fraction is interpolated per dimension independently.
        """
        if self.row_count == 0:
            return 0.0
        total = 0.0
        for cell in self.cells:
            fraction = _overlap_1d(
                cell.x_lo, cell.x_hi, x_lo, x_hi
            ) * _overlap_1d(cell.y_lo, cell.y_hi, y_lo, y_hi)
            total += cell.count * fraction
        return float(min(1.0, max(0.0, total / self.row_count)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JointHistogram({self.kind.value}, cells={self.cell_count}, "
            f"rows={self.row_count})"
        )


def _overlap_1d(lo, hi, q_lo, q_hi) -> float:
    """Covered fraction of interval [lo, hi] by query range [q_lo, q_hi]."""
    effective_lo = lo if q_lo is None else max(lo, q_lo)
    effective_hi = hi if q_hi is None else min(hi, q_hi)
    if effective_lo > effective_hi:
        return 0.0
    width = hi - lo
    if width <= 0:
        return 1.0
    return (effective_hi - effective_lo) / width


def build_mhist(
    x: np.ndarray, y: np.ndarray, max_cells: int = 64
) -> JointHistogram:
    """MHIST-2 construction: greedy binary splits on the worst marginal."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise StatisticsError("joint histogram inputs must align")
    n = x.shape[0]
    if n == 0:
        return JointHistogram([], 0)

    # each working cell holds its member indexes for exact refinement
    @dataclass
    class _Work:
        rows: np.ndarray

        def bounds(self):
            xs, ys = x[self.rows], y[self.rows]
            return xs.min(), xs.max(), ys.min(), ys.max()

    def best_split(work: _Work):
        """(score, dimension, split_value) of the largest marginal jump."""
        best = (0.0, None, None)
        for dimension, values in (("x", x[work.rows]), ("y", y[work.rows])):
            distinct, freqs = np.unique(values, return_counts=True)
            if distinct.shape[0] < 2:
                continue
            diffs = np.abs(np.diff(freqs.astype(np.float64)))
            idx = int(np.argmax(diffs))
            score = float(diffs[idx])
            if score > best[0]:
                # split between distinct[idx] and distinct[idx + 1]
                best = (score, dimension, float(distinct[idx]))
        return best

    working = [_Work(np.arange(n))]
    # best_split of each working cell, in the same order: a cell's best
    # split depends on its rows alone, so it is computed once
    splits = [best_split(working[0])]
    while len(working) < max_cells:
        candidates = [
            (score, dim, value, i)
            for i, (score, dim, value) in enumerate(splits)
            if dim is not None
        ]
        if not candidates:
            break
        score, dim, value, i = max(candidates, key=lambda c: c[0])
        if score <= 0:
            break
        work = working.pop(i)
        values = x[work.rows] if dim == "x" else y[work.rows]
        left_mask = values <= value
        left = _Work(work.rows[left_mask])
        right = _Work(work.rows[~left_mask])
        if left.rows.shape[0] == 0 or right.rows.shape[0] == 0:
            working.insert(i, work)
            break
        splits.pop(i)
        working.extend([left, right])
        splits.extend([best_split(left), best_split(right)])

    cells = []
    for work in working:
        x_lo, x_hi, y_lo, y_hi = work.bounds()
        cells.append(
            _Cell(x_lo, x_hi, y_lo, y_hi, float(work.rows.shape[0]))
        )
    return JointHistogram(cells, n)

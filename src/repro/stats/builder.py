"""Construction of :class:`~repro.stats.statistic.Statistic` objects from data.

The build kernel works on dense integer codes.  One
:func:`~repro.stats.histogram.summarize_column` per key column gives the
column's sorted distinct values and frequencies — the leading column's
pair *is* the histogram's input and its length *is*
``1 / prefix_densities[0]`` — plus each row's index into them: from one
``bincount`` when the column is a dense integer one (keys, dates,
dictionary codes), else from one float64 sort.  The distinct tuples of
prefix *i + 1* are then the distinct values of
``group_i * cardinality_{i+1} + code_{i+1}``: counted when that product
is small, else one 1-D int64 sort per further prefix, instead of a
comparison sort of stacked float tuples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import OptimizerConfig
from repro.stats.cost import statistic_build_cost
from repro.stats.histogram import (
    HistogramKind,
    histogram_from_summary,
    summarize_column,
)
from repro.stats.statistic import StatKey, Statistic
from repro.storage.join_index import counting_pays
from repro.storage.table_data import TableData

#: buckets of every histogram a build makes
HISTOGRAM_BUCKETS = 50

#: largest mixed-radix product the int64 group ids can hold
_MAX_GROUP_CODE = np.iinfo(np.int64).max

#: (sorted distinct float64 values, rows per value, per-row index into
#: them — ``None`` when no multi-column key needs it)
ColumnSummary = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def _regroup(groups, n_groups: int, codes, cardinality: int, want_ids: bool):
    """Count (and, if wanted, dense ids) of the distinct ``(group, code)``
    pairs, for group ids below ``n_groups`` and codes below
    ``cardinality``."""
    if n_groups * cardinality <= _MAX_GROUP_CODE:
        combined = groups * cardinality + codes
        if not want_ids:
            if counting_pays(n_groups * cardinality, combined.shape[0]):
                return None, int(np.count_nonzero(np.bincount(combined)))
            return None, np.unique(combined).shape[0]
        distinct, ids = np.unique(combined, return_inverse=True)
        return ids, distinct.shape[0]
    # the mixed-radix product would wrap: sort the pairs themselves
    order = np.lexsort((codes, groups))
    g, c = groups[order], codes[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (g[1:] != g[:-1]) | (c[1:] != c[:-1])
    if not want_ids:
        return None, int(first.sum())
    ids = np.empty(order.shape[0], dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids, int(first.sum())


def prefix_distinct_counts(summaries: Sequence[ColumnSummary]) -> List[int]:
    """Number of distinct tuples over each leading prefix of the columns
    whose (coded) summaries are given, shortest prefix first."""
    distinct, _, groups = summaries[0]
    counts = [distinct.shape[0]]
    last = len(summaries) - 1
    for position, (distinct, _, codes) in enumerate(summaries[1:], 1):
        groups, count = _regroup(
            groups, counts[-1], codes, distinct.shape[0], position < last
        )
        counts.append(count)
    return counts


def build_statistics(
    table: TableData,
    keys: Sequence[StatKey],
    config: OptimizerConfig,
    histogram_kind: HistogramKind = HistogramKind.MAXDIFF,
    rng: Optional[np.random.Generator] = None,
    sample_rows: Optional[int] = None,
) -> List[Statistic]:
    """Build statistics over each of ``keys`` (all on ``table``) in one
    pass: the row sample, if any, is drawn once, and a column is
    summarized once however many keys name it.

    If ``config.sample_rows`` is set, histograms and densities come from
    a uniform row sample (scaled back to the full table), otherwise from
    a full scan.  ``sample_rows`` asks for a smaller sample than that: a
    two-phase build's first phase, recorded on each statistic as its
    :attr:`~repro.stats.statistic.Statistic.sample_rows`.  A table it
    would not cut (no more rows than the cap, or a config sample no
    larger) builds in full.  Each statistic's ``build_cost`` is the
    work-unit charge from :func:`~repro.stats.cost.statistic_build_cost`
    — what building it alone would cost.
    """
    if not keys:
        return []
    row_count = table.row_count
    full = config.sample_rows
    if sample_rows is None or row_count <= sample_rows or (
        full is not None and full <= sample_rows
    ):
        sample_rows, cap = None, full
    else:
        cap = sample_rows
    columns = list(dict.fromkeys(c for key in keys for c in key.columns))
    if cap is not None and row_count > cap:
        arrays = table.sample_rows(cap, rng=rng, columns=columns)
        scale = row_count / max(1, arrays[columns[0]].shape[0])
    else:
        arrays = {name: table.column_array(name) for name in columns}
        scale = 1.0
    coded = {c for key in keys if key.is_multi_column for c in key.columns}
    # shared by this call's keys only: summaries of a whole table would
    # outweigh the statistics themselves if kept between builds
    summaries: Dict[str, ColumnSummary] = {
        name: summarize_column(arrays[name], name in coded)
        for name in columns
    }
    return [
        _build_one(
            key,
            [arrays[name] for name in key.columns],
            [summaries[name] for name in key.columns],
            row_count,
            scale,
            config,
            histogram_kind,
            cap,
            sample_rows,
        )
        for key in keys
    ]


def _build_one(
    key,
    arrays,
    summaries,
    row_count,
    scale,
    config,
    histogram_kind,
    cap,
    sample_rows,
) -> Statistic:
    distinct, freqs, _ = summaries[0]
    histogram = histogram_from_summary(
        distinct, freqs, HISTOGRAM_BUCKETS, histogram_kind
    )
    if scale != 1.0:
        # scale bucket counts back up to full-table cardinality
        histogram.counts = histogram.counts * scale
        histogram.row_count = row_count

    densities = tuple(
        1.0 / max(1, count) for count in prefix_distinct_counts(summaries)
    )
    joint = None
    if config.enable_joint_histograms and len(arrays) >= 2:
        from repro.stats.multidim import build_mhist

        joint = build_mhist(
            arrays[0], arrays[1], max_cells=config.joint_histogram_cells
        )
        if scale != 1.0:
            for cell in joint.cells:
                cell.count *= scale
            joint.row_count = row_count
    return Statistic(
        key=key,
        histogram=histogram,
        prefix_densities=densities,
        row_count=row_count,
        build_cost=statistic_build_cost(row_count, key, cap),
        joint_histogram=joint,
        sample_rows=sample_rows,
    )


def build_statistic(
    table: TableData,
    key: StatKey,
    config: OptimizerConfig,
    histogram_kind: HistogramKind = HistogramKind.MAXDIFF,
    rng: Optional[np.random.Generator] = None,
    sample_rows: Optional[int] = None,
) -> Statistic:
    """Build one statistic over ``key``'s columns from the stored data;
    see :func:`build_statistics`."""
    return build_statistics(
        table, (key,), config, histogram_kind, rng, sample_rows
    )[0]

"""The experiment table: each paper experiment and ablation, described once.

:data:`EXPERIMENTS` lists the 15 experiments in EXPERIMENTS.md's order.
Each entry names the experiment, the paper's artifact and band, the
arguments EXPERIMENTS.md documents (workloads, skew settings, query cap;
TPC-D scale :data:`SCALE`), a function returning its results as JSON-able
records, and its table: headers plus one row per record.  ``repro
experiment``, ``tests/experiments/golden_experiments.json`` and the
tables of EXPERIMENTS.md are all rendered from it.

A record is the runner's result dataclass as a dict plus its derived
percentages.  Where the paper states a band, ``in_band`` reports whether
the record falls inside it; nothing asserts it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.ablations import (
    run_equivalence_ablation,
    run_next_stat_ablation,
    run_shrinking_ablation,
    run_threshold_sweep,
)
from repro.experiments.aging import run_aging_experiment
from repro.experiments.common import DATABASE_SPECS, format_table
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4, run_single_column_mnsa
from repro.experiments.incremental import (
    run_incremental_maintenance_experiment,
)
from repro.experiments.intro import run_intro_experiment
from repro.experiments.statistics_ablations import (
    run_histogram_kind_ablation,
    run_join_estimation_ablation,
    run_joint_histogram_ablation,
    run_sampling_ablation,
)
from repro.experiments.table1 import run_table1

Record = Dict[str, Any]
Runner = Callable[[Callable, Any, Optional[str], Optional[int]], List[Record]]

#: The documented TPC-D scale factor of every experiment.
SCALE = 0.002

#: The skew settings of the paper's four databases (Sec 8.1).
PAPER_ZS = tuple(z for _, z in DATABASE_SPECS)


@dataclass(frozen=True)
class Experiment:
    """One experiment: what it reproduces, how it runs, how it prints.

    ``run(factory, z, workload, queries)`` returns the records of one
    skew setting and workload; :meth:`records` runs every documented
    combination, workloads outermost.  ``queries`` is the documented
    query cap, or None for an experiment without one.
    """

    name: str
    title: str
    band: Optional[str]
    run: Runner
    headers: Tuple[str, ...]
    row: Callable[[Record], List[str]]
    zs: Tuple[Any, ...] = (2.0,)
    workloads: Tuple[Optional[str], ...] = (None,)
    queries: Optional[int] = None

    def records(
        self,
        factory: Callable,
        zs: Optional[Sequence] = None,
        queries: Optional[int] = None,
    ) -> List[Record]:
        """Run the experiment; ``zs`` and ``queries`` replace the
        documented settings (``queries`` only where there is a cap)."""
        if queries is None or self.queries is None:
            queries = self.queries
        return [
            record
            for workload in self.workloads
            for z in (self.zs if zs is None else zs)
            for record in self.run(factory, z, workload, queries)
        ]

    def table(self, records: List[Record]) -> str:
        return format_table(
            list(self.headers), [self.row(record) for record in records]
        )


def _record(result, *derived: str) -> Record:
    """``result`` as a dict plus its ``derived`` properties."""
    record = asdict(result)
    record.update((name, getattr(result, name)) for name in derived)
    return record


def _columns(*columns: Tuple[str, str]):
    """``(headers, row)`` for ``(header, template)`` columns: the row
    formats each template with a record's fields, booleans as yes / no."""

    def row(record: Record) -> List[str]:
        shown = {
            key: ("yes" if value else "no") if isinstance(value, bool) else value
            for key, value in record.items()
        }
        return [template.format(**shown) for _, template in columns]

    return tuple(header for header, _ in columns), row


def _intro(factory, z, workload, queries) -> List[Record]:
    """One record per TPC-D query, then the total."""
    result = run_intro_experiment(factory(z))
    records: List[Record] = [
        {
            "query": query,
            "plan_changed": changed,
            "cost_before": before,
            "cost_after": after,
        }
        for query, changed, before, after in zip(
            result.query_ids,
            result.plan_changed,
            result.cost_before,
            result.cost_after,
        )
    ]
    change = 100.0 * (result.total_cost_after / result.total_cost_before - 1)
    records.append(
        {
            "query": "total",
            "plans_changed": result.changed_count,
            "queries": len(result.query_ids),
            "cost_before": result.total_cost_before,
            "cost_after": result.total_cost_after,
            "cost_change_percent": change,
            "in_band": result.changed_count >= 15 and change < 0,
        }
    )
    return records


_INTRO_HEADERS, _INTRO_TOTAL_ROW = _columns(
    ("query", "{query}"),
    ("plan changed", "{plans_changed} of {queries}"),
    ("cost before", "{cost_before:,.0f}"),
    ("cost after", "{cost_after:,.0f}"),
    ("cost change", "{cost_change_percent:+.1f}%"),
    ("in band", "{in_band}"),
)
_, _INTRO_QUERY_ROW = _columns(
    ("", "{query}"),
    ("", "{plan_changed}"),
    ("", "{cost_before:,.0f}"),
    ("", "{cost_after:,.0f}"),
    ("", ""),
    ("", ""),
)


def _intro_row(record: Record) -> List[str]:
    if "plans_changed" in record:
        return _INTRO_TOTAL_ROW(record)
    return _INTRO_QUERY_ROW(record)


def _banded(runner, reduction: str, low: float, high: float, rise: float):
    """A paper figure or table cell: in band when ``reduction`` lies in
    [low, high] and the execution cost rises by at most ``rise`` %."""

    def run(factory, z, workload, queries) -> List[Record]:
        result = runner(factory, z, workload_name=workload, max_queries=queries)
        record = _record(result, reduction, "execution_increase_percent")
        record["in_band"] = (
            low <= record[reduction] <= high
            and record["execution_increase_percent"] <= rise
        )
        return [record]

    return run


def _rows(runner) -> Runner:
    """An ablation: one record per row its runner returns."""

    def run(factory, z, workload, queries) -> List[Record]:
        arguments: Dict[str, Any] = {}
        if workload is not None:
            arguments["workload_name"] = workload
        if queries is not None:
            arguments["max_queries"] = queries
        result = runner(factory, z, **arguments)
        rows = result if isinstance(result, (list, tuple)) else [result]
        return [_record(row) for row in rows]

    return run


_REDUCTION_COLUMNS = (
    ("creation reduction", "{creation_reduction_percent:.0f}%"),
    ("exec increase", "{execution_increase_percent:+.1f}%"),
    ("in band", "{in_band}"),
)
_MNSA_TABLE = _columns(
    ("database", "{database}"),
    ("workload", "{workload}"),
    ("candidates", "{candidate_count}"),
    ("MNSA built", "{mnsa_created_count}"),
    *_REDUCTION_COLUMNS,
)
_Q_ERROR_TABLE = _columns(
    ("configuration", "{configuration}"),
    ("q-error geomean", "{q_error_geomean:.2f}"),
    ("q-error max", "{q_error_max:.1f}"),
)

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "intro",
        "Intro experiment (Sec 1): tuned TPC-D, 17 queries, TPCD_2",
        "15 of 17 plans change; execution cost improves",
        _intro,
        _INTRO_HEADERS,
        _intro_row,
    ),
    Experiment(
        "figure3",
        "Figure 3: Candidate Statistics algorithm vs. Exhaustive",
        "50-80% creation reduction, exec increase <= 3%",
        _banded(run_figure3, "creation_reduction_percent", 50, 80, 3),
        *_columns(
            ("database", "{database}"),
            ("workload", "{workload}"),
            ("exhaustive stats", "{exhaustive_count}"),
            ("candidate stats", "{heuristic_count}"),
            *_REDUCTION_COLUMNS,
        ),
        zs=PAPER_ZS,
        workloads=("U25-S-100", "U0-C-100"),
        queries=30,
    ),
    Experiment(
        "figure4",
        "Figure 4: MNSA (t = 20%, eps = 0.0005) vs. all candidates",
        "30-45% creation reduction, exec increase <= 2%",
        _banded(run_figure4, "creation_reduction_percent", 30, 45, 2),
        *_MNSA_TABLE,
        zs=PAPER_ZS,
        workloads=("U25-S-100", "U0-S-500"),
        queries=30,
    ),
    Experiment(
        "single-column",
        "Sec 8.2: MNSA over single-column candidates only",
        "above 30% creation reduction, small exec increase (<= 2%)",
        _banded(run_single_column_mnsa, "creation_reduction_percent", 30, 100, 2),
        *_MNSA_TABLE,
        zs=PAPER_ZS,
        workloads=("U0-S-500",),
        queries=30,
    ),
    Experiment(
        "table1",
        "Table 1: MNSA/D update-cost reduction vs. MNSA",
        "31% / 34% / 32% / 30% update-cost reduction on TPCD_0 / 2 / 4 / MIX, "
        "rerun exec increase <= 6%",
        _banded(run_table1, "update_cost_reduction_percent", 30, 34, 6),
        *_columns(
            ("database", "{database}"),
            ("workload", "{workload}"),
            ("update-cost reduction", "{update_cost_reduction_percent:.0f}%"),
            (
                "stats retained (MNSA -> MNSA/D)",
                "{mnsa_stat_count} -> {mnsad_stat_count}",
            ),
            ("rerun exec increase", "{execution_increase_percent:+.1f}%"),
            ("in band", "{in_band}"),
        ),
        zs=PAPER_ZS,
        workloads=("U25-C-100",),
        queries=30,
    ),
    Experiment(
        "threshold",
        "Ablation: MNSA t-threshold sweep (TPCD_2, U0-S-100)",
        None,
        _rows(run_threshold_sweep),
        *_columns(
            ("t", "{t_percent:g}%"),
            ("stats built", "{created_count}"),
            ("creation cost", "{creation_cost:,.0f}"),
            ("execution cost", "{execution_cost:,.0f}"),
        ),
        workloads=("U0-S-100",),
        queries=25,
    ),
    Experiment(
        "next-stat",
        "Ablation: FindNextStatToBuild, costliest operator vs. arbitrary "
        "order (TPCD_2, U0-S-100)",
        None,
        _rows(run_next_stat_ablation),
        *_columns(
            (
                "stats built (costliest operator / arbitrary)",
                "{heuristic_created} / {arbitrary_created}",
            ),
            (
                "creation cost (costliest operator / arbitrary)",
                "{heuristic_creation_cost:,.0f} / {arbitrary_creation_cost:,.0f}",
            ),
        ),
        workloads=("U0-S-100",),
        queries=25,
    ),
    Experiment(
        "shrinking",
        "Ablation: MNSA + Shrinking Set vs. MNSA/D (TPCD_2, U25-S-100)",
        None,
        _rows(run_shrinking_ablation),
        *_columns(
            ("MNSA retained", "{mnsa_retained}"),
            (
                "retained (Shrinking Set / MNSA/D)",
                "{shrink_retained} / {mnsad_retained}",
            ),
            (
                "update cost (Shrinking Set / MNSA/D)",
                "{shrink_update_cost:,.0f} / {mnsad_update_cost:,.0f}",
            ),
            (
                "optimizer calls (Shrinking Set / MNSA/D)",
                "{shrink_optimizer_calls} / {mnsad_optimizer_calls}",
            ),
            (
                "execution cost (Shrinking Set / MNSA/D)",
                "{shrink_execution_cost:,.0f} / {mnsad_execution_cost:,.0f}",
            ),
        ),
        workloads=("U25-S-100",),
        queries=25,
    ),
    Experiment(
        "equivalence",
        "Ablation: equivalence criterion in Shrinking Set (TPCD_2, U0-S-100)",
        None,
        _rows(run_equivalence_ablation),
        *_columns(
            ("criterion", "{criterion}"),
            ("stats retained", "{retained}"),
            ("update cost", "{update_cost:,.0f}"),
            ("execution cost", "{execution_cost:,.0f}"),
        ),
        workloads=("U0-S-100",),
        queries=20,
    ),
    Experiment(
        "histograms",
        "Ablation: MaxDiff vs. equi-depth histograms (TPCD_2, U0-S-100)",
        None,
        _rows(run_histogram_kind_ablation),
        *_columns(
            ("kind", "{kind}"),
            ("q-error geomean", "{q_error_geomean:.2f}"),
            ("q-error max", "{q_error_max:.1f}"),
            ("execution cost", "{execution_cost:,.0f}"),
        ),
        workloads=("U0-S-100",),
        queries=20,
    ),
    Experiment(
        "sampling",
        "Ablation: sampled vs. full-scan statistics construction "
        "(TPCD_2, U0-S-100)",
        None,
        _rows(run_sampling_ablation),
        ("sample rows", "creation cost", "q-error geomean", "execution cost"),
        lambda r: [
            "full scan" if r["sample_rows"] is None else str(r["sample_rows"]),
            f"{r['creation_cost']:,.0f}",
            f"{r['q_error_geomean']:.2f}",
            f"{r['execution_cost']:,.0f}",
        ],
        workloads=("U0-S-100",),
        queries=20,
    ),
    Experiment(
        "joint",
        "Ablation: joint 2-D histograms vs. prefix densities "
        "(TPCD_2, correlated date ranges on lineitem)",
        None,
        _rows(run_joint_histogram_ablation),
        *_Q_ERROR_TABLE,
    ),
    Experiment(
        "aging",
        "Aging (Sec 6): U50-S-100 run twice, aggressive drop rule (TPCD_2)",
        None,
        _rows(run_aging_experiment),
        *_columns(
            ("aging", "{aging_enabled}"),
            ("stats created", "{statistics_created}"),
            ("stats dropped", "{statistics_dropped}"),
            ("creation cost", "{creation_cost:,.0f}"),
            ("execution cost", "{execution_cost:,.0f}"),
        ),
        workloads=("U50-S-100",),
    ),
    Experiment(
        "join-estimation",
        "Ablation: join estimation with half the suppliers deleted (TPCD_2)",
        None,
        _rows(run_join_estimation_ablation),
        *_Q_ERROR_TABLE,
    ),
    Experiment(
        "maintenance",
        "Ablation: incremental histogram maintenance vs. counter-driven "
        "full refresh (TPCD_2, insert stream on orders)",
        None,
        _rows(run_incremental_maintenance_experiment),
        *_columns(
            ("scenario", "{scenario}"),
            ("strategy", "{strategy}"),
            ("maintenance cost", "{maintenance_cost:,.0f}"),
            ("full rebuilds", "{full_rebuilds}"),
            ("q-error geomean", "{q_error_geomean:.2f}"),
        ),
    ),
)

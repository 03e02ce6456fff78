"""Ablations over the statistics *representation* (orthogonal to the
paper's selection problem, Sec 2: "There is a large body of work that
studies representation of statistics ... we have studied the orthogonal
problem of deciding which column to build statistics on").

* :func:`run_histogram_kind_ablation` — MaxDiff vs equi-depth histograms:
  cardinality accuracy (q-error) and workload execution cost when every
  workload-relevant statistic is built with each kind.
* :func:`run_sampling_ablation` — full-scan vs sampled statistics
  construction: build cost vs accuracy, the trade-off motivating the
  sampling literature the paper cites ([3, 8, 9, 12, 14]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import OptimizerConfig
from repro.core.candidates import workload_candidate_statistics
from repro.experiments.accuracy import AccuracyReport, estimation_accuracy
from repro.experiments.common import workload_execution_cost
from repro.feedback.observation import q_error
from repro.stats.histogram import HistogramKind
from repro.workload import generate_workload


@dataclass
class HistogramKindRow:
    kind: str
    q_error_geomean: float
    q_error_max: float
    execution_cost: float


def run_histogram_kind_ablation(
    database_factory: Callable,
    z,
    workload_name: str = "U0-S-100",
    max_queries: int = 20,
) -> List[HistogramKindRow]:
    """Build all workload candidates with each histogram kind."""
    rows = []
    for kind in (HistogramKind.MAXDIFF, HistogramKind.EQUI_DEPTH):
        db = database_factory(z)
        queries = generate_workload(db, workload_name).queries()[:max_queries]
        for key in workload_candidate_statistics(queries):
            db.stats.create(key, histogram_kind=kind)
        accuracy = estimation_accuracy(db, queries)
        rows.append(
            HistogramKindRow(
                kind=kind.value,
                q_error_geomean=accuracy.geometric_mean,
                q_error_max=accuracy.max_error,
                execution_cost=workload_execution_cost(db, queries),
            )
        )
    return rows


@dataclass
class JointHistogramRow:
    configuration: str
    q_error_geomean: float
    q_error_max: float


def _correlated_date_queries(db, count: int = 12):
    """Range-conjunction queries over lineitem's correlated date columns.

    l_commitdate and l_receiptdate both track l_shipdate by construction
    (generator adds bounded lags), so independence-based estimates of
    conjunctive ranges over them are systematically wrong.
    """
    import numpy as np

    from repro.sql.builder import QueryBuilder

    ship = db.table("lineitem").column_array("l_shipdate")
    rng = np.random.default_rng(5)
    queries = []
    for _ in range(count):
        pivot = int(rng.choice(ship))
        width = int(rng.integers(30, 200))
        queries.append(
            QueryBuilder(db.schema)
            .table("lineitem")
            .between("lineitem.l_shipdate", pivot - width, pivot + width)
            .between(
                "lineitem.l_commitdate", pivot - width, pivot + width
            )
            .select("lineitem.l_orderkey")
            .build()
        )
    return queries


def run_joint_histogram_ablation(
    database_factory: Callable, z, query_count: int = 12
) -> List[JointHistogramRow]:
    """Prefix densities only vs 2-D joint histograms, on queries with
    correlated range conjunctions (paper Sec 3's multi-dimensional
    histogram motivation)."""
    from repro.catalog import ColumnRef
    from repro.stats.statistic import StatKey

    rows = []
    for label, enabled in (("density only", False), ("joint 2-D", True)):
        db = database_factory(z)
        db.stats.config = OptimizerConfig(enable_joint_histograms=enabled)
        queries = _correlated_date_queries(db, query_count)
        db.stats.create(
            StatKey("lineitem", ("l_shipdate", "l_commitdate"))
        )
        db.stats.create(ColumnRef("lineitem", "l_commitdate"))
        accuracy = estimation_accuracy(db, queries)
        rows.append(
            JointHistogramRow(
                configuration=label,
                q_error_geomean=accuracy.geometric_mean,
                q_error_max=accuracy.max_error,
            )
        )
    return rows


@dataclass
class JoinEstimationRow:
    configuration: str
    q_error_geomean: float
    q_error_max: float


def run_join_estimation_ablation(
    database_factory: Callable, z, query_count: int = 10
) -> List[JoinEstimationRow]:
    """ndv containment rule vs histogram-aligned join estimation.

    The scenario where they differ: a fact table referencing only part
    of a dimension's key domain.  Deleting the suppliers below the
    median key leaves roughly half of lineitem's supplier references
    dangling — the ndv rule never notices the shrunken overlap, while
    histogram alignment accounts for it.
    """
    import numpy as np

    from repro.executor import Executor
    from repro.optimizer import Optimizer
    from repro.sql.builder import QueryBuilder
    from repro.stats.statistic import StatKey

    rows = []
    for label, enabled in (("1/max(ndv) rule", False), ("histogram join", True)):
        db = database_factory(z)
        # create a partial-overlap join domain: drop half the suppliers
        suppkeys = db.table("supplier").column_array("s_suppkey")
        median = float(np.median(suppkeys))
        db.delete("supplier", suppkeys < median)
        config = OptimizerConfig(enable_histogram_join_estimation=enabled)
        db.stats.config = config
        db.stats.create(StatKey("lineitem", ("l_suppkey",)))
        db.stats.create(StatKey("supplier", ("s_suppkey",)))
        db.stats.create(StatKey("lineitem", ("l_quantity",)))

        optimizer = Optimizer(db, config)
        executor = Executor(db)
        errors = []
        rng = np.random.default_rng(3)
        quantities = rng.integers(1, 51, size=query_count)
        for quantity in quantities:
            query = (
                QueryBuilder(db.schema)
                .join("lineitem.l_suppkey", "supplier.s_suppkey")
                .where("lineitem.l_quantity", "<=", int(quantity))
                .select("lineitem.l_orderkey")
                .build()
            )
            result = optimizer.optimize(query)
            executed = executor.execute(result.plan, query)
            errors.append(q_error(result.rows, executed.row_count))
        accuracy = AccuracyReport(q_errors=errors)
        rows.append(
            JoinEstimationRow(
                configuration=label,
                q_error_geomean=accuracy.geometric_mean,
                q_error_max=accuracy.max_error,
            )
        )
    return rows


@dataclass
class SamplingRow:
    sample_rows: Optional[int]
    creation_cost: float
    q_error_geomean: float
    execution_cost: float


def run_sampling_ablation(
    database_factory: Callable,
    z,
    sample_settings=(None, 2000, 500, 100),
    workload_name: str = "U0-S-100",
    max_queries: int = 20,
) -> List[SamplingRow]:
    """Full scan vs row-sampled statistics construction."""
    rows = []
    for sample in sample_settings:
        db = database_factory(z)
        db.stats.config = OptimizerConfig(sample_rows=sample)
        queries = generate_workload(db, workload_name).queries()[:max_queries]
        for key in workload_candidate_statistics(queries):
            db.stats.create(key)
        accuracy = estimation_accuracy(db, queries)
        rows.append(
            SamplingRow(
                sample_rows=sample,
                creation_cost=db.stats.creation_cost_total,
                q_error_geomean=accuracy.geometric_mean,
                execution_cost=workload_execution_cost(db, queries),
            )
        )
    return rows

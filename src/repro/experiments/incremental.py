"""Incremental histogram maintenance vs counter-triggered full refresh.

Paper Sec 2 cites the approximate-maintenance line of work ([8]); this
experiment quantifies the trade-off in our substrate: a stream of insert
batches (drawn from a *shifted* distribution, so the data distribution
really drifts) maintained either by SQL Server-style full refreshes when
the modification counter trips, or by folding values into the existing
histograms and rebuilding only on degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.catalog import ColumnRef
from repro.experiments.accuracy import AccuracyReport
from repro.feedback.observation import q_error
from repro.stats.statistic import StatKey


@dataclass
class MaintenanceRow:
    """One (strategy, insert-distribution) outcome."""

    strategy: str
    scenario: str  # "stationary" or "drift"
    maintenance_cost: float
    full_rebuilds: int
    q_error_geomean: float


def _insert_batch(db, rng, batch_rows: int, drift: bool) -> None:
    """Insert rows cloned from orders, optionally with drifted values."""
    data = db.table("orders")
    names = data.schema.column_names()
    n = data.row_count
    rows = []
    for _ in range(batch_rows):
        idx = int(rng.integers(0, n))
        row = {}
        for name in names:
            ref = ColumnRef("orders", name)
            raw = data.column_array(name)[idx]
            ctype = db.schema.column(ref).type.value
            if ctype == "string":
                row[name] = data.string_dictionary(name).decode(int(raw))
            elif ctype == "float":
                row[name] = float(raw)
            else:
                row[name] = int(raw)
        if drift:
            # new orders are systematically pricier and later
            row["o_totalprice"] = float(row["o_totalprice"]) * 1.8
            row["o_orderdate"] = int(row["o_orderdate"]) + 300
        rows.append(row)
    db.insert("orders", rows)


def _accuracy(db, rng, probes: int = 20) -> float:
    """Geometric-mean q-error of range estimates on o_totalprice."""
    values = db.table("orders").column_array("o_totalprice")
    hist = db.stats.get(StatKey("orders", ("o_totalprice",))).histogram
    errors = []
    for _ in range(probes):
        pivot = float(rng.choice(values))
        true = float((values <= pivot).mean())
        estimate = hist.selectivity_range(high=pivot)
        errors.append(
            q_error(estimate * values.shape[0], true * values.shape[0])
        )
    return AccuracyReport(q_errors=errors).geometric_mean


def run_incremental_maintenance_experiment(
    database_factory: Callable,
    z,
    batches: int = 15,
    batch_rows: int = 100,
    refresh_fraction: float = 0.2,
    seed: int = 9,
) -> List[MaintenanceRow]:
    """Compare the two maintenance strategies under insert drift."""
    stat_columns = ("o_totalprice", "o_orderdate")
    rows = []
    for scenario, drift in (("stationary", False), ("drift", True)):
        for strategy in ("full_refresh", "incremental"):
            db = database_factory(z)
            for column in stat_columns:
                db.stats.create(ColumnRef("orders", column))
            db.stats.update_cost_total = 0.0
            rng = np.random.default_rng(seed)
            rebuilds = 0
            for _ in range(batches):
                before = db.row_count("orders")
                _insert_batch(db, rng, batch_rows, drift)
                if strategy == "full_refresh":
                    data = db.table("orders")
                    threshold = refresh_fraction * before
                    if data.rows_modified_since_stats >= threshold:
                        db.stats.refresh_table("orders")
                        rebuilds += 1
                else:
                    inserted = {
                        column: db.table("orders").column_array(column)[
                            before:
                        ]
                        for column in stat_columns
                    }
                    db.stats.apply_incremental_inserts("orders", inserted)
                    for key in db.stats.keys_needing_rebuild("orders"):
                        db.stats.rebuild(key)
                        rebuilds += 1
            rows.append(
                MaintenanceRow(
                    strategy=strategy,
                    scenario=scenario,
                    maintenance_cost=db.stats.update_cost_total,
                    full_rebuilds=rebuilds,
                    q_error_geomean=_accuracy(db, rng),
                )
            )
    return rows

"""Per-layer metrics of the traced run.

A layer is a module of the program (``optimizer``, ``optimizer.cache``,
``stats``, ...).  Counts come from the spans and from the program's own
public counters over the same window; times are self times (see
trace.py).  README.md says which end-to-end metric each row should move,
and on which workload it should stay flat.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from benchmarks.e2e.workloads import COUNTER_NAMES

BUILDS = ("create", "rebuild", "refresh_table")
LOOKUPS = ("histogram_for", "density_for_columns", "joint_for_columns")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass
class LayerRow:
    """The per-layer view of one traced repetition."""

    values: Dict[str, float]
    #: latency samples in ms, pooled over repetitions for percentiles
    samples: Dict[str, np.ndarray]
    #: self seconds per layer, and the window's wall
    by_layer: Dict[str, float]
    wall: float


def measure(table, rep) -> LayerRow:
    """Reduce the spans and counters of one traced repetition."""
    counters = rep.counters
    notes = table.notes
    created = sum(n[3] for n in notes)
    hits = counters.get("optimizer.cache.hits", 0.0)
    misses = counters.get("optimizer.cache.misses", 0.0)
    row = {
        "optimizer.calls": table.count("optimizer"),
        "optimizer.cold_calls": table.count("optimizer", ("cold_optimize",)),
        "optimizer.self_s": table.self_seconds("optimizer"),
        "optimizer.selectivity.calls": table.count("optimizer.selectivity"),
        "optimizer.selectivity.self_s": table.self_seconds(
            "optimizer.selectivity"
        ),
        "optimizer.cost_model.calls": table.count("optimizer.cost_model"),
        "optimizer.cost_model.self_s": table.self_seconds(
            "optimizer.cost_model"
        ),
        "optimizer.cache.hit_ratio": _ratio(hits, hits + misses),
        "optimizer.cache.self_s": table.self_seconds("optimizer.cache"),
        "stats.builds": table.count("stats", BUILDS),
        "stats.build_self_s": table.self_seconds("stats", BUILDS),
        "stats.lookup_calls": table.count("stats", LOOKUPS),
        "stats.lookup_self_s": table.self_seconds("stats", LOOKUPS),
        "executor.calls": table.count("executor", ("execute",)),
        "executor.self_s": table.self_seconds("executor", ("execute",)),
        "executor.dml_calls": table.count("executor", ("apply_dml",)),
        "executor.dml_self_s": table.self_seconds("executor", ("apply_dml",)),
        "feedback.self_s": table.self_seconds("feedback"),
        "sql.parse_bind_calls": table.count("sql"),
        "sql.parse_bind_self_s": table.self_seconds("sql"),
        "core.self_s": table.self_seconds("core"),
        "core.iterations": sum(n[1] for n in notes),
        "core.optimizer_calls": sum(n[2] for n in notes),
        "core.stats_created": created,
        "core.stats_drop_listed": sum(n[4] for n in notes),
        "core.useful_build_ratio": _ratio(sum(n[5] for n in notes), created),
        "service.submit_self_s": table.self_seconds("service", ("submit",)),
        "service.advise_s": table.seconds("service", ("drain",)),
        "service.monitor.run_once_s": table.seconds("service.monitor"),
        "trace.attributed_share": table.attributed_share(),
    }
    for name in COUNTER_NAMES:
        row[name] = counters.get(name, 0.0)
    samples = {
        "optimizer.cold_ms": table.durations("optimizer", ("cold_optimize",))
        * 1e3,
        "executor.ms": table.durations("executor", ("execute",)) * 1e3,
        "service.admission.queue_wait_ms": np.asarray(rep.queue_wait_ms),
    }
    return LayerRow(row, samples, table.self_seconds_by_layer(), table.wall)


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def reduce(rows: List[LayerRow], reference_wall: float) -> Dict[str, float]:
    """Traced repetitions -> the per-layer metrics of one run.

    Counts are per repetition and repeat exactly, times are the median
    over repetitions, percentiles pool the samples of all of them.
    """
    metrics = {
        name: float(statistics.median(row.values[name] for row in rows))
        for name in rows[0].values
    }
    pooled = {
        name: np.concatenate([row.samples[name] for row in rows])
        for name in rows[0].samples
    }
    metrics["optimizer.cold_ms_p50"] = _percentile(
        pooled["optimizer.cold_ms"], 50
    )
    metrics["optimizer.cold_ms_p99"] = _percentile(
        pooled["optimizer.cold_ms"], 99
    )
    for name in ("executor.ms", "service.admission.queue_wait_ms"):
        metrics[f"{name}_p50"] = _percentile(pooled[name], 50)
    wall = statistics.median(row.wall for row in rows)
    metrics["trace.overhead_share"] = wall / reference_wall - 1.0
    return metrics


def shares(rows: List[LayerRow]) -> List[Tuple[str, float, float]]:
    """(layer, self seconds, share of the traced wall), medians over the
    traced repetitions: where the time of the traced window went."""
    wall = statistics.median(row.wall for row in rows)
    table = []
    for layer in sorted({name for row in rows for name in row.by_layer}):
        seconds = statistics.median(
            row.by_layer.get(layer, 0.0) for row in rows
        )
        table.append((layer, seconds, seconds / wall))
    return table

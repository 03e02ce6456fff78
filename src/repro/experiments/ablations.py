"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's reported numbers and probe *why* the
algorithms behave as they do:

* :func:`run_threshold_sweep` — sensitivity of MNSA to the t threshold
  (the paper fixes t = 20% and calls it conservative; the sweep shows the
  creation-cost / plan-quality trade-off directly).
* :func:`run_next_stat_ablation` — the Sec 4.2 costliest-operator
  heuristic vs. building candidates in arbitrary (candidate-list) order.
* :func:`run_shrinking_ablation` — MNSA followed by Shrinking Set vs.
  MNSA/D: retained statistics, update cost, optimizer calls.
* :func:`run_equivalence_ablation` — Shrinking Set under execution-tree
  vs. t-Optimizer-Cost equivalence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.backends.memory import MemoryBackend
from repro.core.candidates import candidate_statistics
from repro.core.equivalence import (
    ExecutionTreeEquivalence,
    TOptimizerCostEquivalence,
)
from repro.core.mnsa import MnsaConfig, mnsa_for_query, mnsa_for_workload
from repro.core.mnsad import mnsad_for_workload
from repro.core.shrinking import shrinking_set
from repro.experiments.common import workload_execution_cost
from repro.optimizer import Optimizer
from repro.workload import generate_workload


@dataclass
class ThresholdSweepRow:
    """One t value of the threshold sweep."""

    t_percent: float
    created_count: int
    creation_cost: float
    execution_cost: float


def run_threshold_sweep(
    database_factory: Callable,
    z,
    t_values=(5.0, 10.0, 20.0, 40.0, 80.0),
    workload_name: str = "U0-S-100",
    max_queries: int = 25,
) -> List[ThresholdSweepRow]:
    """MNSA at several t thresholds over identical databases/workloads."""
    rows = []
    for t in t_values:
        db = database_factory(z)
        queries = generate_workload(db, workload_name).queries()[:max_queries]
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_workload(
            backend, queries, config=MnsaConfig(t_percent=t)
        )
        rows.append(
            ThresholdSweepRow(
                t_percent=t,
                created_count=len(result.created),
                creation_cost=result.creation_cost,
                execution_cost=workload_execution_cost(db, queries),
            )
        )
    return rows


@dataclass
class NextStatAblationResult:
    """Costliest-operator heuristic vs. arbitrary creation order."""

    heuristic_created: int
    heuristic_creation_cost: float
    arbitrary_created: int
    arbitrary_creation_cost: float


def _first_remaining(plan, query, remaining, feedback=None):
    """FindNextStatToBuild replaced by candidate-list order (shuffled by
    the caller)."""
    return remaining[:1] or None


def run_next_stat_ablation(
    database_factory: Callable,
    z,
    workload_name: str = "U0-S-100",
    max_queries: int = 25,
    seed: int = 3,
) -> NextStatAblationResult:
    """Compare statistic-pick strategies under identical budgets."""
    config = MnsaConfig()

    db_h = database_factory(z)
    queries = generate_workload(db_h, workload_name).queries()[:max_queries]
    backend_h = MemoryBackend(db_h, Optimizer(db_h))
    heuristic_created = 0
    for query in queries:
        heuristic_created += len(
            mnsa_for_query(backend_h, query, config=config).created
        )
    heuristic_cost = db_h.stats.creation_cost_total

    db_a = database_factory(z)
    queries_a = generate_workload(db_a, workload_name).queries()[:max_queries]
    backend_a = MemoryBackend(db_a, Optimizer(db_a))
    rng = random.Random(seed)
    arbitrary_created = 0
    for query in queries_a:
        order = [
            key
            for key in candidate_statistics(query, config.candidate_mode)
            if not backend_a.is_stat_visible(key)
        ]
        rng.shuffle(order)
        result = mnsa_for_query(
            backend_a, query, order, config, _pick=_first_remaining
        )
        arbitrary_created += len(result.created)
    arbitrary_cost = db_a.stats.creation_cost_total

    return NextStatAblationResult(
        heuristic_created=heuristic_created,
        heuristic_creation_cost=heuristic_cost,
        arbitrary_created=arbitrary_created,
        arbitrary_creation_cost=arbitrary_cost,
    )


@dataclass
class ShrinkingAblationResult:
    """MNSA + Shrinking Set vs. MNSA/D."""

    mnsa_retained: int
    shrink_retained: int
    mnsad_retained: int
    shrink_update_cost: float
    mnsad_update_cost: float
    shrink_optimizer_calls: int
    mnsad_optimizer_calls: int
    shrink_execution_cost: float
    mnsad_execution_cost: float


def run_shrinking_ablation(
    database_factory: Callable,
    z,
    workload_name: str = "U25-S-100",
    max_queries: int = 25,
) -> ShrinkingAblationResult:
    """The Sec 5 trade-off: guaranteed-minimal vs. cheap-and-greedy."""
    # arm 1: MNSA then Shrinking Set (guaranteed essential set)
    db_s = database_factory(z)
    queries = generate_workload(db_s, workload_name).queries()[:max_queries]
    backend_s = MemoryBackend(db_s, Optimizer(db_s))
    mnsa_for_workload(backend_s, queries)
    mnsa_retained = len(db_s.stats.visible_keys())
    shrink = shrinking_set(backend_s, queries)
    shrink_update = db_s.stats.update_cost_of_keys(shrink.essential)
    shrink_exec = workload_execution_cost(db_s, queries)

    # arm 2: MNSA/D
    db_d = database_factory(z)
    queries_d = generate_workload(db_d, workload_name).queries()[:max_queries]
    backend_d = MemoryBackend(db_d, Optimizer(db_d))
    mnsad = mnsad_for_workload(backend_d, queries_d)
    db_d.stats.purge_drop_list()
    mnsad_update = db_d.stats.update_cost_of_keys(db_d.stats.visible_keys())
    mnsad_exec = workload_execution_cost(db_d, queries_d)

    return ShrinkingAblationResult(
        mnsa_retained=mnsa_retained,
        shrink_retained=len(shrink.essential),
        mnsad_retained=len(db_d.stats.visible_keys()),
        shrink_update_cost=shrink_update,
        mnsad_update_cost=mnsad_update,
        shrink_optimizer_calls=shrink.optimizer_calls,
        mnsad_optimizer_calls=mnsad.optimizer_calls,
        shrink_execution_cost=shrink_exec,
        mnsad_execution_cost=mnsad_exec,
    )


@dataclass
class EquivalenceAblationRow:
    """Shrinking Set under one equivalence criterion."""

    criterion: str
    retained: int
    update_cost: float
    execution_cost: float


def run_equivalence_ablation(
    database_factory: Callable,
    z,
    workload_name: str = "U0-S-100",
    max_queries: int = 20,
    t_values=(5.0, 20.0, 50.0),
) -> List[EquivalenceAblationRow]:
    """Execution-tree vs. t-cost equivalence in the Shrinking Set."""
    rows = []
    criteria = [("execution_tree", ExecutionTreeEquivalence())]
    criteria += [
        (f"t_cost_{t:g}", TOptimizerCostEquivalence(t)) for t in t_values
    ]
    for name, criterion in criteria:
        db = database_factory(z)
        queries = generate_workload(db, workload_name).queries()[:max_queries]
        backend = MemoryBackend(db, Optimizer(db))
        mnsa_for_workload(backend, queries, config=MnsaConfig(t_percent=1e-9))
        result = shrinking_set(backend, queries, criterion=criterion)
        rows.append(
            EquivalenceAblationRow(
                criterion=name,
                retained=len(result.essential),
                update_cost=db.stats.update_cost_of_keys(result.essential),
                execution_cost=workload_execution_cost(db, queries),
            )
        )
    return rows

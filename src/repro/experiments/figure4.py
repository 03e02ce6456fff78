"""Figure 4: MNSA vs. create-all-candidates (paper Sec 8.2).

Arm (a): create every statistic proposed by the Candidate Statistics
algorithm.  Arm (b): run MNSA (t = 20%, ε = 0.0005) over the same
candidates, charging the 3-optimizer-calls-per-statistic overhead to the
creation cost.  The paper reports 30-45% creation-time reduction with
execution-cost increase never above 2%.

``run_single_column_mnsa`` is the Sec 8.2 companion experiment where the
candidate set is restricted to single-column statistics (reduction above
30% in all cases).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.backends.memory import MemoryBackend
from repro.core.candidates import (
    CandidateMode,
    workload_candidate_statistics,
)
from repro.core.mnsa import MnsaConfig, mnsa_for_workload
from repro.experiments.common import (
    percent_increase,
    percent_reduction,
    workload_execution_cost,
)
from repro.optimizer import Optimizer
from repro.workload import generate_workload


@dataclass
class Figure4Result:
    """One bar of Figure 4.

    Attributes:
        database / workload: the combination run.
        candidate_count: statistics the Candidate algorithm proposed.
        mnsa_created_count: how many MNSA actually built.
        all_creation_cost / mnsa_creation_cost: work units (MNSA's
            includes its optimizer-call overhead, as in the paper).
        all_execution_cost / mnsa_execution_cost: workload execution cost.
    """

    database: str
    workload: str
    candidate_count: int
    mnsa_created_count: int
    all_creation_cost: float
    mnsa_creation_cost: float
    all_execution_cost: float
    mnsa_execution_cost: float

    @property
    def creation_reduction_percent(self) -> float:
        return percent_reduction(
            self.all_creation_cost, self.mnsa_creation_cost
        )

    @property
    def execution_increase_percent(self) -> float:
        return percent_increase(
            self.all_execution_cost, self.mnsa_execution_cost
        )


def _run(
    database_factory: Callable,
    z,
    workload_name: str,
    candidate_mode: CandidateMode,
    max_queries: int,
    mnsa_config: MnsaConfig,
    workload_seed: int = 7,
) -> Figure4Result:
    # arm (a): create all candidates
    db_all = database_factory(z)
    workload = generate_workload(db_all, workload_name, seed=workload_seed)
    queries = workload.queries()[:max_queries]
    candidates = workload_candidate_statistics(queries, candidate_mode)
    for key in candidates:
        db_all.stats.create(key)
    all_creation = db_all.stats.creation_cost_total
    all_execution = workload_execution_cost(db_all, queries)

    # arm (b): MNSA
    db_mnsa = database_factory(z)
    workload_b = generate_workload(
        db_mnsa, workload_name, seed=workload_seed
    )
    queries_b = workload_b.queries()[:max_queries]
    backend = MemoryBackend(db_mnsa, Optimizer(db_mnsa))
    result = mnsa_for_workload(backend, queries_b, config=mnsa_config)
    mnsa_execution = workload_execution_cost(db_mnsa, queries_b)

    return Figure4Result(
        database=db_mnsa.name,
        workload=workload_name,
        candidate_count=len(candidates),
        mnsa_created_count=len(result.created),
        all_creation_cost=all_creation,
        mnsa_creation_cost=result.creation_cost,
        all_execution_cost=all_execution,
        mnsa_execution_cost=mnsa_execution,
    )


def run_figure4(
    database_factory: Callable,
    z,
    workload_name: str = "U25-S-100",
    max_queries: int = 40,
    workload_seed: int = 7,
    config: MnsaConfig = MnsaConfig(),
) -> Figure4Result:
    """Run one Figure 4 bar (heuristic candidates, MNSA defaults)."""
    config = replace(config, candidate_mode=CandidateMode.HEURISTIC)
    return _run(
        database_factory,
        z,
        workload_name,
        CandidateMode.HEURISTIC,
        max_queries,
        config,
        workload_seed,
    )


def run_single_column_mnsa(
    database_factory: Callable,
    z,
    workload_name: str = "U25-S-100",
    max_queries: int = 40,
    workload_seed: int = 7,
) -> Figure4Result:
    """The Sec 8.2 single-column-candidates variant of Figure 4."""
    config = MnsaConfig(candidate_mode=CandidateMode.SINGLE_COLUMN)
    return _run(
        database_factory,
        z,
        workload_name,
        CandidateMode.SINGLE_COLUMN,
        max_queries,
        config,
        workload_seed,
    )

"""The paper's contribution: automated statistics selection.

* :mod:`repro.core.candidates` — the Candidate Statistics algorithm
  (Sec 3.1 / 7.1) plus the Exhaustive and single-column baselines.
* :mod:`repro.core.equivalence` — Execution-Tree, Optimizer-Cost, and
  t-Optimizer-Cost equivalence of statistics sets (Sec 3.2).
* :mod:`repro.core.essential` — essential-set definitions and checkers
  (Sec 3.3, Definitions 1 and 2).
* :mod:`repro.core.mnsa` — Magic Number Sensitivity Analysis (Sec 4,
  Figure 1) with :mod:`repro.core.next_stat` implementing
  FindNextStatToBuild (Sec 4.2).
* :mod:`repro.core.mnsad` — MNSA with Drop (Sec 5.1).
* :mod:`repro.core.shrinking` — the Shrinking Set algorithm (Sec 5.2,
  Figure 2).
* :mod:`repro.core.policy` — creation/drop/aging policies (Sec 6).
* :mod:`repro.core.advisor` — the end-to-end automation facade.
"""

from repro.core.candidates import (
    CandidateMode,
    candidate_statistics,
    workload_candidate_statistics,
)
from repro.core.equivalence import (
    EquivalenceCriterion,
    ExecutionTreeEquivalence,
    OptimizerCostEquivalence,
    TOptimizerCostEquivalence,
)
from repro.core.essential import (
    find_minimal_essential_set,
    is_equivalent_to_candidates,
    is_essential_set,
)
from repro.core.mnsa import MnsaConfig, MnsaResult, mnsa_for_query, mnsa_for_workload
from repro.core.next_stat import find_next_stat_to_build
from repro.core.mnsad import mnsad_for_query, mnsad_for_workload
from repro.core.shrinking import ShrinkingSetResult, shrinking_set
from repro.core.policy import AgingPolicy, AutoDropPolicy, CreationPolicy
from repro.core.advisor import AdvisorReport, StatisticsAdvisor

__all__ = [
    "CandidateMode",
    "candidate_statistics",
    "workload_candidate_statistics",
    "EquivalenceCriterion",
    "ExecutionTreeEquivalence",
    "OptimizerCostEquivalence",
    "TOptimizerCostEquivalence",
    "is_essential_set",
    "is_equivalent_to_candidates",
    "find_minimal_essential_set",
    "MnsaConfig",
    "MnsaResult",
    "mnsa_for_query",
    "mnsa_for_workload",
    "find_next_stat_to_build",
    "mnsad_for_query",
    "mnsad_for_workload",
    "ShrinkingSetResult",
    "shrinking_set",
    "AgingPolicy",
    "AutoDropPolicy",
    "CreationPolicy",
    "StatisticsAdvisor",
    "AdvisorReport",
]

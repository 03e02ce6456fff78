"""Cost-based query optimizer.

A System-R-style optimizer over the SPJ + aggregation subset:

* access-path selection (full scan vs. index seek),
* left-deep dynamic-programming join enumeration with nested-loop, hash,
  and sort-merge joins,
* hash aggregation and top-level sorts,
* selectivity estimation from statistics with **magic-number** fallbacks,
* the two server extensions the paper required of SQL Server (Sec 7.2):
  per-variable selectivity injection (``OptimizationRequest.overrides``) and
  ``Ignore_Statistics_Subset`` (via the statistics manager).

Public API::

    from repro.optimizer import Optimizer, OptimizationRequest, PlanCache
"""

from repro.optimizer.cache import (
    OptimizationRequest,
    PlanCache,
    statistics_fingerprint,
)
from repro.optimizer.variables import (
    GroupByVariable,
    JoinVariable,
    PredicateVariable,
    SelectivityVariable,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plans import (
    AggregateNode,
    IndexSeekNode,
    JoinAlgorithm,
    JoinNode,
    PlanNode,
    ScanNode,
    SortNode,
    plan_signature,
)
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    select_join,
)

__all__ = [
    "SelectivityVariable",
    "PredicateVariable",
    "JoinVariable",
    "GroupByVariable",
    "SelectivityEstimator",
    "CostModel",
    "PlanNode",
    "ScanNode",
    "IndexSeekNode",
    "JoinNode",
    "JoinAlgorithm",
    "AggregateNode",
    "SortNode",
    "plan_signature",
    "Optimizer",
    "OptimizationResult",
    "select_join",
    "OptimizationRequest",
    "PlanCache",
    "statistics_fingerprint",
]

"""The Shrinking Set algorithm (paper Sec 5.2, Figure 2).

Given a workload W and a statistics set S known to contain an essential
set (e.g. produced by vanilla MNSA), consider each statistic s in turn:
if removing s changes no plan of any query for which s is potentially
relevant — comparing against ``Plan(Q, S)``, the *original* set, exactly
as Figure 2 writes it — then s is non-essential and is discarded for
good.  The result is guaranteed to be an essential set for W (under the
chosen equivalence criterion), though *which* essential set depends on
the iteration order.

Worst case |S| × |W| optimizer calls.  Two sound reductions are applied:

* Figure 2 step 4's relevance filter — only queries for which s is
  potentially relevant are probed;
* an exact memo (``memoize=True``): a query's plan depends only on the
  visible statistics over its *own relevant columns*, so probes with the
  same relevant-visible set are reused instead of re-optimized.  This is
  the spirit of the Sec 5.2 efficiency technique (details deferred to the
  paper's reference [5]) without giving up the essential-set guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.backends.base import Backend
from repro.core.equivalence import (
    EquivalenceCriterion,
    ExecutionTreeEquivalence,
)
from repro.core.mnsa import MnsaConfig
from repro.optimizer.cache import OptimizationRequest
from repro.optimizer.optimizer import OptimizationResult
from repro.sql.query import Query
from repro.stats.statistic import StatKey


@dataclass
class ShrinkingSetResult:
    """Outcome of one Shrinking Set run.

    Attributes:
        essential: the statistics retained (R in Figure 2).
        removed: the statistics discarded as non-essential.
        optimizer_calls: optimize() invocations actually issued.
        memo_hits: probes answered from the memo instead of the optimizer.
    """

    essential: List[StatKey] = field(default_factory=list)
    removed: List[StatKey] = field(default_factory=list)
    optimizer_calls: int = 0
    memo_hits: int = 0


def _is_relevant(key: StatKey, query: Query) -> bool:
    """Step 4's filter: is ``key`` potentially relevant to ``query``?"""
    if key.table not in query.tables:
        return False
    relevant = {
        ref.column
        for ref in query.relevant_columns()
        if ref.table == key.table
    }
    return bool(set(key.columns) & relevant)


def _relevant_subset(
    query: Query, keys: Iterable[StatKey]
) -> FrozenSet[StatKey]:
    """The statistics among ``keys`` that can affect ``query``'s plan."""
    return frozenset(key for key in keys if _is_relevant(key, query))


def shrinking_set(
    backend: Backend,
    workload: Iterable[Query],
    initial: Optional[Sequence[StatKey]] = None,
    criterion: Optional[EquivalenceCriterion] = None,
    memoize: bool = True,
    config: Optional[MnsaConfig] = None,
) -> ShrinkingSetResult:
    """Run Figure 2 over ``workload`` starting from set ``initial``.

    Args:
        backend: the engine owning the statistics; also answers the
            ``Plan(Q, X)`` probes.
        workload: the queries (DML statements are skipped).
        initial: S in Figure 2; defaults to all currently *visible*
            statistics.
        criterion: equivalence criterion; Figure 2 is stated for
            execution-tree equivalence (the default); a
            :class:`~repro.core.equivalence.TOptimizerCostEquivalence`
            instance gives the t-cost variant.
        memoize: reuse probe results with identical relevant-visible sets.
        config: alternative to ``criterion`` — use
            ``config.criterion()``, the same equivalence MNSA runs with.

    Side effect: removed statistics are physically dropped from the
    backend (Figure 2 discards them and never considers them again).
    """
    if criterion is None:
        if config is not None:
            criterion = config.criterion()
        else:
            criterion = ExecutionTreeEquivalence()
    queries = [q for q in workload if isinstance(q, Query)]
    if initial is None:
        initial = backend.visible_stat_keys()
    original = list(initial)
    calls_before = backend.optimizer_calls
    memo: Dict[Tuple[Query, FrozenSet[StatKey]], OptimizationResult] = {}
    memo_hits = 0

    def probe(i: int, available: Sequence[StatKey]) -> OptimizationResult:
        nonlocal memo_hits
        relevant = _relevant_subset(queries[i], available)
        cache_key = (queries[i], relevant)
        if memoize and cache_key in memo:
            memo_hits += 1
            return memo[cache_key]
        hidden = [
            key
            for key in backend.stat_keys()
            if key not in set(available)
        ]
        result = backend.optimize(
            OptimizationRequest(queries[i], ignore=hidden)
        )
        if memoize:
            memo[cache_key] = result
        return result

    # Plan(Q, S) baselines (step 4's right-hand side), computed once.
    baselines = {i: probe(i, original) for i in range(len(queries))}

    retained = list(original)
    removed: List[StatKey] = []
    for key in original:  # step 3
        relevant_query_ids = [
            i for i, q in enumerate(queries) if _is_relevant(key, q)
        ]
        without = [k for k in retained if k != key]
        drop_ok = True
        for i in relevant_query_ids:
            result = probe(i, without)
            if not criterion.equivalent(result, baselines[i]):  # step 4
                drop_ok = False
                break
        if drop_ok:
            retained = without  # step 5
            removed.append(key)
            backend.drop_stats(key)

    return ShrinkingSetResult(
        essential=retained,
        removed=removed,
        optimizer_calls=backend.optimizer_calls - calls_before,
        memo_hits=memo_hits,
    )

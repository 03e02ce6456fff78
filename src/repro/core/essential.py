"""Essential sets of statistics (paper Sec 3.3, Definitions 1 and 2).

An *essential set* for query Q w.r.t. candidate set C is a subset S ⊆ C
such that S is equivalent to C for Q, but no proper subset of S is.

These checkers need every candidate statistic physically built (that is
the whole point of the paper: you can rarely afford this!), so they are
used in tests, in the Shrinking Set algorithm's correctness arguments,
and in small-scale validation experiments — not on the hot path.

``plan_with_stats`` realizes the paper's ``Plan(Q, X)`` notation through
the ``Ignore_Statistics_Subset`` extension: everything but X is hidden.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence

from repro.backends.base import Backend
from repro.core.equivalence import (
    EquivalenceCriterion,
    ExecutionTreeEquivalence,
)
from repro.core.mnsa import MnsaConfig
from repro.errors import StatisticsError
from repro.optimizer.cache import OptimizationRequest
from repro.optimizer.optimizer import OptimizationResult
from repro.sql.query import Query
from repro.stats.statistic import StatKey


def plan_with_stats(
    backend: Backend, query: Query, keys: Iterable[StatKey]
) -> OptimizationResult:
    """The paper's ``Plan(Q, X)``: optimize with exactly ``keys`` available.

    All other physically present statistics are hidden via the
    ``Ignore_Statistics_Subset`` mechanism.  Statistics already on the
    drop-list stay hidden regardless (callers doing essential-set analysis
    should not have an active drop-list).
    """
    available = set(keys)
    for key in available:
        if not backend.has_stats(key):
            raise StatisticsError(
                f"plan_with_stats: statistic {key} is not built"
            )
    hidden = [key for key in backend.stat_keys() if key not in available]
    return backend.optimize(OptimizationRequest(query, ignore=hidden))


def is_equivalent_to_candidates(
    backend: Backend,
    query: Query,
    subset: Sequence[StatKey],
    candidates: Sequence[StatKey],
    criterion: Optional[EquivalenceCriterion] = None,
) -> bool:
    """Is ``subset`` equivalent to the full candidate set for ``query``?"""
    criterion = criterion or ExecutionTreeEquivalence()
    with_all = plan_with_stats(backend, query, keys=candidates)
    with_subset = plan_with_stats(backend, query, keys=subset)
    return criterion.equivalent(with_subset, with_all)


def is_essential_set(
    backend: Backend,
    query: Query,
    subset: Sequence[StatKey],
    candidates: Sequence[StatKey],
    criterion: Optional[EquivalenceCriterion] = None,
) -> bool:
    """Definition 1: equivalent to C, and minimally so.

    Minimality is checked against all subsets of ``subset`` lacking one
    element, which suffices for the monotone optimizers this library
    models (and mirrors Example 1's conditions (2)-(4)).
    """
    criterion = criterion or ExecutionTreeEquivalence()
    if not is_equivalent_to_candidates(
        backend,
        query,
        subset=subset,
        candidates=candidates,
        criterion=criterion,
    ):
        return False
    for removed in subset:
        smaller = [key for key in subset if key != removed]
        if is_equivalent_to_candidates(
            backend,
            query,
            subset=smaller,
            candidates=candidates,
            criterion=criterion,
        ):
            return False
    return True


def find_minimal_essential_set(
    backend: Backend,
    query: Query,
    candidates: Sequence[StatKey],
    criterion: Optional[EquivalenceCriterion] = None,
    max_candidates: int = 12,
    config: Optional[MnsaConfig] = None,
) -> List[StatKey]:
    """Brute-force smallest essential set (exponential; tests only).

    Enumerates subsets by increasing size and returns the first subset
    equivalent to the full candidate set.  Guarded by ``max_candidates``
    because the search is O(2^|C|).  The criterion defaults to
    execution-tree equivalence; ``config`` uses ``config.criterion()``.
    """
    candidates = list(candidates)
    if len(candidates) > max_candidates:
        raise StatisticsError(
            f"brute-force search over {len(candidates)} candidates refused "
            f"(max {max_candidates})"
        )
    if criterion is None:
        if config is not None:
            criterion = config.criterion()
        else:
            criterion = ExecutionTreeEquivalence()
    reference = plan_with_stats(backend, query, keys=candidates)
    for size in range(0, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            attempt = plan_with_stats(backend, query, keys=combo)
            if criterion.equivalent(attempt, reference):
                return list(combo)
    return candidates

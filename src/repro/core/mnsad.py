"""MNSA with Drop — MNSA/D (paper Sec 5.1).

A simple adaptation of Figure 1: after creating statistic(s) *s* (step 10)
and recomputing the default plan (step 11), compare the new plan tree with
the previous one.  If the plan is unchanged, *s* is heuristically
non-essential and goes onto the drop-list.

Per the paper, MNSA/D is *erroneously aggressive*: a statistic g may be
dropped because S and S ∪ {g} give the same plan even though S ∪ {g, h}
would differ — and greedy inclusion means retained statistics are never
reconsidered.  Both behaviours are preserved faithfully here.

A drop-listed statistic is invisible to the optimizer, so after a group
goes onto the drop-list the visible statistics are exactly those the
last ε / 1−ε probe saw, and its answer ("keep going") still holds.  The
next iteration therefore skips the probe and its two optimizer calls:
a retained statistic costs MNSA's three calls, a drop-listed one costs
one (the re-optimize that judged it).  The created, retained and dropped
lists, the iterations and the stop reason are those of probing every
time (``tests/core/test_mnsad.py`` holds that loop as its oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.backends.base import Backend
from repro.core.candidates import candidate_statistics
from repro.core.mnsa import MnsaConfig, append_new, members_of
from repro.core.next_stat import find_next_stat_to_build
from repro.sql.query import Query
from repro.stats.statistic import StatKey


@dataclass
class MnsadResult:
    """Outcome of an MNSA/D run.

    Attributes:
        created: statistics created (including later-dropped ones).
        retained: created statistics kept visible.
        dropped: created statistics moved to the drop-list.
        iterations, optimizer_calls, creation_cost, stop_reason: as in
            :class:`~repro.core.mnsa.MnsaResult`.
    """

    created: List[StatKey] = field(default_factory=list)
    retained: List[StatKey] = field(default_factory=list)
    dropped: List[StatKey] = field(default_factory=list)
    iterations: int = 0
    optimizer_calls: int = 0
    creation_cost: float = 0.0
    stop_reason: str = ""

    _members: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def merge(self, other: "MnsadResult") -> None:
        created, retained, dropped = (
            members_of(self._members, name, getattr(self, name))
            for name in ("created", "retained", "dropped")
        )
        append_new(self.created, created, other.created)
        append_new(self.retained, retained, other.retained)
        # a statistic dropped for one query but retained for another stays
        if not dropped.isdisjoint(retained):
            self.dropped = [k for k in self.dropped if k not in retained]
            dropped.difference_update(retained)
        append_new(
            self.dropped,
            dropped,
            [key for key in other.dropped if key not in retained],
        )
        self.iterations += other.iterations
        self.optimizer_calls += other.optimizer_calls
        self.creation_cost += other.creation_cost
        self.stop_reason = "workload"


def mnsad_for_query(
    backend: Backend,
    query: Query,
    candidates: Optional[Sequence[StatKey]] = None,
    config: MnsaConfig = MnsaConfig(),
    feedback=None,
) -> MnsadResult:
    """Run MNSA/D for one query against ``backend``.

    ``feedback`` (an optional
    :class:`~repro.feedback.store.FeedbackStore`) biases
    ``FindNextStatToBuild`` toward the highest-error observed predicate
    columns, as in :func:`~repro.core.mnsa.mnsa_for_query`.
    """
    result = MnsadResult()
    criterion = config.cost_criterion()
    drop_criterion = config.drop_criterion()
    calls_before = backend.optimizer_calls
    build_cost_before = backend.creation_cost_total

    if candidates is None:
        candidates = candidate_statistics(query, config.candidate_mode)
    remaining = [
        key for key in candidates if not backend.is_stat_visible(key)
    ]

    if config.min_table_rows > 0:
        for key in list(remaining):
            if backend.row_count(key.table) < config.min_table_rows:
                backend.create_stats(key)
                result.created.append(key)
                result.retained.append(key)
                remaining.remove(key)

    plan = backend.optimize_query(query)
    max_iterations = len(remaining) + 1
    reprobe = True
    for _ in range(max_iterations):
        result.iterations += 1
        if reprobe:
            missing, low, high = backend.probe(query, config.epsilon)
            if not missing:
                result.stop_reason = "no_missing_variables"
                break
            if criterion.costs_equivalent(low.cost, high.cost):
                result.stop_reason = "insensitive"
                break
        group = find_next_stat_to_build(
            plan.plan, query, remaining, feedback=feedback
        )
        if not group:
            result.stop_reason = "exhausted"
            break
        for key in group:
            backend.create_stats(key)
            result.created.append(key)
            remaining.remove(key)
        new_plan = backend.optimize_query(query)
        if drop_criterion.equivalent(new_plan, plan):
            # the new statistics changed nothing: heuristically non-essential
            for key in group:
                backend.mark_stat_droppable(key)
                result.dropped.append(key)
            # drop-listed statistics are invisible, so the optimizer sees
            # what the last probe saw and its "continue" answer stands
            reprobe = False
        else:
            result.retained.extend(group)
            reprobe = True
        plan = new_plan
    else:
        result.stop_reason = "iteration_limit"

    result.optimizer_calls = backend.optimizer_calls - calls_before
    build_cost = backend.creation_cost_total - build_cost_before
    result.creation_cost = build_cost + (
        result.optimizer_calls * backend.optimizer_call_cost
    )
    return result


def mnsad_for_workload(
    backend: Backend,
    queries: Iterable[Query],
    config: MnsaConfig = MnsaConfig(),
) -> MnsadResult:
    """Run MNSA/D over a workload, query by query.

    A statistic dropped while processing one query is *revived* if a later
    query creates (and retains) it — the paper's motivation for the
    drop-list over physical deletion.
    """
    total = MnsadResult()
    for query in queries:
        partial = mnsad_for_query(backend, query, config=config)
        total.merge(partial)
    # reconcile the drop-list with the merged view
    for key in total.retained:
        if backend.is_stat_droppable(key):
            backend.revive_stat(key)
    return total

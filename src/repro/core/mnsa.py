"""Magic Number Sensitivity Analysis — MNSA (paper Sec 4, Figure 1).

The chicken-and-egg problem: a statistic's usefulness can only be judged
after building it.  MNSA sidesteps it: pin every statistics-less
selectivity variable to ε, optimize (P_low); pin to 1-ε, optimize
(P_high).  Under cost-monotonicity the true cost lies between the two, so
if Cost(P_low) and Cost(P_high) are t-Optimizer-Cost equivalent, *no*
remaining statistic can change the picture and creation stops.  Otherwise
``FindNextStatToBuild`` proposes the next statistic from the most
expensive operator of the default plan, and the loop repeats.

Overhead: three optimizer calls per statistic created (Sec 4.3) — the
two probe plans and the re-optimize after the build — charged to the
creation-cost ledger at :data:`~repro.stats.cost.OPTIMIZER_CALL_COST`.  The default plan of
step 2 is paid for only when step 8 reads it: a query whose first probe
stops the loop (no missing variable, or insensitive) costs the two probe
calls alone.

:func:`figure1` is the one loop.  MNSA/D (:mod:`repro.core.mnsad`) runs
it with the Sec 5.1 drop step on; that step pays all three calls only
for a statistic it retains, a drop-listed one costs the re-optimize
alone.  :func:`tune_workload` is the one workload driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.backends.base import Backend
from repro.core.candidates import CandidateMode, candidate_statistics
from repro.core.equivalence import (
    EquivalenceCriterion,
    ExecutionTreeEquivalence,
    TOptimizerCostEquivalence,
)
from repro.core.next_stat import find_next_stat_to_build
from repro.optimizer.variables import EPSILON
from repro.sql.query import Query
from repro.stats.cost import OPTIMIZER_CALL_COST
from repro.stats.statistic import StatKey


#: MNSA/D builds each new statistic from a seeded sample of this many
#: rows and rebuilds it in full only when it moves the plan: the drop
#: test asks only whether it does.  Tables no larger build in full.
MNSAD_SAMPLE_ROWS = 2000


@dataclass(frozen=True)
class MnsaConfig:
    """Knobs of the MNSA loop.

    Attributes:
        epsilon: the ε pinning value; defaults to the canonical
            :data:`repro.optimizer.variables.EPSILON` (the paper's
            0.0005, Sec 4.1).
        t_percent: the t-Optimizer-Cost equivalence threshold; the paper
            recommends 20% as conservative (Sec 8.2).
        min_table_rows: Sec 4.3's augmentation — candidates on tables
            smaller than this are created outright without analysis
            (creating statistics on small tables is inexpensive).
        candidate_mode: where candidates come from when the caller does
            not supply them.
        equivalence: ``"t_cost"`` (the paper's pragmatic choice) or
            ``"execution_tree"`` — the variant the paper mentions but
            defers (Sec 4.1, last paragraph): stop only when P_low and
            P_high are the *same execution tree*, a stricter test that
            builds more statistics.
        min_query_cost_fraction: Sec 6's workload optimization — in
            ``mnsa_for_workload``, skip queries whose estimated cost is
            below this fraction of the total workload estimated cost
            ("only consider building statistics that would potentially
            serve a significant fraction of the workload cost").
        mnsad_drop_equivalence: how MNSA/D decides a new statistic
            "leaves the plan equivalent" (Sec 5.1): ``"execution_tree"``
            compares plan trees, the paper's literal wording;
            ``"t_cost"`` treats cost-t-equivalent plans as unchanged,
            matching the equivalence the paper's implementation used
            throughout (Sec 3.2) and dropping more aggressively.
    """

    epsilon: float = EPSILON
    t_percent: float = 20.0
    min_table_rows: int = 0
    candidate_mode: CandidateMode = CandidateMode.HEURISTIC
    equivalence: str = "t_cost"
    min_query_cost_fraction: float = 0.0
    mnsad_drop_equivalence: str = "execution_tree"

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.t_percent < 0:
            raise ValueError(f"t must be >= 0, got {self.t_percent}")
        if self.equivalence not in ("t_cost", "execution_tree"):
            raise ValueError(
                f"equivalence must be 't_cost' or 'execution_tree', "
                f"got {self.equivalence!r}"
            )
        if not 0.0 <= self.min_query_cost_fraction < 1.0:
            raise ValueError(
                "min_query_cost_fraction must be in [0, 1), got "
                f"{self.min_query_cost_fraction}"
            )
        if self.mnsad_drop_equivalence not in ("execution_tree", "t_cost"):
            raise ValueError(
                "mnsad_drop_equivalence must be 'execution_tree' or "
                f"'t_cost', got {self.mnsad_drop_equivalence!r}"
            )

    def cost_criterion(self) -> TOptimizerCostEquivalence:
        """The t-Optimizer-Cost criterion at this config's threshold —
        what the Sec 4.1 sensitivity test compares P_low/P_high with."""
        return TOptimizerCostEquivalence(self.t_percent)

    def criterion(self) -> EquivalenceCriterion:
        """The plan-equivalence criterion the ``equivalence`` field names.

        This is the single construction point shared by MNSA, the
        Shrinking Set, and the essential-set search.
        """
        if self.equivalence == "execution_tree":
            return ExecutionTreeEquivalence()
        return self.cost_criterion()

    def drop_criterion(self) -> EquivalenceCriterion:
        """The criterion MNSA/D uses for its Sec 5.1 drop decision."""
        if self.mnsad_drop_equivalence == "execution_tree":
            return ExecutionTreeEquivalence()
        return self.cost_criterion()


def members_of(cache: dict, name: str, keys: List[StatKey]) -> set:
    """The set mirror of the duplicate-free list ``keys``, kept in
    ``cache`` between ``merge`` calls so membership tests stay O(1) over
    a workload; rebuilt if the list was edited from outside."""
    members = cache.get(name)
    if members is None or len(members) != len(keys):
        members = cache[name] = set(keys)
    return members


def append_new(keys: List[StatKey], members: set, more) -> None:
    """Append those of ``more`` not yet in ``keys`` (mirrored by
    ``members``), preserving order."""
    for key in more:
        if key not in members:
            members.add(key)
            keys.append(key)


@dataclass
class MnsaResult:
    """Outcome of one MNSA or MNSA/D run.

    Attributes:
        created: statistics created, in creation order (including
            later-dropped ones).
        retained: created statistics kept visible — all of them for MNSA.
        dropped: created statistics MNSA/D moved to the drop-list.
        skipped: candidates left unbuilt when the loop terminated.
        iterations: loop iterations executed.
        optimizer_calls: optimize() invocations attributable to this run.
        stop_reason: why the loop ended — ``"no_missing_variables"``,
            ``"insensitive"`` (the Sec 4.1 test passed), or ``"exhausted"``
            (FindNextStatToBuild ran dry).
        creation_cost: work units: statistic builds + optimizer-call
            overhead (the Figure 4 creation-time metric).
        completion_cost: the part of ``creation_cost`` MNSA/D spent
            rebuilding sampled statistics in full
            (:data:`MNSAD_SAMPLE_ROWS`).
    """

    created: List[StatKey] = field(default_factory=list)
    retained: List[StatKey] = field(default_factory=list)
    dropped: List[StatKey] = field(default_factory=list)
    skipped: List[StatKey] = field(default_factory=list)
    iterations: int = 0
    optimizer_calls: int = 0
    stop_reason: str = ""
    creation_cost: float = 0.0
    completion_cost: float = 0.0

    _members: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def merge(self, other: "MnsaResult") -> None:
        """Fold a per-query result into a workload-level accumulator."""
        created, retained, dropped, skipped = (
            members_of(self._members, name, getattr(self, name))
            for name in ("created", "retained", "dropped", "skipped")
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
        append_new(
            self.skipped,
            skipped,
            [key for key in other.skipped if key not in created],
        )
        self.iterations += other.iterations
        self.optimizer_calls += other.optimizer_calls
        self.creation_cost += other.creation_cost
        self.completion_cost += other.completion_cost
        self.stop_reason = "workload"


def figure1(
    backend: Backend,
    query: Query,
    candidates: Optional[Sequence[StatKey]] = None,
    config: MnsaConfig = MnsaConfig(),
    feedback=None,
    *,
    drop: bool,
    _pick=find_next_stat_to_build,
) -> MnsaResult:
    """Figure 1's loop for one query against ``backend``; with ``drop``,
    MNSA/D's Sec 5.1 compare-and-drop step after step 11.

    Statistics already present (and visible) are treated as existing set S;
    only missing candidates are considered for creation.  ``feedback``
    (an optional :class:`~repro.feedback.store.FeedbackStore`) lets
    ``FindNextStatToBuild`` break candidate ties toward the
    highest-error observed predicate columns; ``None`` reproduces the
    paper's candidate-order choice exactly.  ``_pick`` replaces
    ``FindNextStatToBuild`` (the next-stat ablation's shuffled order).

    A drop-listed statistic is invisible to the optimizer, so after a
    group goes onto the drop-list the visible statistics are exactly
    those the last ε / 1−ε probe saw, and its answer ("keep going")
    still holds: the next iteration skips the probe and its two
    optimizer calls.  The lists, the iterations and the stop reason are
    those of probing every time (``tests/core/test_mnsad.py`` holds that
    loop as its oracle).

    Step 2's default plan is made at the first step 8, not before the
    first probe.  No statistic changes between the two, so ``_pick``
    reads the plan an eager step 2 would have made, and a query the
    first probe stops makes no default-plan call at all.

    With ``drop``, step 10 builds each new statistic from a
    :data:`MNSAD_SAMPLE_ROWS` sample.  A group that moves the plan is
    completed — rebuilt in full, charged as creation cost — and step 11
    runs again, so it is retained only if its full build still moves
    the plan.  A drop-listed statistic stays sampled.
    """
    result = MnsaResult()
    criterion = config.criterion()
    drop_criterion = config.drop_criterion()
    calls_before = backend.optimizer_calls
    build_cost_before = backend.creation_cost_total
    sample_rows = MNSAD_SAMPLE_ROWS if drop else None

    if candidates is None:
        candidates = candidate_statistics(query, config.candidate_mode)
    remaining = [
        key for key in candidates if not backend.is_stat_visible(key)
    ]

    # Sec 4.3 augmentation: small tables skip the analysis entirely.
    if config.min_table_rows > 0:
        for key in list(remaining):
            if backend.row_count(key.table) < config.min_table_rows:
                backend.create_stats(key)
                result.created.append(key)
                result.retained.append(key)
                remaining.remove(key)

    plan = None  # step 2's plan, made when step 8 first needs it
    reprobe = True
    for _ in range(len(remaining) + 1):
        result.iterations += 1
        if reprobe:
            # steps 4-6: missing variables, P_low, P_high
            missing, low, high = backend.probe(query, config.epsilon)
            if not missing:
                result.stop_reason = "no_missing_variables"
                break
            if criterion.equivalent(low, high):  # step 7
                result.stop_reason = "insensitive"
                break
        if plan is None:  # step 2: default magic numbers
            plan = backend.optimize_query(query)
        group = _pick(plan.plan, query, remaining, feedback=feedback)  # step 8
        if not group:
            result.stop_reason = "exhausted"
            break
        for key in group:  # step 10 (pairs for join dependencies)
            backend.create_stats(key, sample_rows)
            result.created.append(key)
            remaining.remove(key)
        new_plan = backend.optimize_query(query)  # steps 11-12
        if drop and not drop_criterion.equivalent(new_plan, plan):
            # the sample moved the plan: pay for the full build, ask again
            before = backend.creation_cost_total
            if backend.complete_stats(group):
                result.completion_cost += backend.creation_cost_total - before
                new_plan = backend.optimize_query(query)
        if drop and drop_criterion.equivalent(new_plan, plan):
            # Sec 5.1: the new statistics changed nothing, so they are
            # heuristically non-essential; the last probe's answer stands
            for key in group:
                backend.mark_stat_droppable(key)
                result.dropped.append(key)
            reprobe = False
        else:
            result.retained.extend(group)
            reprobe = True
        plan = new_plan
    else:
        result.stop_reason = "iteration_limit"

    result.skipped = remaining
    result.optimizer_calls = backend.optimizer_calls - calls_before
    build_cost = backend.creation_cost_total - build_cost_before
    overhead = result.optimizer_calls * OPTIMIZER_CALL_COST
    result.creation_cost = build_cost + overhead
    return result


def mnsa_for_query(
    backend: Backend,
    query: Query,
    candidates: Optional[Sequence[StatKey]] = None,
    config: MnsaConfig = MnsaConfig(),
    feedback=None,
    _pick=find_next_stat_to_build,
) -> MnsaResult:
    """Run Figure 1's algorithm for one query against ``backend``
    (:func:`figure1` without the drop step)."""
    return figure1(
        backend, query, candidates, config, feedback, drop=False, _pick=_pick
    )


def tune_workload(
    backend: Backend,
    queries: Iterable[Query],
    config: MnsaConfig,
    for_query: Callable[[Query], MnsaResult],
) -> MnsaResult:
    """Run ``for_query`` over a workload, query by query, and merge.

    With ``config.min_query_cost_fraction > 0``, queries whose estimated
    cost (under current statistics) falls below that fraction of the
    total are skipped — the Sec 6 off-line workload optimization.  A
    statistic dropped while processing one query is *revived* if a later
    query creates (and retains) it — the paper's motivation for the
    drop-list over physical deletion.
    """
    queries = list(queries)
    if config.min_query_cost_fraction > 0.0 and queries:
        estimates = [backend.optimize_query(q).cost for q in queries]
        total_cost = sum(estimates) or 1.0
        threshold = config.min_query_cost_fraction * total_cost
        queries = [
            q for q, cost in zip(queries, estimates) if cost >= threshold
        ]
    total = MnsaResult()
    for query in queries:
        total.merge(for_query(query))
    # reconcile the drop-list with the merged view
    for key in total.retained:
        if backend.is_stat_droppable(key):
            backend.revive_stat(key)
    return total


def mnsa_for_workload(
    backend: Backend,
    queries: Iterable[Query],
    config: MnsaConfig = MnsaConfig(),
) -> MnsaResult:
    """Create a sufficient statistics set for a workload (Sec 4.3):
    invoke MNSA for each query in turn (:func:`tune_workload`)."""
    return tune_workload(
        backend,
        queries,
        config,
        lambda query: mnsa_for_query(backend, query, config=config),
    )

"""The optimizer facade: access paths, join enumeration, aggregation.

``Optimizer.optimize_request(OptimizationRequest(query, ...))`` is the
canonical entry point; the request object carries everything the paper's
algorithms need:

* ``overrides`` — the Sec 7.2 extension that feeds MNSA's ε / 1-ε
  pinning of statistics-less selectivity variables;
* ``ignore`` — the ``Ignore_Statistics_Subset`` extension the Shrinking
  Set algorithm uses to obtain ``Plan(Q, S')`` for S' ⊂ S.

``magic_variables(query)`` reports which selectivity variables currently
fall back to magic numbers (step (a) of the Sec 4.1 test).
``optimize(query)`` is shorthand for the default request.

An optional :class:`~repro.optimizer.cache.PlanCache` memoizes results
per request; see that module for the epoch / fingerprint invalidation
contract.

Join enumeration is System-R dynamic programming, split by what each
part depends on — graph → schedule → scalar DP → materialize:

1. **Join graph** (:attr:`Query.join_graph`, built on the first optimize
   of a query and kept on it): table -> bit, one edge per join predicate,
   the predicates grouped per table pair.
2. **Schedule** (:mod:`repro.optimizer.schedule`, compiled once per query
   and kept on its graph; the part that depends only on the graph's shape
   is shared between queries): for every table set, in ascending-mask
   order, its candidate joins ``(left set, right set, edge)`` — left-deep
   extensions with each member as the inner base table, with
   ``enable_bushy_joins`` also the splits into two sub-plans, and for a
   set with no join edge inside (only for such a set) the cross products
   — and per edge the crossing predicates and table pairs.
3. **Scalar DP** (:class:`_JoinSearch`): per request each pair's
   selectivity is estimated once (:func:`pair_selectivities`) and each
   edge's combined selectivity and inner index resolved once; then every
   table set gets the ``(rows, cost, sort cost)`` of its cheapest join,
   the operator chosen cost-first on those floats
   (:func:`_join_chooser`; :func:`select_join` is its form over plan
   nodes, for the SQLite backend).
4. **Materialize**: a :class:`JoinNode` is built for each join of the
   winning tree, n−1 of them — and, during the search, for the two sides
   of an exact cost tie.

Plans, costs and row estimates are bit-identical to building and
comparing every candidate plan (``tests/optimizer/golden_plans_u25c.json``
pins them, ``tests/property/test_join_search_props.py`` keeps the
search that did so as an oracle), which fixes the float order and the
tie-break:

* a join's selectivity is ``1.0 *= s_pair`` over the connecting table
  pairs in sorted table-pair order; rows and costs use one expression
  each, in :func:`_join_chooser` over the :class:`CostModel` formulas;
* a sub-plan's sort cost is ``CostModel.sort(rows)`` of its winner,
  computed when its table set is decided, and a merge join adds the two
  stored terms in the order ``sort(left) + sort(right)``
  (:meth:`CostModel.merge_join_sorted`, which :meth:`CostModel.merge_join`
  is now defined by);
* ``JoinNode.join_predicates`` keeps ``query.joins`` order;
* a candidate replaces the best so far only when strictly cheaper; exact
  cost ties — common: a hash join costs the same with its inputs
  swapped, and under MNSA's ε pins whole table sets cost the sum of
  their scans — go to the smaller ``str(plan.signature())``
  (:func:`~repro.optimizer.plans.better`).  That is a total order, so
  the candidate order (extensions in sorted-name order, then splits,
  cross products only as the fallback) decides nothing but which nodes
  get built; :meth:`JoinNode.signature_key` composes the string from the
  children's cached keys and the edge's cached predicate ``repr``
  instead of rendering the nested tuple, and must stay equal to it.

Optimization is therefore fully deterministic — essential for
Execution-Tree equivalence experiments.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.concurrency import guarded_by, plan_source
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import OptimizerError
from repro.optimizer.cache import (
    OptimizationRequest,
    PlanCache,
    statistics_fingerprint,
)
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plans import (
    AggregateNode,
    HavingNode,
    IndexSeekNode,
    JoinAlgorithm,
    JoinNode,
    PlanNode,
    ScanNode,
    SortNode,
    better,
)
from repro.optimizer.schedule import join_schedule
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.variables import (
    GroupByVariable,
    JoinVariable,
    SelectivityVariable,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    Predicate,
)
from repro.sql.query import Query


@dataclass
class OptimizationResult:
    """Outcome of one optimizer call.

    Attributes:
        plan: the chosen physical plan.
        cost: the plan's optimizer-estimated cost — the paper's
            ``Estimated-Cost(Q, S)``.
        rows: estimated output rows.
    """

    plan: PlanNode
    cost: float
    rows: float

    @property
    def signature(self) -> tuple:
        return self.plan.signature()


def pair_selectivities(graph, estimator: SelectivityEstimator) -> List[float]:
    """Selectivity of each joined table pair of ``graph`` (one per entry
    of ``graph.groups``), estimated once per request."""
    return [
        estimator.join_group_selectivity(JoinVariable(group))
        for group in graph.groups
    ]


def crossing_joins(graph, left_mask: int, right_mask: int, pair_selectivity):
    """Join predicates between two table sets, in ``query.joins`` order,
    and their combined selectivity: the pair selectivities multiplied in
    sorted table-pair order."""
    crossing = graph.crossing(left_mask, right_mask)
    selectivity = 1.0
    for group in sorted({edge.group for edge in crossing}):
        selectivity *= pair_selectivity[group]
    return tuple(edge.predicate for edge in crossing), selectivity


def _join_chooser(cost_model: CostModel, config: OptimizerConfig):
    """Operator selection for one join on scalars, cost-first.

    Returns ``choose(left, right, edge) -> (cost, rows, algorithm)``: the
    cheapest of the (at most four) algorithms for a join.  ``left`` and
    ``right`` are ``(rows, cost, sort)`` of the inputs — estimated rows,
    cumulative cost and :meth:`CostModel.sort` cost (read only when merge
    joins are enabled); ``edge`` is ``(equi, selectivity, indexed)`` —
    whether the join has predicates, their combined selectivity, and
    whether the right input is a bare base table with an index on one of
    its join columns.  Each formula lives in :class:`CostModel`; this is
    the one place that combines them.

    Candidates are tried in the order hash, merge, index nested loops,
    naive nested loops and replaced only by a strictly cheaper one.  That
    is :func:`~repro.optimizer.plans.better`'s tie-break: signatures of
    the candidates agree up to the algorithm name, and ``'hash' <
    'merge' < 'nl_index' < 'nl_scan'``.
    """
    hash_join = cost_model.hash_join if config.enable_hash_join else None
    merge_join = (
        cost_model.merge_join_sorted if config.enable_merge_join else None
    )
    nested_loop_index = cost_model.nested_loop_index
    nested_loop_scan = cost_model.nested_loop_scan
    HASH = JoinAlgorithm.HASH
    MERGE = JoinAlgorithm.MERGE
    NESTED_LOOP_INDEX = JoinAlgorithm.NESTED_LOOP_INDEX
    NESTED_LOOP_SCAN = JoinAlgorithm.NESTED_LOOP_SCAN

    def choose(left, right, edge):
        left_rows, left_cost, left_sort = left
        right_rows, right_cost, right_sort = right
        equi, selectivity, indexed = edge
        # max(0.0, ·) and, below, min / max / max(1.0, ·) spelled as
        # comparisons (same values): this runs once per candidate join
        rows = left_rows * right_rows * selectivity
        if not rows > 0.0:
            rows = 0.0
        best = None
        algorithm = NESTED_LOOP_SCAN
        if equi:
            children_cost = left_cost + right_cost
            if hash_join is not None:
                if right_rows < left_rows:
                    build, probe = right_rows, left_rows
                else:
                    build, probe = left_rows, right_rows
                best = children_cost + hash_join(build, probe, rows)
                algorithm = HASH
            if merge_join is not None:
                cost = children_cost + merge_join(
                    left_sort, right_sort, left_rows, right_rows, rows
                )
                if best is None or cost < best:
                    best, algorithm = cost, MERGE
            if indexed:
                # seek the inner table's join column once per outer row
                matches = right_rows * selectivity if left_rows > 0 else 0.0
                cost = left_cost + nested_loop_index(left_rows, matches)
                if best is None or cost < best:
                    best, algorithm = cost, NESTED_LOOP_INDEX
        # naive nested loops re-derive the inner side per outer row; the
        # only option for a cartesian product
        cost = left_cost + nested_loop_scan(
            left_rows if left_rows > 1.0 else 1.0, right_cost
        )
        if best is None or cost < best:
            best, algorithm = cost, NESTED_LOOP_SCAN
        return best, rows, algorithm

    return choose


def _build_side(
    algorithm: JoinAlgorithm, left_rows: float, right_rows: float
) -> str:
    """A hash join builds on the smaller input, the right one on a tie."""
    if algorithm is JoinAlgorithm.HASH and not right_rows <= left_rows:
        return "left"
    return "right"


def select_join(
    left: PlanNode,
    right: PlanNode,
    joins,
    selectivity: float,
    cost_model: CostModel,
    config: OptimizerConfig,
    inner_index: Optional[str],
) -> Tuple[float, float, JoinAlgorithm, str]:
    """Operator selection for ``left ⋈ right`` over plan nodes.

    Returns ``(cost, rows, algorithm, build_side)`` of the cheapest
    algorithm without building a plan node; the arithmetic and the
    tie-break are :func:`_join_chooser`'s, which the join enumerator
    calls on scalars.  ``inner_index`` names an index on a join column of
    the bare base table ``right``; ``None`` rules index nested loops out.
    """
    merge = bool(joins) and config.enable_merge_join
    cost, rows, algorithm = _join_chooser(cost_model, config)(
        (left.rows, left.cost, cost_model.sort(left.rows) if merge else 0.0),
        (right.rows, right.cost, cost_model.sort(right.rows) if merge else 0.0),
        (bool(joins), selectivity, inner_index is not None),
    )
    return cost, rows, algorithm, _build_side(algorithm, left.rows, right.rows)


def finish_plan(
    query: Query,
    estimator: SelectivityEstimator,
    plan: PlanNode,
    cost_model: CostModel,
    config: OptimizerConfig,
    row_count,
) -> PlanNode:
    """Aggregation, HAVING and ORDER BY above the join tree ``plan``.

    Shared by both engines; ``row_count`` maps a table name to its
    cardinality.
    """
    if not query.group_by:
        if query.has_aggregation:
            cost = plan.cost + cost_model.hash_aggregate(plan.rows, 1.0)
            plan = AggregateNode(plan, (), query.all_aggregates(), 1.0, cost)
        return _add_order_by(query, plan, cost_model)

    groups = 1.0
    for table in query.tables:
        cols = query.group_by_columns_of(table)
        if not cols:
            continue
        variable = GroupByVariable(table, tuple(ref.column for ref in cols))
        fraction = estimator.group_by_fraction(variable)
        groups *= max(1.0, fraction * row_count(table))
    groups = min(groups, max(1.0, plan.rows))

    # hash aggregation pays a downstream sort for ORDER BY; stream
    # aggregation pays an upstream sort but delivers grouped order.
    # The choice hinges on the *estimated* group count, making it
    # statistics-sensitive.
    aggregates = query.all_aggregates()
    candidates = []
    for method, aggregate in (
        ("hash", cost_model.hash_aggregate),
        ("stream", cost_model.stream_aggregate),
    ):
        grouped = AggregateNode(
            plan,
            query.group_by,
            aggregates,
            groups,
            plan.cost + aggregate(plan.rows, groups),
            method=method,
        )
        candidates.append(
            _add_order_by(query, _add_having(query, grouped, config), cost_model)
        )
    hash_full, stream_full = candidates
    return stream_full if better(stream_full, hash_full) else hash_full


def _add_having(
    query: Query, plan: PlanNode, config: OptimizerConfig
) -> PlanNode:
    """Group filter after aggregation.

    HAVING selectivity cannot come from base-table statistics, so it
    is costed with the corresponding magic numbers and introduces no
    selectivity variable.
    """
    if not query.having:
        return plan
    magic = config.magic
    selectivity = 1.0
    for condition in query.having:
        if condition.op == "=":
            selectivity *= magic.equality
        elif condition.op == "<>":
            selectivity *= magic.inequality
        else:
            selectivity *= magic.range_
    rows = plan.rows * selectivity
    cost = plan.cost + plan.rows * (
        len(query.having) * config.cost.cpu_compare_cost
    )
    return HavingNode(plan, query.having, rows, cost)


def _order_by_satisfied(query: Query, plan: PlanNode) -> bool:
    """True if ``plan`` already delivers the requested order."""
    if isinstance(plan, HavingNode):
        return _order_by_satisfied(query, plan.child)
    if isinstance(plan, AggregateNode) and plan.method == "stream":
        prefix = plan.group_by[: len(query.order_by)]
        return tuple(query.order_by) == prefix
    return False


def _add_order_by(
    query: Query, plan: PlanNode, cost_model: CostModel
) -> PlanNode:
    if not query.order_by or plan.rows <= 1.0:
        return plan
    if _order_by_satisfied(query, plan):
        return plan
    return SortNode(plan, query.order_by, plan.cost + cost_model.sort(plan.rows))


class _JoinSearch:
    """One request's join enumeration: dynamic programming over the
    compiled schedule of the query's join graph
    (:mod:`repro.optimizer.schedule`), on floats.

    A table set keeps the ``(rows, cost, sort cost)`` of its cheapest
    join and which candidate that was.  Per request, each table pair's
    selectivity is estimated once and each schedule edge's combined
    selectivity and usable inner index are resolved once.  Plan nodes are
    built afterwards, for the joins of the winning tree — and, during the
    search, for the two sides of an exact cost tie, which
    :func:`~repro.optimizer.plans.better` decides.  The module docstring
    lists what keeps the result bit-identical to a search that builds and
    compares every plan.

    ``paths`` are the access paths of ``graph.tables``, in that order.
    """

    def __init__(
        self, graph, paths, estimator, cost_model, config, indexes
    ) -> None:
        self._schedule = schedule = join_schedule(
            graph, config.enable_bushy_joins
        )
        self._choose = _join_chooser(cost_model, config)
        self._sort = cost_model.sort if config.enable_merge_join else None
        pair_selectivity = pair_selectivities(graph, estimator)
        #: edge id -> name of the first index on one of the inner
        #: table's join columns
        self._edge_index: List[Optional[str]] = [None] * len(schedule.inner)
        if config.enable_index_paths:
            for e, inner in enumerate(schedule.inner):
                if inner is None:
                    continue
                for join in schedule.predicates[e]:
                    index = indexes.index_on(join.side_for(inner))
                    if index is not None:
                        self._edge_index[e] = index.name
                        break
        #: edge id -> (equi, selectivity, indexed) for the chooser
        self._edges = []
        for groups, index in zip(schedule.shape.groups, self._edge_index):
            selectivity = 1.0
            for group in groups:
                selectivity *= pair_selectivity[group]
            self._edges.append((bool(groups), selectivity, index is not None))
        size = 1 << len(paths)
        #: table mask -> (rows, cost, sort cost) of its cheapest plan;
        #: complete below the mask in progress
        self._plans: List[Optional[tuple]] = [None] * size
        #: table mask -> (candidate, algorithm) of its cheapest join
        self._winners: List[Optional[tuple]] = [None] * size
        #: table mask -> plan node, where one has been built
        self._nodes: List[Optional[PlanNode]] = [None] * size
        for i, path in enumerate(paths):
            self._nodes[1 << i] = path
            self._plans[1 << i] = self._summary(path.rows, path.cost)

    def _summary(self, rows: float, cost: float) -> tuple:
        """What a sub-plan contributes to the joins over it; its sort
        cost is computed here, once, not per merge-join candidate."""
        return rows, cost, self._sort(rows) if self._sort is not None else 0.0

    def best_plan(self) -> PlanNode:
        plans, edges, choose = self._plans, self._edges, self._choose
        shape = self._schedule.shape
        for mask, candidates in zip(shape.masks, shape.candidates):
            best_cost = None
            for candidate in candidates:
                left, right, e = candidate
                cost, rows, algorithm = choose(
                    plans[left], plans[right], edges[e]
                )
                if best_cost is None or cost < best_cost:
                    best_cost, best_rows = cost, rows
                    best = (candidate, algorithm)
                    best_node = None
                elif cost == best_cost:
                    node = self._join(candidate, algorithm, rows, cost)
                    if best_node is None:
                        best_node = self._join(*best, best_rows, best_cost)
                    if better(node, best_node):
                        best_rows = rows
                        best = (candidate, algorithm)
                        best_node = node
            plans[mask] = self._summary(best_rows, best_cost)
            self._winners[mask], self._nodes[mask] = best, best_node
        return self._node(len(plans) - 1)

    def _node(self, mask: int) -> PlanNode:
        """The plan node of a decided table set, built on first use."""
        node = self._nodes[mask]
        if node is None:
            rows, cost, _ = self._plans[mask]
            node = self._nodes[mask] = self._join(
                *self._winners[mask], rows, cost
            )
        return node

    def _join(self, candidate, algorithm, rows, cost) -> JoinNode:
        left, right, e = candidate
        return JoinNode(
            algorithm,
            self._node(left),
            self._node(right),
            self._schedule.predicates[e],
            rows,
            cost,
            self._edge_index[e]
            if algorithm is JoinAlgorithm.NESTED_LOOP_INDEX
            else None,
            _build_side(
                algorithm, self._plans[left][0], self._plans[right][0]
            ),
            self._schedule.predicates_key(e),
        )


class Optimizer:
    """Cost-based optimizer over one database.

    Args:
        database: the :class:`~repro.storage.Database` to plan against.
        config: knobs for the cost model and enumeration space.
        cache: optional shared :class:`~repro.optimizer.cache.PlanCache`.
            When present, :meth:`optimize_request` consults it before
            planning; :attr:`call_count` still counts every request (the
            paper's metric is optimizer *invocations*, cached or not) while
            :attr:`cold_optimize_count` counts only actual plan searches.
        corrections: optional :class:`~repro.learned.CorrectionStore`
            applied inside selectivity estimation.  Its monotone version
            is folded into the plan-cache key (see
            :meth:`OptimizationRequest.with_learned_version`) so corrected
            and uncorrected plans never alias in a shared cache.
        join_estimator: optional
            :class:`~repro.learned.SketchJoinEstimator`, the sketch-based
            A/B alternative; versioned into the cache key the same way.
    """

    # repro-lint: optimize-path
    # repro-lint: plan-state-exempt=_cache: attach-once wiring; attach_cache refuses to swap an existing cache, so entries never migrate between caches

    _call_count = guarded_by("_count_lock")
    _cold_count = guarded_by("_count_lock")
    _corrections = plan_source("version")
    _join_estimator = plan_source("version")

    def __init__(
        self,
        database,
        config: OptimizerConfig = DEFAULT_CONFIG,
        cache: Optional[PlanCache] = None,
        corrections=None,
        join_estimator=None,
    ) -> None:
        self._db = database
        self._config = config
        self._cost = CostModel(config)
        self._cache = cache
        self._corrections = corrections
        self._join_estimator = join_estimator
        self._count_lock = threading.Lock()
        self._call_count = 0
        self._cold_count = 0

    @property
    def config(self) -> OptimizerConfig:
        return self._config

    @property
    def cache(self) -> Optional[PlanCache]:
        return self._cache

    @property
    def corrections(self):
        """The attached :class:`~repro.learned.CorrectionStore`, if any."""
        return self._corrections

    @property
    def join_estimator(self):
        """The attached sketch join estimator, if any."""
        return self._join_estimator

    def attach_cache(self, cache: PlanCache) -> None:
        """Attach a plan cache after construction.

        Raises:
            OptimizerError: if a *different* cache is already attached
                (silently swapping caches would corrupt hit accounting).
        """
        if self._cache is not None and self._cache is not cache:
            raise OptimizerError(
                "optimizer already has a different PlanCache attached"
            )
        self._cache = cache

    @property
    def call_count(self) -> int:
        """Optimizer invocations, cached or not (MNSA charges 3 per
        statistic); incremented atomically so parallel drivers and
        service workers can share one optimizer."""
        with self._count_lock:
            return self._call_count

    @property
    def cold_optimize_count(self) -> int:
        """Requests that missed the cache and ran a full plan search."""
        with self._count_lock:
            return self._cold_count

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def optimize_request(
        self, request: OptimizationRequest, memo: Optional[dict] = None
    ) -> OptimizationResult:
        """Choose the cheapest plan for a canonical request.

        With a cache attached, the lookup runs in two tiers: a stats-epoch
        equality fast path, then fingerprint revalidation (see
        :mod:`repro.optimizer.cache`).  The epoch is scoped to the shards
        owning the query's tables
        (:meth:`~repro.stats.manager.StatisticsManager.epoch_for_tables`),
        so statistics churn elsewhere never evicts this entry.  Both the
        epoch and the fingerprint are read *before* planning, so a
        concurrent statistics mutation mid-flight leaves at worst a stale
        entry that fails revalidation — never a wrong plan.

        Degraded requests are statistics-independent by construction, so
        they key under epoch 0 with an empty fingerprint: after the first
        planning they are permanent cache hits that touch no statistics
        lock at all.

        ``memo`` is :meth:`probe`'s: statistics reads shared with the
        other estimators of that call.  Only the uncached path uses it —
        a plan stored in the cache must come from statistics read after
        the epoch it is stored under.
        """
        with self._count_lock:
            self._call_count += 1
        if self._cache is None:
            return self._execute_request(request, memo)
        request = self._keyed_request(request)
        if request.degraded:
            epoch = 0
        else:
            epoch = self._db.stats.epoch_for_tables(request.query.tables)
        result = self._cache.get_fresh(request, epoch)
        if result is not None:
            return result
        if request.degraded:
            fingerprint: tuple = ()
        else:
            fingerprint = statistics_fingerprint(
                self._db, request.query, request.ignore
            )
        result = self._cache.get_validated(request, epoch, fingerprint)
        if result is not None:
            return result
        result = self._execute_request(request)
        self._cache.store(request, epoch, fingerprint, result)
        return result

    def optimize(self, query: Query) -> OptimizationResult:
        """Choose the cheapest plan for ``query`` under the default
        request (no pins, nothing ignored)."""
        return self.optimize_request(OptimizationRequest(query))

    def optimize_with_missing(
        self, request: OptimizationRequest
    ) -> Tuple[OptimizationResult, Tuple[SelectivityVariable, ...]]:
        """:meth:`optimize_request` plus :meth:`magic_variables` of the
        request's query (none for a degraded request, which consults no
        statistics) — what serving one query needs.

        With a cache the missing set is a function of the plan-cache
        entry: computed on the first ask after the entry was stored, kept
        on it, and served with it from then on.  Only for a request with
        an empty ignore-set — the entry's fingerprint leaves ignored
        statistics out, :meth:`magic_variables` does not — and only when
        the statistics epoch stood still around the computation, so the
        kept set is the one of the entry's fingerprint.
        """
        result = self.optimize_request(request)
        if request.degraded:
            return result, ()
        query = request.query
        if self._cache is None or request.ignore:
            return result, tuple(self.magic_variables(query))
        request = self._keyed_request(request)
        stats = self._db.stats
        epoch = stats.epoch_for_tables(query.tables)
        missing = self._cache.missing_for(request, epoch)
        if missing is None:
            missing = tuple(self.magic_variables(query))
            if stats.epoch_for_tables(query.tables) == epoch:
                self._cache.keep_missing(request, epoch, missing)
        return result, missing

    def magic_variables(self, query: Query) -> List[SelectivityVariable]:
        """Selectivity variables of ``query`` forced onto magic numbers.

        Deliberately uncorrected: a learned correction does not make a
        statistic exist, and the advisor must keep seeing the same
        missing-variable set either way.
        """
        estimator = SelectivityEstimator(self._db, self._config)
        return estimator.missing_variables(query)

    def probe(
        self, query: Query, epsilon: float
    ) -> Tuple[
        List[SelectivityVariable],
        Optional[OptimizationResult],
        Optional[OptimizationResult],
    ]:
        """MNSA's sensitivity probe (Sec 4.1): :meth:`magic_variables`
        and the plans with all of them pinned to ``epsilon`` and to
        ``1 - epsilon`` (``None`` twice when nothing is missing).

        Counted as the two :meth:`optimize_request` calls it makes.  The
        three estimators see one statistics state, so they share one memo
        of what they read from it; the memo lives in this frame and dies
        with it.
        """
        memo: dict = {}
        missing = SelectivityEstimator(
            self._db, self._config, memo=memo
        ).missing_variables(query)
        if not missing:
            return missing, None, None
        low = self.optimize_request(
            OptimizationRequest(query, {v: epsilon for v in missing}), memo
        )
        high = self.optimize_request(
            OptimizationRequest(query, {v: 1.0 - epsilon for v in missing}),
            memo,
        )
        return missing, low, high

    def _learned_version(self) -> Optional[Tuple[int, int]]:
        """The combined learned-component version for cache keying, or
        ``None`` when no learned component is attached."""
        if self._corrections is None and self._join_estimator is None:
            return None
        return (
            self._corrections.version if self._corrections is not None else -1,
            (
                self._join_estimator.version
                if self._join_estimator is not None
                else -1
            ),
        )

    def _keyed_request(
        self, request: OptimizationRequest
    ) -> OptimizationRequest:
        """Fold the learned-component version into the cache key.

        The version is read *before* planning, like the stats epoch: a
        concurrent correction update mid-flight leaves at worst an entry
        keyed under the old version, which the next lookup skips.
        Requests that already carry an explicit ``learned`` component are
        passed through untouched.
        """
        if request.learned is not None:
            return request
        learned = self._learned_version()
        if learned is None:
            return request
        return request.with_learned_version(learned)

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------

    def _execute_request(
        self, request: OptimizationRequest, memo: Optional[dict] = None
    ) -> OptimizationResult:
        """Run the actual plan search for a request (cache miss path)."""
        with self._count_lock:
            self._cold_count += 1
        query = request.query
        use_statistics = not request.degraded
        scope = contextlib.nullcontext()
        if request.ignore and use_statistics:
            # another visible set than the memo's: read it afresh
            scope = self._db.stats.ignore_subset(request.ignore)
            memo = None
        with scope:
            estimator = SelectivityEstimator(
                self._db,
                self._config,
                request.overrides_dict() if request.overrides else None,
                corrections=self._corrections,
                join_estimator=self._join_estimator,
                use_statistics=use_statistics,
                memo=memo,
            )
            plan = finish_plan(
                query,
                estimator,
                self._enumerate_joins(query, estimator),
                self._cost,
                self._config,
                self._db.row_count,
            )
        return OptimizationResult(plan=plan, cost=plan.cost, rows=plan.rows)

    # ----- base table access paths ------------------------------------

    def _access_paths(
        self, table: str, query: Query, estimator: SelectivityEstimator
    ) -> List[PlanNode]:
        """All candidate access paths for one base table."""
        data = self._db.table(table)
        schema = data.schema
        predicates = query.predicates_of(table)
        filter_sel = estimator.table_filter_selectivity(table, predicates)
        out_rows = data.row_count * filter_sel

        paths: List[PlanNode] = []
        scan_cost = self._cost.table_scan(
            data.row_count, schema.row_width_bytes, len(predicates)
        )
        paths.append(ScanNode(table, predicates, out_rows, scan_cost))

        if self._config.enable_index_paths:
            for seek_pred in predicates:
                if not self._seekable(seek_pred):
                    continue
                index = self._db.indexes.index_on(seek_pred.columns()[0])
                if index is None:
                    continue
                seek_sel = estimator.predicate_selectivity(seek_pred)
                matching = data.row_count * seek_sel
                residual = tuple(
                    p for p in predicates if p is not seek_pred
                )
                cost = self._cost.index_seek(matching, len(residual))
                paths.append(
                    IndexSeekNode(
                        table, index.name, seek_pred, residual, out_rows, cost
                    )
                )
        return paths

    @staticmethod
    def _seekable(predicate: Predicate) -> bool:
        """Predicates our sorted indexes can seek on."""
        if isinstance(predicate, ComparisonPredicate):
            return predicate.op in ("=", "<", "<=", ">", ">=")
        return isinstance(predicate, (BetweenPredicate, InPredicate))

    def _best_access_path(self, table, query, estimator) -> PlanNode:
        paths = self._access_paths(table, query, estimator)
        if len(paths) == 1:
            return paths[0]
        return min(paths, key=lambda p: (p.cost, p.signature_key()))

    # ----- join enumeration -------------------------------------------

    def _enumerate_joins(
        self, query: Query, estimator: SelectivityEstimator
    ) -> PlanNode:
        access = {
            t: self._best_access_path(t, query, estimator)
            for t in query.tables
        }
        if len(access) == 1:
            return access[query.tables[0]]
        graph = query.join_graph
        search = _JoinSearch(
            graph,
            [access[name] for name in graph.tables],
            estimator,
            self._cost,
            self._config,
            self._db.indexes,
        )
        return search.best_plan()

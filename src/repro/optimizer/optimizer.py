"""The optimizer facade: access paths, join enumeration, aggregation.

``Optimizer.optimize_request(OptimizationRequest(query, ...))`` is the
canonical entry point; the request object carries everything the paper's
algorithms need:

* ``overrides`` — the Sec 7.2 extension that feeds MNSA's ε / 1-ε
  pinning of statistics-less selectivity variables;
* ``ignore`` — the ``Ignore_Statistics_Subset`` extension the Shrinking
  Set algorithm uses to obtain ``Plan(Q, S')`` for S' ⊂ S.

``magic_variables(query)`` reports which selectivity variables currently
fall back to magic numbers (step (a) of the Sec 4.1 test).  The legacy
``optimize(query, selectivity_overrides=..., ignore_statistics=...)``
kwargs survive as a deprecated shim over ``optimize_request``.

An optional :class:`~repro.optimizer.cache.PlanCache` memoizes results
per request; see that module for the epoch / fingerprint invalidation
contract.

Join enumeration is System-R dynamic programming in three stages:

1. **Join graph** (:attr:`Query.join_graph`, built on the first optimize
   of a query and kept on it): table -> bit, one edge per join predicate,
   the predicates grouped per table pair.  Per request each pair's
   selectivity is estimated once (:func:`pair_selectivities`).
2. **DP over bitmasks** (:class:`_JoinSearch`): every table set gets its
   cheapest plan, by extending a smaller set with one base-table access
   path (left-deep; with ``enable_bushy_joins`` also by joining two
   sub-plans).  A set with no join edge inside it falls back to a cross
   product, and only such a set does.
3. **Cost-first operator selection** (:func:`select_join`): the costs of
   hash, sort-merge, index and naive nested loops are computed first; a
   :class:`JoinNode` is built only for the winner of a table set.

Plans, costs and row estimates are bit-identical to building and
comparing every candidate plan (``tests/optimizer/golden_plans_u25c.json``
pins them), which fixes the float order and the tie-break:

* a join's selectivity is ``1.0 *= s_pair`` over the connecting table
  pairs in sorted table-pair order; rows and costs use one expression
  each, in :func:`select_join`;
* ``JoinNode.join_predicates`` keeps ``query.joins`` order;
* inner tables are tried in sorted-name order, and exact cost ties —
  common: a hash join costs the same with its inputs swapped — go to
  the smaller ``str(plan.signature())``
  (:func:`~repro.optimizer.plans.better`), so optimization is fully
  deterministic — essential for Execution-Tree equivalence experiments.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.concurrency import guarded_by, plan_source
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import OptimizerError, ReproDeprecationWarning
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


def select_join(
    left: PlanNode,
    right: PlanNode,
    joins,
    selectivity: float,
    cost_model: CostModel,
    config: OptimizerConfig,
    inner_index: Optional[str],
) -> Tuple[float, float, JoinAlgorithm, str]:
    """Operator selection for one join, cost-first.

    Costs the (at most four) algorithms for ``left ⋈ right`` and returns
    ``(cost, rows, algorithm, build_side)`` of the cheapest without
    building a plan node.  ``inner_index`` names an index on a join
    column of the bare base table ``right``; ``None`` rules index nested
    loops out.

    Candidates are tried in the order hash, merge, index nested loops,
    naive nested loops and replaced only by a strictly cheaper one.  That
    is :func:`~repro.optimizer.plans.better`'s tie-break: signatures of
    the candidates agree up to the algorithm name, and ``'hash' <
    'merge' < 'nl_index' < 'nl_scan'``.
    """
    left_rows, right_rows = left.rows, right.rows
    rows = max(0.0, left_rows * right_rows * selectivity)
    best = None
    algorithm = JoinAlgorithm.NESTED_LOOP_SCAN
    if joins:
        children_cost = left.cost + right.cost
        if config.enable_hash_join:
            best = children_cost + cost_model.hash_join(
                min(left_rows, right_rows), max(left_rows, right_rows), rows
            )
            algorithm = JoinAlgorithm.HASH
        if config.enable_merge_join:
            cost = children_cost + cost_model.merge_join(
                left_rows, right_rows, rows
            )
            if best is None or cost < best:
                best, algorithm = cost, JoinAlgorithm.MERGE
        if inner_index is not None:
            # seek the inner table's join column once per outer row
            matches = right_rows * selectivity if left_rows > 0 else 0.0
            cost = left.cost + cost_model.nested_loop_index(left_rows, matches)
            if best is None or cost < best:
                best, algorithm = cost, JoinAlgorithm.NESTED_LOOP_INDEX
    # naive nested loops re-derive the inner side per outer row; the only
    # option for a cartesian product
    cost = left.cost + cost_model.nested_loop_scan(
        max(1.0, left_rows), right.cost
    )
    if best is None or cost < best:
        best, algorithm = cost, JoinAlgorithm.NESTED_LOOP_SCAN
    build_side = "right"
    if algorithm is JoinAlgorithm.HASH and not right_rows <= left_rows:
        build_side = "left"  # hash builds on the smaller input
    return best, rows, algorithm, build_side


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


class _Candidate:
    """A costed join whose plan node is built only when needed: to break
    an exact cost tie, or because it won its table set."""

    __slots__ = ("cost", "_choice", "_left", "_right", "_edge", "_node")

    def __init__(self, choice, left: PlanNode, right: PlanNode, edge) -> None:
        self.cost = choice[0]
        self._choice = choice
        self._left = left
        self._right = right
        self._edge = edge
        self._node: Optional[JoinNode] = None

    def node(self) -> JoinNode:
        if self._node is None:
            cost, rows, algorithm, build_side = self._choice
            joins, _, inner_index = self._edge
            if algorithm is not JoinAlgorithm.NESTED_LOOP_INDEX:
                inner_index = None
            self._node = JoinNode(
                algorithm,
                self._left,
                self._right,
                joins,
                rows,
                cost,
                inner_index,
                build_side,
            )
        return self._node


class _JoinSearch:
    """One request's join enumeration: dynamic programming over table
    bitmasks on the query's join graph, operators chosen cost-first.

    Per request, each table pair's selectivity is estimated once, and
    the ``(join predicates, combined selectivity, usable inner index)``
    of a left-deep extension is resolved once per ``(inner table,
    connected tables)``.  The module docstring lists what keeps results
    bit-identical to a search that builds and compares every plan.
    """

    def __init__(
        self, graph, access, estimator, cost_model, config, indexes
    ) -> None:
        self._graph = graph
        self._paths = [access[name] for name in graph.tables]
        self._cost = cost_model
        self._config = config
        self._indexes = indexes
        self._pair_selectivity = pair_selectivities(graph, estimator)
        #: per inner table: connected mask -> resolved edge
        self._edges: List[dict] = [{} for _ in graph.tables]
        #: table mask -> best plan; complete below the mask in progress
        self._plans: List[Optional[PlanNode]] = [None] * (
            1 << len(graph.tables)
        )

    def best_plan(self) -> PlanNode:
        plans = self._plans
        for i, path in enumerate(self._paths):
            plans[1 << i] = path
        bushy = self._config.enable_bushy_joins
        # ascending masks: every proper subset of a mask precedes it
        for mask in range(3, len(plans)):
            if not mask & (mask - 1):
                continue
            best = self._extend(mask, cartesian=False)
            if bushy:
                best = self._split(mask, best)
            if best is None:
                # no join edge inside this set: fall back to a cross product
                best = self._extend(mask, cartesian=True)
            plans[mask] = best.node()
        return plans[-1]

    def _extend(self, mask: int, cartesian: bool) -> Optional[_Candidate]:
        """Cheapest left-deep plan for ``mask``: each member in turn (in
        sorted-name order) as the inner base table."""
        plans, edges = self._plans, self._edges
        neighbors = self._graph.neighbors
        best = None
        for i, path in enumerate(self._paths):
            bit = 1 << i
            if not mask & bit:
                continue
            rest = mask ^ bit
            connected = rest & neighbors[i]
            if connected or cartesian:
                edge = edges[i].get(connected)
                if edge is None:
                    edge = edges[i][connected] = self._edge(
                        connected, bit, self._graph.tables[i]
                    )
                best = self._consider(best, plans[rest], path, edge)
        return best

    def _split(
        self, mask: int, best: Optional[_Candidate]
    ) -> Optional[_Candidate]:
        """``best`` or a cheaper bushy split of ``mask`` into two joined
        sub-plans of at least two tables each.  The lowest table stays on
        the left, which halves the work."""
        plans = self._plans
        others = mask ^ (mask & -mask)
        right = others
        while right:
            left = mask ^ right
            if right & (right - 1) and left & (left - 1):
                edge = self._edge(left, right)
                if edge[0]:
                    best = self._consider(
                        best, plans[left], plans[right], edge
                    )
            right = (right - 1) & others
        return best

    def _edge(
        self, left_mask: int, right_mask: int, inner: Optional[str] = None
    ):
        """:func:`crossing_joins` plus, for a base-table right side
        ``inner``, the first index on one of its join columns."""
        joins, selectivity = crossing_joins(
            self._graph, left_mask, right_mask, self._pair_selectivity
        )
        inner_index = None
        if inner is not None and self._config.enable_index_paths:
            for join in joins:
                index = self._indexes.index_on(join.side_for(inner))
                if index is not None:
                    inner_index = index.name
                    break
        return joins, selectivity, inner_index

    def _consider(
        self, best: Optional[_Candidate], left: PlanNode, right: PlanNode, edge
    ) -> _Candidate:
        """``best`` or the cheapest join of ``left`` with ``right``,
        whichever :func:`~repro.optimizer.plans.better` prefers."""
        joins, selectivity, inner_index = edge
        choice = select_join(
            left, right, joins, selectivity,
            self._cost, self._config, inner_index,
        )
        if best is None or choice[0] < best.cost:
            return _Candidate(choice, left, right, edge)
        if choice[0] == best.cost:
            candidate = _Candidate(choice, left, right, edge)
            if better(candidate.node(), best.node()):
                return candidate
        return best


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
        self, request: OptimizationRequest
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
        """
        with self._count_lock:
            self._call_count += 1
        if self._cache is None:
            return self._execute_request(request)
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

    def optimize(
        self,
        query: Query,
        selectivity_overrides: Optional[Dict[SelectivityVariable, float]] = None,
        ignore_statistics: Optional[Iterable] = None,
    ) -> OptimizationResult:
        """Choose the cheapest plan for ``query``.

        .. deprecated::
            The ``selectivity_overrides`` / ``ignore_statistics`` kwargs
            are a shim over :meth:`optimize_request`; build an
            :class:`~repro.optimizer.cache.OptimizationRequest` instead.
            Calling with just a query stays supported.
        """
        if selectivity_overrides is not None or ignore_statistics is not None:
            warnings.warn(
                "optimize(query, selectivity_overrides=..., "
                "ignore_statistics=...) is deprecated; pass an "
                "OptimizationRequest to Optimizer.optimize_request()",
                ReproDeprecationWarning,
                stacklevel=2,
            )
        return self.optimize_request(
            OptimizationRequest.of(
                query, selectivity_overrides, ignore_statistics
            )
        )

    def magic_variables(self, query: Query) -> List[SelectivityVariable]:
        """Selectivity variables of ``query`` forced onto magic numbers.

        Deliberately uncorrected: a learned correction does not make a
        statistic exist, and the advisor must keep seeing the same
        missing-variable set either way.
        """
        estimator = SelectivityEstimator(self._db, self._config)
        return estimator.missing_variables(query)

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
        self, request: OptimizationRequest
    ) -> OptimizationResult:
        """Run the actual plan search for a request (cache miss path)."""
        with self._count_lock:
            self._cold_count += 1
        overrides = request.overrides_dict() if request.overrides else None
        use_statistics = not request.degraded
        if request.ignore and use_statistics:
            with self._db.stats.ignore_subset(request.ignore):
                return self._optimize(request.query, overrides)
        return self._optimize(
            request.query, overrides, use_statistics=use_statistics
        )

    def _optimize(
        self, query, overrides, use_statistics: bool = True
    ) -> OptimizationResult:
        estimator = SelectivityEstimator(
            self._db,
            self._config,
            overrides,
            corrections=self._corrections,
            join_estimator=self._join_estimator,
            use_statistics=use_statistics,
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
        search = _JoinSearch(
            query.join_graph,
            access,
            estimator,
            self._cost,
            self._config,
            self._db.indexes,
        )
        return search.best_plan()

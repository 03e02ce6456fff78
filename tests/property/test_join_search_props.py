"""The join-enumeration kernel against the search it replaced.

``repro.optimizer.optimizer._JoinSearch`` runs a schedule compiled from
the join graph, costs candidates on floats and builds plan nodes only
for the winning tree.  Its
contract is bit-identity with the node-per-candidate dynamic programme
it replaced, which is kept below **verbatim** as the oracle (the way
``test_build_kernel_props.py`` keeps ``_prefix_density``): the old
``select_join``, ``_Candidate`` and ``_JoinSearch``, renamed ``_old_*``,
and the old ``better`` with ``signature_key()`` spelled as what it was,
``str(signature())``.

Random join graphs of 2-7 tables — disconnected ones (cartesian
fallback), composite join edges, zero-row and equal-row tables (forced
cost ties), with and without statistics and indexes, every join
algorithm switch, bushy on and off, MNSA's ε / 1−ε pins — must produce
``(repr(signature), cost.hex(), rows.hex())`` equal to the oracle's.

Two count tests pin what the kernel no longer does: a join tree of n
tables costs n−1 ``JoinNode`` constructions, ties or not (a tie compares
cached signature strings), and the schedule is compiled once per query
(its structural part once per graph shape), not once per optimizer
call.  On every tie the oracle meets, the kernel's tie order — the
joins' parts compared as tuples — must equal the oracle's order on whole
signature strings.
"""

from typing import List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Column, ColumnRef, ColumnType, Schema, TableSchema
from repro.config import OptimizerConfig
from repro.core.mnsa import mnsa_for_query
from repro.backends.memory import MemoryBackend
from repro.optimizer import CostModel, OptimizationRequest, Optimizer
from repro.optimizer import optimizer as optimizer_module
from repro.optimizer import schedule as schedule_module
from repro.optimizer.optimizer import crossing_joins, pair_selectivities
from repro.optimizer.plans import (
    JoinAlgorithm,
    JoinNode,
    PlanNode,
    join_key_parts,
    join_signature_key,
)
from repro.optimizer.variables import EPSILON
from repro.sql.builder import QueryBuilder
from repro.storage import Database

# ----------------------------------------------------------------------
# the oracle: the deleted kernel, verbatim
# ----------------------------------------------------------------------


def _old_better(a: PlanNode, b: PlanNode) -> bool:
    """Deterministic plan comparison: cost, then signature string."""
    if a.cost != b.cost:
        return a.cost < b.cost
    return str(a.signature()) < str(b.signature())


def _old_select_join(
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


class _OldJoinSearch:
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
        choice = _old_select_join(
            left, right, joins, selectivity,
            self._cost, self._config, inner_index,
        )
        if best is None or choice[0] < best.cost:
            return _Candidate(choice, left, right, edge)
        if choice[0] == best.cost:
            candidate = _Candidate(choice, left, right, edge)
            if _old_better(candidate.node(), best.node()):
                return candidate
        return best


class _OldOptimizer(Optimizer):
    """The optimizer with the old search behind ``_enumerate_joins``."""

    def _enumerate_joins(self, query, estimator) -> PlanNode:
        access = {
            t: self._best_access_path(t, query, estimator)
            for t in query.tables
        }
        if len(access) == 1:
            return access[query.tables[0]]
        search = _OldJoinSearch(
            query.join_graph,
            access,
            estimator,
            self._cost,
            self._config,
            self._db.indexes,
        )
        return search.best_plan()


# ----------------------------------------------------------------------
# random databases and queries
# ----------------------------------------------------------------------

COLUMNS = ("a", "b", "c")
#: repeated sizes: equal-row tables have equal scan costs and tie everywhere
ROW_COUNTS = (0, 1, 6, 6, 40, 40, 300)


def _database(row_counts, seed: int) -> Database:
    names = [f"t{i}" for i in range(len(row_counts))]
    schema = Schema(
        [
            TableSchema(
                name, [Column(c, ColumnType.INT) for c in COLUMNS]
            )
            for name in names
        ],
        [],
    )
    database = Database(schema, name="join-search-props")
    rng = np.random.default_rng(seed)
    for name, rows in zip(names, row_counts):
        database.load_table(
            name,
            {
                # a few values, a tenth of the rows, nearly a key
                c: rng.integers(0, domain, size=rows).astype(np.int64)
                for c, domain in zip(COLUMNS, (5, rows // 10 + 2, rows + 2))
            },
        )
    return database


def _column(draw, tables):
    table = draw(st.integers(0, tables - 1))
    return ColumnRef(f"t{table}", draw(st.sampled_from(COLUMNS)))


@st.composite
def cases(draw):
    tables = draw(st.integers(2, 7))
    row_counts = draw(
        st.lists(
            st.sampled_from(ROW_COUNTS), min_size=tables, max_size=tables
        )
    )
    joins = []
    if draw(st.sampled_from((True, True, False))):
        # a random spanning tree: a connected graph
        for table in range(1, tables):
            joins.append(
                (
                    ColumnRef(f"t{table}", draw(st.sampled_from(COLUMNS))),
                    _column(draw, table),
                )
            )
    # more edges: cycles, composite (two-predicate) edges; on their own,
    # mostly a disconnected graph
    for _ in range(draw(st.integers(0, tables))):
        left, right = _column(draw, tables), _column(draw, tables)
        if left.table != right.table:
            joins.append((left, right))
    wheres = [
        (_column(draw, tables), draw(st.sampled_from(("=", "<", ">"))),
         draw(st.integers(0, 4)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    statistics = [
        _column(draw, tables) for _ in range(draw(st.integers(0, 6)))
    ]
    indexes = [
        _column(draw, tables) for _ in range(draw(st.integers(0, 5)))
    ]
    config = OptimizerConfig(
        enable_hash_join=draw(st.booleans()),
        enable_merge_join=draw(st.booleans()),
        enable_bushy_joins=draw(st.booleans()),
        enable_index_paths=draw(st.booleans()),
    )
    pin = draw(st.sampled_from((None, EPSILON, 1.0 - EPSILON)))
    return (
        row_counts, draw(st.integers(0, 3)), joins, wheres, statistics,
        indexes, config, pin,
    )


def _build(case):
    row_counts, seed, joins, wheres, statistics, indexes, config, pin = case
    database = _database(row_counts, seed)
    builder = QueryBuilder(database.schema)
    for i in range(len(row_counts)):
        builder.table(f"t{i}")
    for left, right in joins:
        builder.join(left, right)
    for column, op, value in wheres:
        builder.where(column, op, value)
    query = builder.build()
    for column in statistics:
        if not database.stats.has(column):
            database.stats.create(column)
    for n, column in enumerate(indexes):
        database.indexes.create_index(f"ix{n}", column)
    return database, query, config, pin


def _digest(result) -> Tuple[str, str, str]:
    return (
        repr(result.plan.signature()),
        result.cost.hex(),
        result.rows.hex(),
    )


@given(cases())
@settings(max_examples=250, deadline=None)
def test_kernel_equals_the_search_it_replaced(case):
    database, query, config, pin = _build(case)
    new, old = Optimizer(database, config), _OldOptimizer(database, config)
    overrides = None
    if pin is not None:
        overrides = {v: pin for v in new.magic_variables(query)}
    request = OptimizationRequest(query, overrides)
    result = new.optimize_request(request)
    assert _digest(result) == _digest(old.optimize_request(request))
    joins = [n for n in result.plan.walk() if isinstance(n, JoinNode)]
    assert len(joins) == len(query.tables) - 1
    for node in result.plan.walk():
        # the composed tie-break key is the string it replaced
        assert node.signature_key() == str(node.signature())


# ----------------------------------------------------------------------
# what the kernel no longer does
# ----------------------------------------------------------------------


def _chain(database, tables: int):
    builder = QueryBuilder(database.schema)
    for i in range(tables - 1):
        builder.join(f"t{i}.a", f"t{i + 1}.b")
    return builder.build()


def test_a_tree_without_cost_ties_constructs_one_node_per_join(monkeypatch):
    """Hash and merge joins cost the same with their inputs swapped, so
    every two-table set ties; nested loops over tables of distinct sizes
    do not.  A tie compares :func:`join_key_parts` over the sub-sets'
    signature strings (``_JoinSearch._parts``, which nothing else
    starts), so ties build no node either."""
    database = _database((3, 7, 12, 20, 33, 50), seed=1)
    built: List[JoinNode] = []

    class CountingJoinNode(JoinNode):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    ties = []
    search = optimizer_module._JoinSearch
    real_parts = search._parts
    monkeypatch.setattr(optimizer_module, "JoinNode", CountingJoinNode)
    monkeypatch.setattr(
        search,
        "_parts",
        lambda self, *args: ties.append(args) or real_parts(self, *args),
    )
    config = OptimizerConfig(enable_hash_join=False, enable_merge_join=False)
    optimizer = Optimizer(database, config)
    for tables in (2, 4, 6):
        del built[:]
        plan = optimizer.optimize_request(
            OptimizationRequest(_chain(database, tables))
        ).plan
        assert not ties
        assert len(built) == tables - 1
        assert {id(n) for n in built} == {
            id(n) for n in plan.walk() if isinstance(n, JoinNode)
        }
    # with hash joins the two-table sets tie, and still cost no extra node
    del built[:]
    Optimizer(database).optimize_request(
        OptimizationRequest(_chain(database, 4))
    )
    assert ties and len(built) == 3


def _node_parts(node: JoinNode) -> Tuple[str, ...]:
    """:func:`join_key_parts` of a built join."""
    return join_key_parts(
        node.algorithm,
        node.inner_index,
        node.build_side,
        repr(tuple(sorted(str(p) for p in node.join_predicates))),
        node.left.signature_key(),
        node.right.signature_key(),
    )


def _oracle_ties(database, query, config, overrides) -> list:
    """The pairs of plans the oracle search compared on an exact cost
    tie."""
    seen = []

    def spy(a, b):
        seen.append((a, b))
        return real(a, b)

    real = globals()["_old_better"]
    globals()["_old_better"] = spy
    try:
        _OldOptimizer(database, config).optimize_request(
            OptimizationRequest(query, overrides)
        )
    finally:
        globals()["_old_better"] = real
    return seen


@given(cases())
@settings(max_examples=150, deadline=None)
def test_the_tie_order_on_parts_is_the_order_on_signature_strings(case):
    """On every tie the node-per-candidate search meets, comparing the
    two joins' parts as tuples agrees with comparing their whole
    ``str(signature())``, both ways."""
    database, query, config, pin = _build(case)
    overrides = None
    if pin is not None:
        overrides = {
            v: pin for v in Optimizer(database, config).magic_variables(query)
        }
    for a, b in _oracle_ties(database, query, config, overrides):
        parts, strings = (
            (_node_parts(a), _node_parts(b)),
            (str(a.signature()), str(b.signature())),
        )
        assert join_signature_key(parts[0]) == strings[0]
        assert (parts[0] < parts[1]) == (strings[0] < strings[1])
        assert (parts[1] < parts[0]) == (strings[1] < strings[0])


def test_the_oracle_meets_ties_on_a_chain_with_hash_joins():
    """The property above is not vacuous: hash joins tie on swapped
    inputs."""
    database = _database((3, 7, 12, 20, 33, 50), seed=1)
    ties = _oracle_ties(
        database, _chain(database, 4), OptimizerConfig(), None
    )
    assert ties
    assert all(isinstance(node, JoinNode) for pair in ties for node in pair)


def test_schedule_compiled_once_per_query_and_once_per_shape(monkeypatch):
    compiled = []

    class CountingSchedule(schedule_module.JoinSchedule):
        def __init__(self, graph, shape) -> None:
            super().__init__(graph, shape)
            compiled.append(graph)

    monkeypatch.setattr(schedule_module, "JoinSchedule", CountingSchedule)
    schedule_module.shape_schedule.cache_clear()
    database = _database((5, 9, 14, 22), seed=2)
    first = _chain(database, 4)
    result = mnsa_for_query(
        MemoryBackend(database, Optimizer(database)), first
    )
    # three optimizer calls per statistic considered, one schedule
    assert result.optimizer_calls >= 3
    assert compiled == [first.join_graph]
    assert schedule_module.shape_schedule.cache_info().misses == 1

    # same shape (a chain over sorted tables 0-1-2-3), other predicates
    second = (
        QueryBuilder(database.schema)
        .join("t0.c", "t1.c")
        .join("t1.a", "t2.a")
        .join("t2.b", "t3.c")
        .where("t3.a", "<", 3)
        .build()
    )
    optimizer = Optimizer(database)
    for _ in range(3):
        optimizer.optimize_request(OptimizationRequest(second))
    assert compiled == [first.join_graph, second.join_graph]
    info = schedule_module.shape_schedule.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert (
        second.join_graph.schedules[False].shape
        is first.join_graph.schedules[False].shape
    )

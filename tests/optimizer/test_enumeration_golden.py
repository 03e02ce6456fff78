"""Byte-identity pins for join enumeration.

``golden_plans_u25c.json`` holds, for every query of ``U25-C-100`` (scale
0.002, z=2, data seed 42, RAGS seed 7), one sha256 per arm over
``(repr(plan.signature()), float.hex(cost), float.hex(rows))``:

* ``none/*`` — no statistics; ``all/*`` — every candidate statistic built;
  each under magic numbers, all-ε and all-(1−ε) pins of the variables
  that still lack statistics;
* ``indexed/magic`` — all statistics plus the 13 tuned TPC-D indexes
  (index seeks and index nested loops);
* ``bushy/magic`` — ``enable_bushy_joins=True`` on queries of >= 4 tables.

The file was generated from the enumerator *before* it was rewritten as
the join-graph kernel; regenerate (only when a plan change is intended)
with ``PYTHONPATH=src python tests/optimizer/test_enumeration_golden.py``.
``... test_enumeration_golden.py --diff`` recomputes the digests without
touching the file, names the arms that changed and prints the first
changed plan; CI runs it so a red golden test says what moved.

The remaining tests pin the enumeration rules the digests cannot name:
cartesian fallback, composite joins, signature tie-breaks, bushy shapes.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro.config import OptimizerConfig
from repro.core.candidates import workload_candidate_statistics
from repro.datagen import make_tpcd_database
from repro.index.tuned_tpcd import apply_tuned_tpcd_indexes
from repro.optimizer import (
    CostModel,
    OptimizationRequest,
    Optimizer,
    select_join,
)
from repro.optimizer.plans import JoinAlgorithm, JoinNode, ScanNode, better
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.variables import EPSILON, JoinVariable
from repro.sql.builder import QueryBuilder
from repro.workload import generate_workload

GOLDEN = Path(__file__).with_name("golden_plans_u25c.json")


def _digest(result) -> str:
    payload = "|".join(
        (repr(result.plan.signature()), result.cost.hex(), result.rows.hex())
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _pinned_arms(optimizer, query, label, index):
    missing = optimizer.magic_variables(query)
    for pin, value in (
        ("magic", None),
        ("eps", EPSILON),
        ("one_minus_eps", 1.0 - EPSILON),
    ):
        overrides = None if value is None else {v: value for v in missing}
        yield f"q{index:02d}/{label}/{pin}", optimizer.optimize_request(
            OptimizationRequest(query, overrides)
        )


def golden_arms():
    """``(arm key, OptimizationResult)`` of every pinned arm."""
    database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
    queries = generate_workload(database, "U25-C-100", seed=7).queries()
    optimizer = Optimizer(database)
    bushy = Optimizer(database, OptimizerConfig(enable_bushy_joins=True))
    for index, query in enumerate(queries):
        yield from _pinned_arms(optimizer, query, "none", index)
        if len(query.tables) >= 4:
            yield f"q{index:02d}/bushy/magic", bushy.optimize_request(
                OptimizationRequest(query)
            )
    for key in workload_candidate_statistics(queries):
        database.stats.create(key)
    for index, query in enumerate(queries):
        yield from _pinned_arms(optimizer, query, "all", index)
    apply_tuned_tpcd_indexes(database)
    for index, query in enumerate(queries):
        yield f"q{index:02d}/indexed/magic", optimizer.optimize_request(
            OptimizationRequest(query)
        )


def compute_digests() -> dict:
    return {key: _digest(result) for key, result in golden_arms()}


def diff_against_golden() -> int:
    """Print the arms whose digest left the golden file and the first
    changed plan; the file is only read.  Returns the process exit code."""
    golden = json.loads(GOLDEN.read_text())
    changed, first, seen = [], None, set()
    for key, result in golden_arms():
        seen.add(key)
        if golden.get(key) != _digest(result):
            changed.append(key)
            first = first or (key, result)
    missing = sorted(set(golden) - seen)
    if not changed and not missing:
        print(f"{len(seen)} arms match {GOLDEN.name}")
        return 0
    for key in changed:
        print("changed" if key in golden else "new    ", key)
    for key in missing:
        print("gone   ", key)
    if first is not None:
        key, result = first
        print(f"\nfirst changed arm {key}: cost {result.cost!r} "
              f"({result.cost.hex()}), rows {result.rows!r}")
        print(result.plan.pretty())
    return 1


def test_u25c_plans_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(golden)
    changed = sorted(k for k in golden if actual[k] != golden[k])
    assert not changed, f"{len(changed)} plans changed, first: {changed[:5]}"


def test_diff_mode_names_changed_arms_and_leaves_the_file(
    tpcd_db_readonly, tmp_path, monkeypatch, capsys
):
    db = tpcd_db_readonly
    query = (
        QueryBuilder(db.schema)
        .join("nation.n_regionkey", "region.r_regionkey")
        .build()
    )
    result = Optimizer(db).optimize_request(OptimizationRequest(query))
    module = sys.modules[__name__]
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(
        module, "golden_arms", lambda: iter([("q00/a", result), ("q00/b", result)])
    )
    golden.write_text(json.dumps({"q00/a": _digest(result), "q00/b": "0" * 64}))
    before = golden.read_text()
    assert diff_against_golden() == 1
    out = capsys.readouterr().out
    assert "changed q00/b" in out and "q00/a" not in out
    assert result.plan.pretty() in out
    assert golden.read_text() == before
    golden.write_text(
        json.dumps({"q00/a": _digest(result), "q00/b": _digest(result)})
    )
    assert diff_against_golden() == 0


# ----------------------------------------------------------------------
# enumeration rules
# ----------------------------------------------------------------------


def _joins(plan):
    return [node for node in plan.walk() if isinstance(node, JoinNode)]


def _optimize(db, query, **config):
    optimizer = Optimizer(db, OptimizerConfig(**config))
    return optimizer.optimize_request(OptimizationRequest(query))


class TestCartesianFallback:
    def test_fully_disconnected_pair_is_a_cross_product(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        query = QueryBuilder(db.schema).table("region").table("part").build()
        plan = _optimize(db, query).plan
        assert isinstance(plan, JoinNode)
        assert plan.join_predicates == ()
        assert plan.algorithm is JoinAlgorithm.NESTED_LOOP_SCAN
        assert plan.rows == db.row_count("region") * db.row_count("part")

    def test_cross_product_only_where_nothing_connects(self, tpcd_db_readonly):
        """``part`` joins nothing.  The full set still has connected
        extensions (nation or region as the inner table), so the top
        join carries the predicate and the one cross product sits below
        it, on a subset that has no join edge inside."""
        db = tpcd_db_readonly
        query = (
            QueryBuilder(db.schema)
            .table("part")
            .join("nation.n_regionkey", "region.r_regionkey")
            .build()
        )
        plan = _optimize(db, query).plan
        assert sorted(plan.tables()) == ["nation", "part", "region"]
        assert plan.join_predicates == query.joins
        cartesian = [j for j in _joins(plan) if not j.join_predicates]
        assert len(cartesian) == 1
        assert "part" in cartesian[0].tables()
        assert cartesian[0].algorithm is JoinAlgorithm.NESTED_LOOP_SCAN

    def test_connected_pair_never_crosses(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        query = (
            QueryBuilder(db.schema)
            .join("nation.n_regionkey", "region.r_regionkey")
            .build()
        )
        plan = _optimize(db, query).plan
        assert plan.join_predicates == query.joins


class TestCompositeJoin:
    def test_two_predicates_between_one_pair_form_one_variable(
        self, tpcd_db_readonly
    ):
        db = tpcd_db_readonly
        query = (
            QueryBuilder(db.schema)
            .join("lineitem.l_suppkey", "partsupp.ps_suppkey")
            .join("lineitem.l_partkey", "partsupp.ps_partkey")
            .build()
        )
        plan = _optimize(db, query).plan
        assert isinstance(plan, JoinNode)
        # predicates keep query.joins order, not string order
        assert plan.join_predicates == query.joins
        estimator = SelectivityEstimator(db, OptimizerConfig())
        selectivity = estimator.join_group_selectivity(
            JoinVariable(query.joins)
        )
        assert plan.rows == plan.left.rows * plan.right.rows * selectivity

    def test_pair_selectivities_multiply_in_sorted_pair_order(
        self, tpcd_db_readonly
    ):
        """Joining ``lineitem`` to {orders, part, supplier} multiplies the
        three pair selectivities in sorted table-pair order."""
        db = tpcd_db_readonly
        query = (
            QueryBuilder(db.schema)
            .join("lineitem.l_suppkey", "supplier.s_suppkey")
            .join("lineitem.l_partkey", "part.p_partkey")
            .join("lineitem.l_orderkey", "orders.o_orderkey")
            .build()
        )
        plan = _optimize(db, query).plan
        estimator = SelectivityEstimator(db, OptimizerConfig())
        by_pair = {
            tuple(sorted(j.tables())): estimator.join_group_selectivity(
                JoinVariable((j,))
            )
            for j in query.joins
        }
        for join in _joins(plan):
            expected = 1.0
            for pair in sorted(
                tuple(sorted(j.tables())) for j in join.join_predicates
            ):
                expected *= by_pair[pair]
            assert join.rows == max(
                0.0, join.left.rows * join.right.rows * expected
            )


class TestTieBreak:
    def test_exact_cost_tie_resolved_by_signature(self, db):
        """A hash join costs the same with its inputs swapped; the plan
        with the smaller signature string must win."""
        query = QueryBuilder(db.schema).join("emp.dept_id", "dept.id").build()
        result = _optimize(db, query)
        plan = result.plan
        assert plan.algorithm is JoinAlgorithm.HASH
        mirror = JoinNode(
            JoinAlgorithm.HASH,
            plan.right,
            plan.left,
            plan.join_predicates,
            plan.rows,
            plan.cost,
            build_side="left" if plan.build_side == "right" else "right",
        )
        cost_model = CostModel(OptimizerConfig())
        mirror_cost = (
            mirror.left.cost
            + mirror.right.cost
            + cost_model.hash_join(
                min(plan.left.rows, plan.right.rows),
                max(plan.left.rows, plan.right.rows),
                plan.rows,
            )
        )
        assert mirror_cost == plan.cost
        assert str(plan.signature()) < str(mirror.signature())

    def test_select_join_equals_building_and_comparing_every_plan(self, db):
        """Cost-first selection must pick what ``better`` picks among
        fully built candidates, including on equal costs."""
        query = QueryBuilder(db.schema).join("emp.dept_id", "dept.id").build()
        cost_model = CostModel(OptimizerConfig())
        sides = [
            ScanNode(table, (), rows, cost)
            for table in ("emp", "dept")
            for rows in (0.0, 1.0, 8.0, 5000.0)
            for cost in (0.0, 3.0, 900.0)
        ]
        cases = 0
        for left, right, config, joins, index in itertools.product(
            sides[:12],
            sides[12:],
            (
                OptimizerConfig(),
                OptimizerConfig(enable_hash_join=False),
                OptimizerConfig(enable_hash_join=False, enable_merge_join=False),
            ),
            (query.joins, ()),
            (None, "idx"),
        ):
            if index and not joins:
                continue
            selectivity = 0.125 if joins else 1.0
            cost, rows, algorithm, build_side = select_join(
                left, right, joins, selectivity, cost_model, config, index
            )
            built = self._every_candidate(
                left, right, joins, selectivity, cost_model, config, index
            )
            expected = built[0]
            for candidate in built[1:]:
                if better(candidate, expected):
                    expected = candidate
            assert (cost, rows) == (expected.cost, expected.rows)
            assert algorithm is expected.algorithm
            assert build_side == expected.build_side
            cases += 1
        assert cases == 12 * 12 * 3 * 3

    @staticmethod
    def _every_candidate(left, right, joins, selectivity, cm, config, index):
        """The four-node construction the cost-first kernel replaced."""
        rows = max(0.0, left.rows * right.rows * selectivity)
        children = left.cost + right.cost
        out = []
        if config.enable_hash_join and joins:
            cost = children + cm.hash_join(
                min(left.rows, right.rows), max(left.rows, right.rows), rows
            )
            side = "right" if right.rows <= left.rows else "left"
            out.append(
                JoinNode(JoinAlgorithm.HASH, left, right, joins, rows, cost,
                         build_side=side)
            )
        if config.enable_merge_join and joins:
            cost = children + cm.merge_join(left.rows, right.rows, rows)
            out.append(
                JoinNode(JoinAlgorithm.MERGE, left, right, joins, rows, cost)
            )
        if index is not None:
            matches = right.rows * selectivity if left.rows > 0 else 0.0
            cost = left.cost + cm.nested_loop_index(left.rows, matches)
            out.append(
                JoinNode(JoinAlgorithm.NESTED_LOOP_INDEX, left, right, joins,
                         rows, cost, inner_index=index)
            )
        cost = left.cost + cm.nested_loop_scan(max(1.0, left.rows), right.cost)
        out.append(
            JoinNode(JoinAlgorithm.NESTED_LOOP_SCAN, left, right, joins, rows,
                     cost)
        )
        return out

    def test_result_is_independent_of_from_clause_order(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        forward = (
            QueryBuilder(db.schema)
            .table("customer").table("orders").table("nation")
            .join("customer.c_custkey", "orders.o_custkey")
            .join("customer.c_nationkey", "nation.n_nationkey")
            .build()
        )
        backward = (
            QueryBuilder(db.schema)
            .table("nation").table("orders").table("customer")
            .join("customer.c_custkey", "orders.o_custkey")
            .join("customer.c_nationkey", "nation.n_nationkey")
            .build()
        )
        a, b = _optimize(db, forward), _optimize(db, backward)
        assert a.signature == b.signature
        assert a.cost == b.cost


class TestBushy:
    def _five_tables(self, db):
        return (
            QueryBuilder(db.schema)
            .join("lineitem.l_orderkey", "orders.o_orderkey")
            .join("orders.o_custkey", "customer.c_custkey")
            .join("lineitem.l_suppkey", "supplier.s_suppkey")
            .join("supplier.s_nationkey", "nation.n_nationkey")
            .where("orders.o_totalprice", "<", 1000.0)
            .where("nation.n_name", "=", "FRANCE")
            .build()
        )

    def test_bushy_covers_all_tables_and_never_costs_more(
        self, tpcd_db_readonly
    ):
        db = tpcd_db_readonly
        query = self._five_tables(db)
        left_deep = _optimize(db, query)
        bushy = _optimize(db, query, enable_bushy_joins=True)
        assert sorted(bushy.plan.tables()) == sorted(query.tables)
        assert bushy.cost <= left_deep.cost
        joined = [p for j in _joins(bushy.plan) for p in j.join_predicates]
        assert sorted(joined, key=str) == sorted(query.joins, key=str)

    def test_bushy_sides_never_cross_without_a_predicate(
        self, tpcd_db_readonly
    ):
        db = tpcd_db_readonly
        bushy = _optimize(db, self._five_tables(db), enable_bushy_joins=True)
        for join in _joins(bushy.plan):
            if len(join.right.tables()) > 1:
                assert join.join_predicates


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_against_golden())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    GOLDEN.write_text(
        json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

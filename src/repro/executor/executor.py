"""The plan interpreter.

``Executor.execute(plan, query)`` runs a physical plan bottom-up and
returns an :class:`ExecutionResult` whose ``actual_cost`` applies the
optimizer's own cost formulas to the *observed* cardinalities — the
execution-cost metric of the experiments (DESIGN.md §2).

Semantics note: all join algorithms produce the same rows; the algorithm
(and access path) choice affects only the actual cost, exactly as the
choice would affect wall-clock time on a real engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.catalog import ColumnRef, ColumnType
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import ExecutionError
from repro.executor.evaluate import (
    COMPARATORS,
    decode_output_value,
    encode_literal,
    evaluate_scalar,
    predicate_mask,
)
from repro.executor.operators import (
    align_join_keys,
    group_indices,
    join_indices,
)
from repro.executor.relation import Relation
from repro.feedback.observation import OperatorObservation, PlanInstrumenter
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
)
from repro.sql.expressions import Aggregate, AggregateFunction, ColumnExpression
from repro.sql.predicates import BetweenPredicate, ComparisonPredicate, InPredicate
from repro.sql.query import Query


class ExecutionResult:
    """Outcome of executing one plan.

    Attributes:
        relation: the final operator's output columns (strings encoded).
        actual_cost: cost-model units at observed cardinalities — the
            experiments' "execution cost".
        row_count: rows produced by the final operator.
        operator_observations: one
            :class:`~repro.feedback.observation.OperatorObservation` per
            executed operator (bottom-up order) — the raw material of
            the execution-feedback loop.
    """

    def __init__(
        self,
        database,
        relation: Relation,
        actual_cost: float,
        projections: tuple,
        query: Optional[Query],
        operator_observations: Tuple[OperatorObservation, ...] = (),
    ) -> None:
        self._db = database
        self.relation = relation
        self.actual_cost = float(actual_cost)
        self._projections = projections
        self._query = query
        self.operator_observations = operator_observations

    @property
    def row_count(self) -> int:
        return self.relation.row_count

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(row_count={self.row_count}, "
            f"actual_cost={self.actual_cost:.2f}, "
            f"operators={len(self.operator_observations)})"
        )

    def output_keys(self) -> list:
        """Column keys of the projected output, in SELECT-list order."""
        if self._projections:
            keys = []
            for item in self._projections:
                if isinstance(item, Aggregate):
                    keys.append(str(item))
                elif isinstance(item, ColumnExpression):
                    keys.append(item.column)
                else:
                    keys.append(item)
            return keys
        if self._query is not None:
            # SELECT *: deterministic order (FROM-clause table order,
            # schema column order) regardless of the plan's join order
            ordered = []
            for table in self._query.tables:
                for name in self._db.table(table).schema.column_names():
                    ref = ColumnRef(table, name)
                    if ref in self.relation:
                        ordered.append(ref)
            if ordered:
                return ordered
        return self.relation.keys()

    def rows(self, limit: Optional[int] = None) -> List[tuple]:
        """Materialize (and decode) output rows, optionally limited."""
        keys = self.output_keys()
        arrays = []
        for key in keys:
            if isinstance(key, str) or isinstance(key, ColumnRef):
                if key in self.relation:
                    arrays.append((key, self.relation.column(key)))
                    continue
            # a scalar expression over the final relation
            arrays.append(
                (None, evaluate_scalar(self._db, self.relation, key))
            )
        n = self.relation.row_count if arrays else 0
        if limit is not None:
            n = min(n, limit)
        out = []
        for i in range(n):
            row = []
            for key, arr in arrays:
                decode_key = key if isinstance(key, ColumnRef) else None
                row.append(
                    decode_output_value(self._db, decode_key, arr[i])
                )
            out.append(tuple(row))
        return out


class Executor:
    """Executes physical plans over one database."""

    def __init__(
        self, database, config: OptimizerConfig = DEFAULT_CONFIG
    ) -> None:
        self._db = database
        self._config = config
        self._cost = CostModel(config)
        self._instrumenter = PlanInstrumenter()

    # ------------------------------------------------------------------

    def execute(
        self,
        plan: PlanNode,
        query: Optional[Query] = None,
        feedback=None,
    ) -> ExecutionResult:
        """Run ``plan``; ``query`` (when given) scopes projected columns.

        Every operator's actual output cardinality is zipped with its
        optimization-time estimate into the result's
        ``operator_observations``; when ``feedback`` (a
        :class:`~repro.feedback.store.FeedbackStore`) is given, the
        observations are also recorded there.  Observation capture never
        changes rows or costs — execution with feedback off is
        byte-identical to execution before the feedback subsystem.
        """
        needed = self._needed_columns(query) if query is not None else None
        sink: List[Tuple[PlanNode, int]] = []
        relation, cost = self._run(plan, needed, sink)
        annotations = self._instrumenter.instrument(plan)
        observations = tuple(
            self._instrumenter.observe(annotations, node, rows)
            for node, rows in sink
        )
        if feedback is not None:
            feedback.record_all(observations)
        projections = query.projections if query is not None else ()
        return ExecutionResult(
            self._db, relation, cost, projections, query, observations
        )

    # ------------------------------------------------------------------
    # column pruning
    # ------------------------------------------------------------------

    def _needed_columns(self, query: Query):
        if query.projections:
            return query.referenced_columns
        # SELECT *: every column of every table
        return {
            table: set(self._db.table(table).schema.column_names())
            for table in query.tables
        }

    def _table_relation(self, table: str, needed) -> Relation:
        data = self._db.table(table)
        if needed is None or table not in needed:
            columns = data.schema.column_names()
        else:
            columns = [
                name
                for name in data.schema.column_names()
                if name in needed[table]
            ]
            if not columns:
                columns = data.schema.column_names()[:1]
        return Relation.from_table(data, table, columns)

    # ------------------------------------------------------------------
    # node dispatch
    # ------------------------------------------------------------------

    def _run(
        self, node: PlanNode, needed, sink: List[Tuple[PlanNode, int]]
    ) -> Tuple[Relation, float]:
        """Dispatch one node and record its observed cardinality."""
        relation, cost = self._dispatch(node, needed, sink)
        sink.append((node, relation.row_count))
        return relation, cost

    # repro-lint: dispatch=PlanNode
    def _dispatch(
        self, node: PlanNode, needed, sink: List[Tuple[PlanNode, int]]
    ) -> Tuple[Relation, float]:
        if isinstance(node, ScanNode):
            return self._run_scan(node, needed)
        if isinstance(node, IndexSeekNode):
            return self._run_seek(node, needed)
        if isinstance(node, JoinNode):
            return self._run_join(node, needed, sink)
        if isinstance(node, AggregateNode):
            return self._run_aggregate(node, needed, sink)
        if isinstance(node, HavingNode):
            return self._run_having(node, needed, sink)
        if isinstance(node, SortNode):
            return self._run_sort(node, needed, sink)
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    def _run_having(
        self, node: HavingNode, needed, sink
    ) -> Tuple[Relation, float]:
        child_rel, child_cost = self._run(node.child, needed, sink)
        mask = np.ones(child_rel.row_count, dtype=bool)
        for condition in node.predicates:
            values = child_rel.column(str(condition.aggregate))
            mask &= COMPARATORS[condition.op](values, condition.value)
        out = child_rel.filter(mask)
        cost = child_cost + child_rel.row_count * (
            len(node.predicates) * self._cost_compare()
        )
        return out, cost

    def _cost_compare(self) -> float:
        return self._config.cost.cpu_compare_cost

    def _run_scan(self, node: ScanNode, needed) -> Tuple[Relation, float]:
        data = self._db.table(node.table)
        relation = self._table_relation(node.table, needed)
        for predicate in node.predicates:
            mask = predicate_mask(self._db, relation, predicate)
            relation = relation.filter(mask)
        cost = self._cost.table_scan(
            data.row_count,
            data.schema.row_width_bytes,
            len(node.predicates),
        )
        return relation, cost

    def _run_seek(self, node: IndexSeekNode, needed) -> Tuple[Relation, float]:
        data = self._db.table(node.table)
        index = self._db.indexes.structure(node.index_name)
        rows = self._seek_rows(node, index)
        relation = self._table_relation(node.table, needed).take(rows)
        matching = relation.row_count
        for predicate in node.residual_predicates:
            mask = predicate_mask(self._db, relation, predicate)
            relation = relation.filter(mask)
        cost = self._cost.index_seek(
            matching, len(node.residual_predicates)
        )
        return relation, cost

    def _seek_rows(self, node: IndexSeekNode, index) -> np.ndarray:
        predicate = node.seek_predicate
        (ref,) = predicate.columns()
        if isinstance(predicate, ComparisonPredicate):
            literal = encode_literal(self._db, ref, predicate.value)
            if literal is None:
                return np.empty(0, dtype=np.int64)
            if predicate.op == "=":
                return index.lookup_equal(literal)
            if predicate.op == "<":
                return index.lookup_range(high=literal, high_inclusive=False)
            if predicate.op == "<=":
                return index.lookup_range(high=literal)
            if predicate.op == ">":
                return index.lookup_range(low=literal, low_inclusive=False)
            if predicate.op == ">=":
                return index.lookup_range(low=literal)
            raise ExecutionError(f"cannot seek on {predicate}")
        if isinstance(predicate, BetweenPredicate):
            return index.lookup_range(low=predicate.low, high=predicate.high)
        if isinstance(predicate, InPredicate):
            encoded = [
                encode_literal(self._db, ref, value)
                for value in predicate.values
            ]
            return index.lookup_in([v for v in encoded if v is not None])
        raise ExecutionError(f"cannot seek on {predicate}")

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _run_join(
        self, node: JoinNode, needed, sink
    ) -> Tuple[Relation, float]:
        left_rel, left_cost = self._run(node.left, needed, sink)
        right_rel, right_cost = self._run(node.right, needed, sink)

        if node.join_predicates:
            left_arrays, right_arrays, right_refs = align_join_keys(
                self._db, left_rel, right_rel, node.join_predicates
            )
            left_idx, right_idx = join_indices(
                left_arrays,
                right_arrays,
                self._kept_join_index(node.right, right_refs, right_arrays),
            )
            out = left_rel.take(left_idx).merged_with(right_rel.take(right_idx))
        else:
            # cartesian product
            n_left, n_right = left_rel.row_count, right_rel.row_count
            left_idx = np.repeat(np.arange(n_left), n_right)
            right_idx = np.tile(np.arange(n_right), n_left)
            out = left_rel.take(left_idx).merged_with(right_rel.take(right_idx))

        out_rows = out.row_count
        l_rows, r_rows = left_rel.row_count, right_rel.row_count
        if node.algorithm == JoinAlgorithm.HASH:
            build = r_rows if node.build_side == "right" else l_rows
            probe = l_rows if node.build_side == "right" else r_rows
            local = self._cost.hash_join(build, probe, out_rows)
            total = left_cost + right_cost + local
        elif node.algorithm == JoinAlgorithm.MERGE:
            local = self._cost.merge_join(l_rows, r_rows, out_rows)
            total = left_cost + right_cost + local
        elif node.algorithm == JoinAlgorithm.NESTED_LOOP_INDEX:
            matches = out_rows / l_rows if l_rows else 0.0
            local = self._cost.nested_loop_index(l_rows, matches)
            # the inner access path is replaced by per-row index seeks
            total = left_cost + local
        else:  # NESTED_LOOP_SCAN: the inner subtree re-runs per outer row
            local = self._cost.nested_loop_scan(max(1, l_rows), right_cost)
            total = left_cost + local
        return out, total

    def _kept_join_index(self, right: PlanNode, right_refs, right_arrays):
        """The index the right input's table keeps over the join columns,
        when ``right`` is an unfiltered scan of the stored arrays; ``None``
        (build for this join alone) otherwise."""
        if (
            not isinstance(right, ScanNode)
            or right.predicates
            or None in right_refs
        ):
            return None
        index = self._db.table(right.table).join_index(
            ref.column for ref in right_refs
        )
        # the relation may predate a DML: the index must describe the
        # arrays this join reads, not the table's current ones
        if index is not None and index.built_from(right_arrays):
            return index
        return None

    # ------------------------------------------------------------------
    # aggregation / sort
    # ------------------------------------------------------------------

    def _run_aggregate(
        self, node: AggregateNode, needed, sink
    ) -> Tuple[Relation, float]:
        child_rel, child_cost = self._run(node.child, needed, sink)
        input_rows = child_rel.row_count

        if node.group_by:
            key_arrays = [child_rel.column(ref) for ref in node.group_by]
            if input_rows == 0:
                columns = dict(zip(node.group_by, key_arrays))
                for aggregate in node.aggregates:
                    columns[str(aggregate)] = np.empty(0)
                out = Relation(columns)
                cost = child_cost + self._cost.hash_aggregate(0, 0)
                return out, cost
            group_ids, representatives = group_indices(key_arrays)
            n_groups = representatives.shape[0]
            columns = {
                ref: arr[representatives]
                for ref, arr in zip(node.group_by, key_arrays)
            }
        else:
            n_groups = 1
            group_ids = np.zeros(input_rows, dtype=np.int64)
            columns = {}

        counts = np.bincount(group_ids, minlength=n_groups).astype(np.float64)
        for aggregate in node.aggregates:
            columns[str(aggregate)] = self._aggregate_values(
                aggregate, child_rel, group_ids, counts
            )
        if not columns:
            # GROUP BY with no aggregates and no keys cannot happen; guard
            raise ExecutionError("aggregate node produced no columns")
        out = Relation(columns)
        if node.method == "stream":
            out = self._sorted_by(out, node.group_by)
            cost = child_cost + self._cost.stream_aggregate(
                input_rows, out.row_count
            )
        else:
            cost = child_cost + self._cost.hash_aggregate(
                input_rows, out.row_count
            )
        return out, cost

    def _sorted_by(self, relation: Relation, keys) -> Relation:
        """Sort a relation by column keys (strings lexicographically)."""
        if relation.row_count <= 1 or not keys:
            return relation
        sort_keys = []
        for ref in reversed(tuple(keys)):
            arr = relation.column(ref)
            if (
                isinstance(ref, ColumnRef)
                and self._db.schema.column(ref).type == ColumnType.STRING
            ):
                dictionary = self._db.table(ref.table).string_dictionary(
                    ref.column
                )
                arr = dictionary.sort_ranks()[arr]
            sort_keys.append(arr)
        return relation.take(np.lexsort(sort_keys))

    def _aggregate_values(
        self,
        aggregate: Aggregate,
        relation: Relation,
        group_ids: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """One aggregate per group; ``counts`` are the groups' row counts
        (float64), computed once per aggregate node."""
        function = aggregate.function
        n_groups = counts.shape[0]
        if function == AggregateFunction.COUNT:
            return counts
        values = evaluate_scalar(self._db, relation, aggregate.argument)
        values = values.astype(np.float64, copy=False)
        if function == AggregateFunction.SUM:
            return np.bincount(group_ids, weights=values, minlength=n_groups)
        if function == AggregateFunction.AVG:
            sums = np.bincount(group_ids, weights=values, minlength=n_groups)
            return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        if function == AggregateFunction.MIN:
            out = np.full(n_groups, np.inf)
            np.minimum.at(out, group_ids, values)
            return np.where(np.isfinite(out), out, 0.0)
        if function == AggregateFunction.MAX:
            out = np.full(n_groups, -np.inf)
            np.maximum.at(out, group_ids, values)
            return np.where(np.isfinite(out), out, 0.0)
        raise ExecutionError(f"unsupported aggregate {aggregate}")

    def _run_sort(
        self, node: SortNode, needed, sink
    ) -> Tuple[Relation, float]:
        child_rel, child_cost = self._run(node.child, needed, sink)
        child_rel = self._sorted_by(child_rel, node.keys)
        cost = child_cost + self._cost.sort(child_rel.row_count)
        return child_rel, cost

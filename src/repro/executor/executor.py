"""Plan execution over a compiled column layout.

``Executor.execute(plan, query)`` runs a physical plan bottom-up and
returns an :class:`ExecutionResult` whose ``actual_cost`` applies the
optimizer's own cost formulas to the *observed* cardinalities — the
execution-cost metric of the experiments (DESIGN.md §2).

A plan's first execution compiles it into a :class:`PlanLayout`, kept on
the plan root beside its feedback annotations and used by every later
run: the operators as post-order steps, every column an operator reads
resolved to a ``(source, position)`` slot of its input, each join's key
pairs sorted and de-duplicated, the column tuple of the join index the
right input's table may keep, and the sources each operator's output
carries because some ancestor reads them.  Between steps a result is a
list of sources — a tuple of column arrays and the row ids of them it
holds (``None``: every row, in stored order) — plus its row count; the
:class:`Relation` the caller sees is built once, at the root.

*Counting joins.*  A join no ancestor reads the right input of, whose
output reaches an aggregate only through other such joins (as their left
input), only multiplies the aggregate's input: it probes the right side
for each left row's match count and leaves the left rows, without the
ones that match nothing, plus a multiplicity vector (``weights``) in
place of the repeated row ids.  The rows it stands for are each left row
repeated by its weight, in order — the very rows an expanding join
produces — and row counts, costs and observations are taken of those.
The aggregate consumes the weights exactly: COUNT sums them, MIN / MAX
read each distinct row once, and SUM / AVG sum ``value * weight`` only
when every value is an integer and the weighted absolute total stays
below 2**53, so that every partial sum of either order is exact; other
sums expand the rows and run as over any join.  Joins under a sort or at
the root, joins whose right input some ancestor reads, and the right
inputs of counting joins expand as before.

The layout holds names and slots only: no arrays, no plan nodes, no
executor or database.  Every run reads the stored arrays afresh,
validates a kept join index against the very arrays it read and
translates string codes through the dictionaries of the moment, so no
DML makes a layout stale, and a plan the cache evicts is freed by
reference counting.

Semantics note: all join algorithms produce the same rows; the algorithm
(and access path) choice affects only the actual cost, exactly as the
choice would affect wall-clock time on a real engine.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.catalog import ColumnRef, ColumnType
from repro.errors import ExecutionError
from repro.executor.evaluate import (
    COMPARATORS,
    column_mask,
    decode_output_value,
    encode_literal,
    evaluate_scalar,
)
from repro.executor.operators import (
    group_indices,
    join_counts,
    join_indices,
    translate_string_codes,
)
from repro.executor.relation import Relation
from repro.feedback.observation import OperatorObservation, PlanInstrumenter
from repro.optimizer.cost_model import CPU_COMPARE_COST, CostModel
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
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    Predicate,
)
from repro.sql.query import Query

#: a column's address in an intermediate result: (source, position)
Slot = Tuple[int, int]


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

    def __init__(self, database) -> None:
        self._db = database
        self._cost = CostModel()
        self._instrumenter = PlanInstrumenter()

    # ------------------------------------------------------------------

    def execute(
        self,
        plan: PlanNode,
        query: Optional[Query] = None,
        feedback=None,
    ) -> ExecutionResult:
        """Run ``plan``; ``query`` (when given) scopes projected columns.

        The first run compiles ``plan`` into a :class:`PlanLayout` kept on
        its root; every later run for a query reading the same columns
        reuses it.  Every operator's actual output cardinality is zipped with its
        optimization-time estimate into the result's
        ``operator_observations``; when ``feedback`` (a
        :class:`~repro.feedback.store.FeedbackStore`) is given, the
        observations are also recorded there.  Observation capture never
        changes rows or costs — execution with feedback off is
        byte-identical to execution before the feedback subsystem.
        """
        needed = (
            query.referenced_columns
            if query is not None and query.projections
            else None
        )
        layout = plan.execution_layout
        if layout is None or (
            layout.needed is not needed and layout.needed != needed
        ):
            layout = self._compile(plan, needed)
        stack: List[_Result] = []
        counts = []
        for step in layout.steps:
            step.run(self, stack)
            counts.append(stack[-1][1])
        ((sources, row_count, cost, _),) = stack
        relation = Relation.from_sources(
            [
                (dict(zip(keys, arrays)), rows)
                for (arrays, rows), keys in zip(sources, layout.root_keys)
            ],
            row_count,
        )
        observations = tuple(
            annotation.observed(rows)
            for annotation, rows in zip(layout.annotations, counts)
        )
        if feedback is not None:
            feedback.record_all(observations)
        projections = query.projections if query is not None else ()
        return ExecutionResult(
            self._db, relation, cost, projections, query, observations
        )

    def _compile(self, plan: PlanNode, needed) -> "PlanLayout":
        """``plan`` compiled for a query reading ``needed``, published on
        the plan unless an earlier compile was."""
        annotations = self._instrumenter.instrument(plan)
        layout = _Compiler(self._db.schema, needed, annotations).layout(plan)
        # dict.setdefault is atomic: of threads compiling one plan at once
        # the first to publish wins, and each runs the layout it compiled
        vars(plan).setdefault("execution_layout", layout)
        return layout

    # ------------------------------------------------------------------
    # what a step reads of the database, afresh on every run
    # ------------------------------------------------------------------

    def _fetch(self, table: str, names) -> List[np.ndarray]:
        """The stored arrays of ``table``'s columns ``names``."""
        data = self._db.table(table)
        return [data.column_array(name) for name in names]

    def _dictionary(self, column: Tuple[str, str]):
        table, name = column
        return self._db.table(table).string_dictionary(name)

    def _kept_join_index(self, table: str, columns, right_arrays):
        """The index ``table`` keeps over ``columns``, when it describes
        ``right_arrays``; ``None`` (build for this join alone) otherwise."""
        index = self._db.table(table).join_index(columns)
        # the arrays may predate a DML: the index must describe the
        # arrays this join reads, not the table's current ones
        if index is not None and index.built_from(right_arrays):
            return index
        return None

    def _seek_rows(self, predicate, index) -> np.ndarray:
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

    def _sort_order(self, sources, row_count: int, keys):
        """The row order sorting ``sources`` by ``keys`` — compiled
        ``(slot, string column or None)`` pairs, least significant first;
        strings sort lexicographically — or ``None`` to keep the order."""
        if row_count <= 1 or not keys:
            return None
        columns = []
        for slot, string_column in keys:
            column = _read(sources, slot)
            if string_column is not None:
                column = self._dictionary(string_column).sort_ranks()[column]
            columns.append(column)
        return np.lexsort(columns)

    @staticmethod
    def _aggregate_values(
        function: AggregateFunction,
        values: Optional[np.ndarray],
        group_ids: np.ndarray,
        counts: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """One aggregate of the argument ``values`` (``None`` for COUNT)
        per group; ``counts`` are the groups' row counts (float64),
        computed once per aggregate step, and ``weights`` each row's
        multiplicity (``None``: one).  ``None`` for a SUM / AVG the
        weights cannot reproduce exactly (:func:`_weighted_sum_exact`)."""
        n_groups = counts.shape[0]
        if function == AggregateFunction.COUNT:
            return counts
        values = values.astype(np.float64, copy=False)
        if function in (AggregateFunction.SUM, AggregateFunction.AVG):
            if weights is not None:
                if not _weighted_sum_exact(values, weights):
                    return None
                values = values * weights
            sums = np.bincount(group_ids, weights=values, minlength=n_groups)
            if function == AggregateFunction.SUM:
                return sums
            return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        if function == AggregateFunction.MIN:
            out = np.full(n_groups, np.inf)
            np.minimum.at(out, group_ids, values)
            return np.where(np.isfinite(out), out, 0.0)
        if function == AggregateFunction.MAX:
            out = np.full(n_groups, -np.inf)
            np.maximum.at(out, group_ids, values)
            return np.where(np.isfinite(out), out, 0.0)
        raise ExecutionError(f"unsupported aggregate {function}")


# ----------------------------------------------------------------------
# intermediate results
# ----------------------------------------------------------------------

#: one source of an intermediate result: column arrays, and the rows of
#: them it holds in order (``None``: every row, in stored order)
_Source = Tuple[List[np.ndarray], Optional[np.ndarray]]
#: what a step leaves on the stack: sources, row count, cumulative cost
#: and weights — per row of the sources its multiplicity, int64 and
#: positive (``None``: one); the row count counts the rows it stands for
_Result = Tuple[List[_Source], int, float, Optional[np.ndarray]]


def _read(sources: List[_Source], slot: Slot) -> np.ndarray:
    """The values of the column at ``slot``."""
    arrays, rows = sources[slot[0]]
    column = arrays[slot[1]]
    return column if rows is None else column[rows]


def _take(source: _Source, indices: np.ndarray) -> _Source:
    """``source`` restricted to / reordered by positional ``indices``."""
    arrays, rows = source
    return arrays, indices if rows is None else rows[indices]


def _weighted_sum_exact(values: np.ndarray, weights: np.ndarray) -> bool:
    """Whether per-group sums of ``values * weights`` equal, bit for bit,
    the sums of each value repeated by its weight: when every value is an
    integer and the weighted total of magnitudes is below 2**53, every
    partial sum in either order is an exact integer.  A float total of
    non-negative terms reaches 2**53 exactly when the true one does."""
    magnitudes = np.abs(values)
    if not np.array_equal(np.floor(magnitudes), magnitudes):
        return False  # fractions, and NaN
    return float(np.dot(magnitudes, weights)) < 2.0**53


def _filtered(database, arrays, rows, filters) -> Optional[np.ndarray]:
    """``rows`` of ``arrays`` that pass every ``(predicate, position)``."""
    for predicate, position in filters:
        column = arrays[position]
        if rows is not None:
            column = column[rows]
        kept = np.flatnonzero(column_mask(database, predicate, column))
        rows = kept if rows is None else rows[kept]
    return rows


class _SlotReader:
    """The columns aggregates read, each gathered once: by slot, and as
    the relation :func:`evaluate_scalar` reads an expression from, by the
    refs in ``slots``."""

    __slots__ = ("_slots", "_sources", "_gathered", "row_count")

    def __init__(self, slots: Dict[ColumnRef, Slot], sources, row_count):
        self._slots = slots
        self._sources = sources
        self._gathered: Dict[Slot, np.ndarray] = {}
        self.row_count = row_count

    def gather(self, slot: Slot) -> np.ndarray:
        column = self._gathered.get(slot)
        if column is None:
            column = self._gathered[slot] = _read(self._sources, slot)
        return column

    def column(self, ref: ColumnRef) -> np.ndarray:
        return self.gather(self._slots[ref])


# ----------------------------------------------------------------------
# steps: one per plan node, names and slots only
# ----------------------------------------------------------------------


class _Scan(NamedTuple):
    """Read the stored arrays of ``names``, keep the rows that pass
    ``filters`` — ``(predicate, position)`` pairs."""

    table: str
    names: Tuple[str, ...]
    filters: tuple

    def run(self, executor: Executor, stack: List[_Result]) -> None:
        data = executor._db.table(self.table)
        arrays = executor._fetch(self.table, self.names)
        rows = _filtered(executor._db, arrays, None, self.filters)
        cost = executor._cost.table_scan(
            data.row_count, data.schema.row_width_bytes, len(self.filters)
        )
        count = arrays[0].shape[0] if rows is None else rows.shape[0]
        stack.append(([(arrays, rows)], count, cost, None))


class _Seek(NamedTuple):
    """The rows an index seek on ``predicate`` finds, filtered by the
    residual ``filters``."""

    table: str
    names: Tuple[str, ...]
    index_name: str
    predicate: Predicate
    filters: tuple

    def run(self, executor: Executor, stack: List[_Result]) -> None:
        index = executor._db.indexes.structure(self.index_name)
        rows = np.asarray(executor._seek_rows(self.predicate, index))
        arrays = executor._fetch(self.table, self.names)
        matching = rows.shape[0]
        rows = _filtered(executor._db, arrays, rows, self.filters)
        cost = executor._cost.index_seek(matching, len(self.filters))
        stack.append(([(arrays, rows)], rows.shape[0], cost, None))


class _Join(NamedTuple):
    """An equijoin (a cartesian product without keys) of the two results
    on top of the stack.

    ``left_keys`` / ``right_keys`` are the parallel key slots, one per
    distinct right column, in the order of the right columns' refs;
    ``strings`` the ``(key position, left column, right column)`` of
    STRING keys, whose right codes are translated into the left
    dictionary; ``equalities`` the ``(slot, slot, string columns or
    None)`` of left columns compared with one right column, which left
    rows must satisfy before the probe.  ``index_columns`` name the
    right table's kept :class:`~repro.storage.join_index.JoinIndex` when
    the right input is an unfiltered scan.  The output carries the
    ``left_keep`` and ``right_keep`` sources only.  A ``counting`` join
    (``right_keep`` empty) leaves the left rows that match, weighted by
    their match counts, instead of the pairs.
    """

    algorithm: JoinAlgorithm
    build_right: bool
    left_keys: Tuple[Slot, ...]
    right_keys: Tuple[Slot, ...]
    strings: tuple
    equalities: tuple
    index_table: Optional[str]
    index_columns: Optional[Tuple[str, ...]]
    left_keep: Tuple[int, ...]
    right_keep: Tuple[int, ...]
    counting: bool

    def run(self, executor: Executor, stack: List[_Result]) -> None:
        right_sources, r_rows, right_cost, _ = stack.pop()
        left_sources, l_rows, left_cost, weights = stack.pop()
        if self.counting:
            sources, out_rows, weights = self._counted(
                executor, left_sources, l_rows, weights, right_sources, r_rows
            )
        else:
            if self.left_keys:
                left_idx, right_idx = self._matches(
                    executor, left_sources, l_rows, right_sources
                )
            else:
                # cartesian product
                left_idx = np.repeat(np.arange(l_rows), r_rows)
                right_idx = np.tile(np.arange(r_rows), l_rows)
            sources = [_take(left_sources[i], left_idx) for i in self.left_keep]
            sources += [
                _take(right_sources[i], right_idx) for i in self.right_keep
            ]
            out_rows = left_idx.shape[0]

        cost_model = executor._cost
        algorithm = self.algorithm
        if algorithm == JoinAlgorithm.HASH:
            build = r_rows if self.build_right else l_rows
            probe = l_rows if self.build_right else r_rows
            local = cost_model.hash_join(build, probe, out_rows)
            total = left_cost + right_cost + local
        elif algorithm == JoinAlgorithm.MERGE:
            local = cost_model.merge_join(l_rows, r_rows, out_rows)
            total = left_cost + right_cost + local
        elif algorithm == JoinAlgorithm.NESTED_LOOP_INDEX:
            matches = out_rows / l_rows if l_rows else 0.0
            local = cost_model.nested_loop_index(l_rows, matches)
            # the inner access path is replaced by per-row index seeks
            total = left_cost + local
        else:  # NESTED_LOOP_SCAN: the inner subtree re-runs per outer row
            local = cost_model.nested_loop_scan(max(1, l_rows), right_cost)
            total = left_cost + local
        stack.append((sources, out_rows, total, weights))

    def _counted(
        self, executor, left_sources, l_rows, weights, right_sources, r_rows
    ):
        """``(sources, row count, weights)`` of a counting join: the left
        rows that match, each weighted by its weight times its match
        count — the rows the expanding join would repeat."""
        if weights is not None:
            l_rows = weights.shape[0]
        if self.left_keys:
            counts = self._matches(
                executor, left_sources, l_rows, right_sources, counting=True
            )
        else:
            counts = np.full(l_rows, r_rows, dtype=np.int64)
        if weights is not None:
            counts *= weights
        sources = [left_sources[i] for i in self.left_keep]
        matched = np.flatnonzero(counts)
        if matched.shape[0] != l_rows:
            sources = [_take(source, matched) for source in sources]
            counts = counts[matched]
        return sources, int(counts.sum()), counts

    def _matches(
        self, executor, left_sources, l_rows, right_sources, counting=False
    ):
        """Matching ``(left_idx, right_idx)`` row pairs: left rows in
        order, each one's matches in right row order — or, ``counting``,
        only each left row's number of matches."""
        left_arrays = [_read(left_sources, slot) for slot in self.left_keys]
        right_arrays = [_read(right_sources, slot) for slot in self.right_keys]
        for position, left_column, right_column in self.strings:
            right_arrays[position] = translate_string_codes(
                executor._dictionary(left_column),
                executor._dictionary(right_column),
                right_arrays[position],
            )
        kept = None
        if self.equalities:
            mask = np.ones(l_rows, dtype=bool)
            for first, other, string_columns in self.equalities:
                values = _read(left_sources, other)
                if string_columns is not None:
                    first_column, other_column = string_columns
                    values = translate_string_codes(
                        executor._dictionary(first_column),
                        executor._dictionary(other_column),
                        values,
                    )
                mask &= _read(left_sources, first) == values
            kept = np.flatnonzero(mask)
            left_arrays = [column[kept] for column in left_arrays]
        index = None
        if self.index_columns is not None:
            index = executor._kept_join_index(
                self.index_table, self.index_columns, right_arrays
            )
        if counting:
            counts = join_counts(left_arrays, right_arrays, index)
            if kept is not None:
                every = np.zeros(l_rows, dtype=np.int64)
                every[kept] = counts
                counts = every
            return counts
        left_idx, right_idx = join_indices(left_arrays, right_arrays, index)
        if kept is not None:
            left_idx = kept[left_idx]
        return left_idx, right_idx


class _Aggregate(NamedTuple):
    """Group the result on top of the stack by ``group_slots`` and compute
    ``aggregates`` — ``(function, slot, expression)``: the argument is the
    column at ``slot``, else ``expression`` (``None`` for COUNT) over the
    columns at ``argument_slots``.  The output is one source: the
    distinct group keys (``group_out`` picks them from ``group_slots``),
    then the aggregates; ``stream`` sorts it by ``stream_keys``.  Weighted
    input (a counting join's) is aggregated as the rows it stands for;
    a SUM / AVG the weights cannot reproduce exactly expands them first."""

    group_slots: Tuple[Slot, ...]
    group_out: Tuple[int, ...]
    aggregates: tuple
    argument_slots: Dict[ColumnRef, Slot]
    stream: bool
    stream_keys: tuple

    def run(self, executor: Executor, stack: List[_Result]) -> None:
        sources, input_rows, child_cost, weights = stack.pop()
        cost_model = executor._cost
        if self.group_slots and input_rows == 0:
            arrays = [_read(sources, self.group_slots[i]) for i in self.group_out]
            arrays += [np.empty(0) for _ in self.aggregates]
            cost = child_cost + cost_model.hash_aggregate(0, 0)
            stack.append(([(arrays, None)], 0, cost, None))
            return
        arrays = self._aggregated(executor, sources, input_rows, weights)
        if arrays is None:
            expanded = np.repeat(np.arange(weights.shape[0]), weights)
            sources = [_take(source, expanded) for source in sources]
            arrays = self._aggregated(executor, sources, input_rows, None)
        n_groups = arrays[0].shape[0]
        if self.stream:
            rows = executor._sort_order(
                [(arrays, None)], n_groups, self.stream_keys
            )
            cost = child_cost + cost_model.stream_aggregate(
                input_rows, n_groups
            )
        else:
            rows = None
            cost = child_cost + cost_model.hash_aggregate(input_rows, n_groups)
        stack.append(([(arrays, rows)], n_groups, cost, None))

    def _aggregated(self, executor, sources, input_rows, weights):
        """The output columns over ``input_rows`` rows, of which
        ``sources`` hold each once, or by ``weights`` — ``None`` when a
        SUM / AVG cannot be computed exactly from the weights."""
        if weights is not None:
            input_rows = weights.shape[0]
        if self.group_slots:
            key_arrays = [_read(sources, slot) for slot in self.group_slots]
            group_ids, representatives = group_indices(key_arrays)
            n_groups = representatives.shape[0]
            arrays = [key_arrays[i][representatives] for i in self.group_out]
        else:
            n_groups = 1
            group_ids = np.zeros(input_rows, dtype=np.int64)
            arrays = []
        counts = np.bincount(group_ids, weights, minlength=n_groups)
        counts = counts.astype(np.float64, copy=False)
        reader = _SlotReader(self.argument_slots, sources, input_rows)
        for function, slot, expression in self.aggregates:
            if slot is not None:
                values = reader.gather(slot)
            elif expression is not None:
                values = evaluate_scalar(executor._db, reader, expression)
            else:
                values = None
            column = executor._aggregate_values(
                function, values, group_ids, counts, weights
            )
            if column is None:
                return None
            arrays.append(column)
        return arrays


class _Having(NamedTuple):
    """Keep the groups that pass every ``(slot, op, value)`` condition."""

    conditions: tuple

    def run(self, executor: Executor, stack: List[_Result]) -> None:
        sources, row_count, child_cost, _ = stack.pop()
        mask = np.ones(row_count, dtype=bool)
        for slot, op, value in self.conditions:
            mask &= COMPARATORS[op](_read(sources, slot), value)
        kept = np.flatnonzero(mask)
        cost = child_cost + row_count * (len(self.conditions) * CPU_COMPARE_COST)
        sources = [_take(source, kept) for source in sources]
        stack.append((sources, kept.shape[0], cost, None))


class _Sort(NamedTuple):
    """Order the result by ``keys`` (see :meth:`Executor._sort_order`)."""

    keys: tuple

    def run(self, executor: Executor, stack: List[_Result]) -> None:
        sources, row_count, child_cost, _ = stack.pop()
        order = executor._sort_order(sources, row_count, self.keys)
        if order is not None:
            sources = [_take(source, order) for source in sources]
        cost = child_cost + executor._cost.sort(row_count)
        stack.append((sources, row_count, cost, None))


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------


class PlanLayout(NamedTuple):
    """A plan compiled for execution; immutable, kept on the plan root.

    Attributes:
        needed: the query's referenced columns it was compiled for
            (``None``: every column of every table).
        steps: the plan's operators in post-order, column reads resolved
            to slots.
        annotations: per step, its node's feedback annotation.
        root_keys: per source of the root's result, its column keys.
    """

    needed: Optional[Dict[str, frozenset]]
    steps: tuple
    annotations: tuple
    root_keys: tuple


class _Shape:
    """At compile time, what a step's result holds: per source, the table
    it reads (``None``: a step's computed columns) and its keys — column
    names of the table, else column refs and labels."""

    __slots__ = ("sources", "tables", "labels")

    def __init__(self, sources, tables, labels) -> None:
        self.sources = sources
        #: table -> (its source, per position of that source the table's
        #: column name there, else ``None``)
        self.tables: Dict[str, Tuple[int, tuple]] = tables
        #: label -> slot
        self.labels: Dict[str, Slot] = labels

    def slot(self, key) -> Slot:
        try:
            if isinstance(key, ColumnRef):
                source, names = self.tables[key.table]
                return source, names.index(key.column)
            return self.labels[key]
        except (KeyError, ValueError):
            raise ExecutionError(f"no column {key} in the input") from None

    @classmethod
    def joined(cls, left: "_Shape", right: "_Shape", required):
        """The shape of ``left`` and ``right`` side by side, keeping the
        sources of ``required`` tables (``None``: all) and computed ones,
        and the kept source indices of each side."""
        sources: list = []
        tables: dict = {}
        labels: dict = {}
        keeps = []
        for shape in (left, right):
            moved = {}
            for index, source in enumerate(shape.sources):
                table = source[0]
                if required is None or table is None or table in required:
                    moved[index] = len(sources)
                    sources.append(source)
            for table, (index, names) in shape.tables.items():
                if index in moved:
                    tables[table] = (moved[index], names)
            for label, (index, position) in shape.labels.items():
                if index in moved:
                    labels[label] = (moved[index], position)
            keeps.append(tuple(moved))
        return cls(sources, tables, labels), keeps[0], keeps[1]


class _Compiler:
    """Compiles one plan into a :class:`PlanLayout`.

    Compilation walks down with the set of tables some ancestor reads
    (``required``; ``None`` at the root, which keeps everything), so that
    a join carries only the sources read above it, and whether the node's
    output reaches an aggregate only as the left input of counting joins
    (``counted``), and emits the steps on the way back up, in post-order.
    """

    def __init__(self, schema, needed, annotations) -> None:
        self._schema = schema
        self._needed = needed
        self._annotations = annotations
        self._steps: list = []
        self._observed: list = []

    def layout(self, plan: PlanNode) -> PlanLayout:
        shape = self._compile(plan, None)
        root_keys = tuple(
            keys
            if table is None
            else tuple(map(self._schema.table(table).ref, keys))
            for table, keys in shape.sources
        )
        return PlanLayout(
            self._needed, tuple(self._steps), tuple(self._observed), root_keys
        )

    # repro-lint: dispatch=PlanNode
    def _compile(self, node: PlanNode, required, counted=False) -> _Shape:
        """Emit the steps of ``node``'s subtree; the shape of its result."""
        if isinstance(node, ScanNode):
            shape = self._table(node.table)
            step = _Scan(
                node.table,
                shape.sources[0][1],
                self._filters(shape, node.predicates),
            )
        elif isinstance(node, IndexSeekNode):
            shape = self._table(node.table)
            step = _Seek(
                node.table,
                shape.sources[0][1],
                node.index_name,
                node.seek_predicate,
                self._filters(shape, node.residual_predicates),
            )
        elif isinstance(node, JoinNode):
            step, shape = self._join(node, required, counted)
        elif isinstance(node, AggregateNode):
            step, shape = self._aggregate(node)
        elif isinstance(node, HavingNode):
            shape = self._compile(node.child, required)
            step = _Having(
                tuple(
                    (
                        shape.slot(str(condition.aggregate)),
                        condition.op,
                        condition.value,
                    )
                    for condition in node.predicates
                )
            )
        elif isinstance(node, SortNode):
            if required is not None:
                required = required.union(ref.table for ref in node.keys)
            shape = self._compile(node.child, required)
            step = _Sort(
                tuple(
                    (shape.slot(ref), self._string_column(ref))
                    for ref in reversed(node.keys)
                )
            )
        else:
            raise ExecutionError(f"unknown plan node {type(node).__name__}")
        self._steps.append(step)
        self._observed.append(self._annotations[id(node)])
        return shape

    def _table(self, table: str) -> _Shape:
        """One source: the columns of ``table`` the query reads (all of
        them when it names none)."""
        names = self._schema.table(table).column_names()
        needed = self._needed
        if needed is not None and table in needed:
            wanted = needed[table]
            names = [name for name in names if name in wanted] or names[:1]
        names = tuple(names)
        return _Shape([(table, names)], {table: (0, names)}, {})

    @staticmethod
    def _filters(shape: _Shape, predicates) -> tuple:
        filters = []
        for predicate in predicates:
            (ref,) = predicate.columns()
            filters.append((predicate, shape.slot(ref)[1]))
        return tuple(filters)

    def _string_column(self, ref) -> Optional[Tuple[str, str]]:
        """``(table, column)`` of a STRING column, else ``None``."""
        if self._schema.column(ref).type == ColumnType.STRING:
            return ref.table, ref.column
        return None

    def _join(self, node: JoinNode, required, counted):
        left_tables = node.left.tables()
        pairs = []
        for predicate in node.join_predicates:
            left_ref, right_ref = predicate.left, predicate.right
            if left_ref.table not in left_tables:
                left_ref, right_ref = right_ref, left_ref
            pairs.append((right_ref, left_ref))
        # one key per right column, in ref order, so that every spelling
        # of a composite key presents its columns alike; the left columns
        # compared with one right column must equal each other
        pairs.sort()
        keys: list = []
        equalities = []
        for right_ref, left_ref in pairs:
            if not keys or keys[-1][0] != right_ref:
                keys.append((right_ref, left_ref))
            elif left_ref != keys[-1][1]:
                equalities.append((keys[-1][1], left_ref))
        # the inputs must carry the key columns; the output only what
        # the ancestors read
        below = required
        if required is not None:
            below = required.union(ref.table for pair in pairs for ref in pair)
        # no ancestor reads the right input: count its matches
        counting = counted and required.isdisjoint(node.right.tables())
        left = self._compile(node.left, below, counting)
        right = self._compile(node.right, below)

        strings = []
        for position, (right_ref, left_ref) in enumerate(keys):
            left_column = self._string_column(left_ref)
            if left_column is not None:
                right_column = (right_ref.table, right_ref.column)
                strings.append((position, left_column, right_column))
        equal = []
        for first, other in equalities:
            first_column = self._string_column(first)
            if first_column is not None:
                first_column = (first_column, (other.table, other.column))
            equal.append((left.slot(first), left.slot(other), first_column))
        right_node = node.right
        index_columns = None
        if (
            keys
            and not strings
            and isinstance(right_node, ScanNode)
            and not right_node.predicates
        ):
            index_columns = tuple(right_ref.column for right_ref, _ in keys)
        # a counting join's output carries nothing of its right input
        shape, left_keep, right_keep = _Shape.joined(
            left, _Shape([], {}, {}) if counting else right, required
        )
        step = _Join(
            node.algorithm,
            node.build_side == "right",
            tuple(left.slot(left_ref) for _, left_ref in keys),
            tuple(right.slot(right_ref) for right_ref, _ in keys),
            tuple(strings),
            tuple(equal),
            right_node.table if index_columns else None,
            index_columns,
            left_keep,
            right_keep,
            counting,
        )
        return step, shape

    def _aggregate(self, node: AggregateNode):
        group_by = node.group_by
        aggregates: Dict[str, Aggregate] = {}
        for aggregate in node.aggregates:
            aggregates.setdefault(str(aggregate), aggregate)
        # COUNT reads no argument; a plain column is read by its slot
        arguments = [
            aggregate.argument
            for aggregate in aggregates.values()
            if aggregate.function != AggregateFunction.COUNT
        ]
        columns = [ref for argument in arguments for ref in argument.columns()]
        group_keys = group_by
        if len(group_by) > 1:
            group_keys = tuple(dict.fromkeys(group_by))
        if not group_keys and not aggregates:
            # GROUP BY with no aggregates and no keys cannot happen; guard
            raise ExecutionError("aggregate node produced no columns")
        child = self._compile(
            node.child,
            frozenset(ref.table for ref in group_by + tuple(columns)),
            counted=True,
        )
        stream_keys = ()
        if node.method == "stream":
            stream_keys = tuple(
                ((0, group_keys.index(ref)), self._string_column(ref))
                for ref in reversed(group_by)
            )
        step = _Aggregate(
            tuple(child.slot(ref) for ref in group_by),
            tuple(group_by.index(ref) for ref in group_keys),
            tuple(
                self._argument(child, aggregate)
                for aggregate in aggregates.values()
            ),
            {
                ref: child.slot(ref)
                for argument in arguments
                if not isinstance(argument, ColumnExpression)
                for ref in argument.columns()
            },
            node.method == "stream",
            stream_keys,
        )
        tables = {
            table: (
                0,
                tuple(
                    ref.column if ref.table == table else None
                    for ref in group_keys
                ),
            )
            for table in {ref.table for ref in group_keys}
        }
        labels = {
            label: (0, len(group_keys) + position)
            for position, label in enumerate(aggregates)
        }
        output = group_keys + tuple(aggregates)
        shape = _Shape([(None, output)], tables, labels)
        return step, shape

    @staticmethod
    def _argument(child: _Shape, aggregate: Aggregate) -> tuple:
        """``(function, slot, expression)`` of one aggregate step."""
        argument = aggregate.argument
        if aggregate.function == AggregateFunction.COUNT:
            return aggregate.function, None, None
        if isinstance(argument, ColumnExpression):
            return aggregate.function, child.slot(argument.column), None
        return aggregate.function, None, argument

"""Normalized, bound statements: the currency between SQL and optimizer.

A :class:`Query` is the paper's normalized SPJ (+ aggregation) query: a set
of tables, a conjunction of selection predicates, a set of equijoin
predicates, optional GROUP BY, ORDER BY, and a projection list.

``Query.relevant_columns()`` implements Sec 3.1: columns in the WHERE or
GROUP BY clauses are relevant; columns appearing *only* in ORDER BY or the
projection are not (footnote 1 of the paper).

``Query.join_graph`` is the one adjacency structure over the join
predicates; ``joins_between`` and the optimizer's join enumeration both
read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.catalog import ColumnRef
from repro.errors import SqlBindError
from repro.sql.expressions import Aggregate, ScalarExpression
from repro.sql.predicates import JoinPredicate, Predicate


class Statement:
    """Marker base class for all bound statements."""


class JoinEdge(NamedTuple):
    """One join predicate as an edge between two table bits."""

    left_bit: int
    right_bit: int
    #: index into :attr:`JoinGraph.groups` of the edge's table pair
    group: int
    predicate: JoinPredicate


class JoinGraph:
    """A query's join predicates as a graph over table bits.

    Attributes:
        tables: the query's tables in sorted order; table ``i`` owns bit
            ``1 << i``, so walking a mask's bits upwards visits tables in
            sorted-name order.
        bit: table name -> bit.
        groups: the predicates of each joined table pair (each in
            ``query.joins`` order), in sorted table-pair order.
        edges: one :class:`JoinEdge` per predicate, in ``query.joins``
            order.
        neighbors: per table index, the mask of tables it joins.
        schedules: the optimizer's compiled enumeration schedules for
            this graph, by ``enable_bushy_joins``
            (:func:`repro.optimizer.schedule.join_schedule` fills it).
    """

    def __init__(
        self, tables: Tuple[str, ...], joins: Tuple[JoinPredicate, ...]
    ) -> None:
        self.tables = tuple(sorted(tables))
        self.bit = {name: 1 << i for i, name in enumerate(self.tables)}
        pairs = [tuple(sorted(join.tables())) for join in joins]
        group_of = {pair: g for g, pair in enumerate(sorted(set(pairs)))}
        groups: List[List[JoinPredicate]] = [[] for _ in group_of]
        self.neighbors = [0] * len(self.tables)
        edges = []
        for join, pair in zip(joins, pairs):
            low, high = self.bit[pair[0]], self.bit[pair[1]]
            groups[group_of[pair]].append(join)
            edges.append(JoinEdge(low, high, group_of[pair], join))
            self.neighbors[low.bit_length() - 1] |= high
            self.neighbors[high.bit_length() - 1] |= low
        self.groups = tuple(tuple(group) for group in groups)
        self.edges = tuple(edges)
        self.schedules: Dict[bool, object] = {}

    def mask(self, tables: Iterable[str]) -> int:
        """Bits of ``tables`` (names outside the query contribute none)."""
        mask = 0
        for name in tables:
            mask |= self.bit.get(name, 0)
        return mask

    def crossing(self, left_mask: int, right_mask: int) -> List[JoinEdge]:
        """Edges with one end in each mask, in ``query.joins`` order."""
        return [
            edge
            for edge in self.edges
            if (edge.left_bit & left_mask and edge.right_bit & right_mask)
            or (edge.right_bit & left_mask and edge.left_bit & right_mask)
        ]


@dataclass(frozen=True)
class Query(Statement):
    """A bound, normalized SELECT statement.

    Attributes:
        tables: referenced table names (each at most once; self-joins are
            outside the supported subset).
        predicates: conjunctive selection predicates (single-table).
        joins: equijoin predicates between tables.
        group_by: GROUP BY columns.
        order_by: ORDER BY columns (relevant for plan sort avoidance, not
            for statistics — per the paper's footnote 1).
        projections: SELECT-list items: :class:`ScalarExpression` or
            :class:`Aggregate`.  Empty means ``SELECT *``.
        text: original SQL text if the query came from the parser.
    """

    tables: Tuple[str, ...]
    predicates: Tuple[Predicate, ...] = ()
    joins: Tuple[JoinPredicate, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    order_by: Tuple[ColumnRef, ...] = ()
    projections: Tuple[object, ...] = ()
    having: Tuple[object, ...] = ()
    text: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.tables:
            raise SqlBindError("a query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise SqlBindError(
                f"duplicate table references not supported: {self.tables}"
            )
        table_set = set(self.tables)
        for pred in self.predicates:
            for ref in pred.columns():
                if ref.table not in table_set:
                    raise SqlBindError(
                        f"predicate {pred} references table {ref.table!r} "
                        "not in FROM clause"
                    )
            if len(pred.tables()) != 1:
                raise SqlBindError(
                    f"selection predicate {pred} must touch exactly one table"
                )
        for join in self.joins:
            for ref in join.columns():
                if ref.table not in table_set:
                    raise SqlBindError(
                        f"join {join} references table {ref.table!r} "
                        "not in FROM clause"
                    )
        for ref in self.group_by + self.order_by:
            if ref.table not in table_set:
                raise SqlBindError(
                    f"column {ref} not in FROM clause tables"
                )
        if self.having and not self.group_by:
            raise SqlBindError("HAVING requires a GROUP BY clause")
        for condition in self.having:
            for ref in condition.columns():
                if ref.table not in table_set:
                    raise SqlBindError(
                        f"HAVING references table {ref.table!r} not in "
                        "FROM clause"
                    )

    # ------------------------------------------------------------------
    # paper Sec 3.1: relevant columns
    # ------------------------------------------------------------------

    def relevant_columns(self) -> Tuple[ColumnRef, ...]:
        """Columns whose statistics can affect this query's optimization.

        WHERE-clause columns (selections and joins) and GROUP BY columns
        are relevant; ORDER-BY-only and projection-only columns are not
        (paper Sec 3.1, footnote 1).
        """
        return self._relevant_columns

    @cached_property
    def _relevant_columns(self) -> Tuple[ColumnRef, ...]:
        # asked per request by the plan cache's fingerprint
        seen: Dict[ColumnRef, None] = {}
        for pred in self.predicates:
            seen.update(dict.fromkeys(pred.columns()))
        for join in self.joins:
            seen.update(dict.fromkeys(join.columns()))
        seen.update(dict.fromkeys(self.group_by))
        return tuple(seen)

    @cached_property
    def referenced_columns(self) -> Dict[str, frozenset]:
        """Per table, the names of the columns any clause mentions — what
        an executor must read of each table (all of it for ``SELECT *``,
        which only the schema can spell out)."""
        needed: Dict[str, set] = {}
        for clause in chain(
            self.predicates, self.joins, self.projections, self.having
        ):
            for ref in clause.columns():
                needed.setdefault(ref.table, set()).add(ref.column)
        for ref in chain(self.group_by, self.order_by):
            needed.setdefault(ref.table, set()).add(ref.column)
        return {table: frozenset(names) for table, names in needed.items()}

    def selection_columns_of(self, table: str) -> Tuple[ColumnRef, ...]:
        """Distinct columns of ``table`` used in selection predicates."""
        seen = []
        for pred in self.predicates:
            for ref in pred.columns():
                if ref.table == table and ref not in seen:
                    seen.append(ref)
        return tuple(seen)

    def join_columns_of(self, table: str) -> Tuple[ColumnRef, ...]:
        """Distinct columns of ``table`` used in join predicates."""
        seen = []
        for join in self.joins:
            for ref in join.columns():
                if ref.table == table and ref not in seen:
                    seen.append(ref)
        return tuple(seen)

    def group_by_columns_of(self, table: str) -> Tuple[ColumnRef, ...]:
        """Distinct GROUP BY columns belonging to ``table``."""
        seen = []
        for ref in self.group_by:
            if ref.table == table and ref not in seen:
                seen.append(ref)
        return tuple(seen)

    def predicates_of(self, table: str) -> Tuple[Predicate, ...]:
        """Selection predicates that apply to ``table``."""
        return tuple(
            pred for pred in self.predicates if pred.tables() == (table,)
        )

    @cached_property
    def join_graph(self) -> JoinGraph:
        """The join graph, built on first use (the first optimize) and
        kept: MNSA optimizes each query at least three times."""
        return JoinGraph(self.tables, self.joins)

    def joins_between(self, left_tables, right_tables) -> Tuple:
        """Join predicates connecting two disjoint table sets, in
        ``joins`` order."""
        graph = self.join_graph
        crossing = graph.crossing(
            graph.mask(left_tables), graph.mask(right_tables)
        )
        return tuple(edge.predicate for edge in crossing)

    @property
    def has_aggregation(self) -> bool:
        """True if the query groups or aggregates."""
        if self.group_by or self.having:
            return True
        return any(isinstance(p, Aggregate) for p in self.projections)

    def all_aggregates(self) -> Tuple[Aggregate, ...]:
        """Every aggregate the plan must compute: the projected ones plus
        those referenced only in the HAVING clause."""
        seen = []
        for item in self.projections:
            if isinstance(item, Aggregate) and item not in seen:
                seen.append(item)
        for condition in self.having:
            if condition.aggregate not in seen:
                seen.append(condition.aggregate)
        return tuple(seen)

    def __str__(self) -> str:
        if self.text:
            return self.text
        parts = [f"SELECT ... FROM {', '.join(self.tables)}"]
        conj = [str(p) for p in self.predicates] + [str(j) for j in self.joins]
        if conj:
            parts.append("WHERE " + " AND ".join(conj))
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(str(c) for c in self.group_by)
            )
        return " ".join(parts)


@dataclass(frozen=True)
class DmlStatement(Statement):
    """A bound INSERT / DELETE / UPDATE statement.

    The workload generator uses these to drive row-modification counters
    (paper Sec 6 / 8.1 update-mix workloads).

    Attributes:
        kind: ``"insert"``, ``"delete"`` or ``"update"``.
        table: target table name.
        predicate: selection for DELETE/UPDATE (``None`` = whole table).
        assignments: column -> literal for UPDATE.
        rows: literal rows for INSERT (tuples in schema column order or
            dicts keyed by column name).
        text: original SQL text if parsed.
    """

    kind: str
    table: str
    predicate: Optional[Predicate] = None
    assignments: Optional[Dict[str, object]] = field(
        default=None, compare=False
    )
    rows: Tuple[object, ...] = field(default=(), compare=False)
    text: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete", "update"):
            raise SqlBindError(f"unknown DML kind {self.kind!r}")
        if self.kind == "update" and not self.assignments:
            raise SqlBindError("UPDATE requires at least one assignment")
        if self.kind == "insert" and not self.rows:
            raise SqlBindError("INSERT requires at least one row")

    def __str__(self) -> str:
        if self.text:
            return self.text
        return f"{self.kind.upper()} {self.table}"

"""Rags-style stochastic workload generation (paper Sec 8.1, ref [15]).

Generates seeded, reproducible workloads over a populated database.  The
paper's three knobs are exposed directly:

* ``update_percent`` — share of INSERT/DELETE/UPDATE statements
  (0, 25, 50);
* ``complexity`` — ``"simple"`` (queries touch up to 2 tables) or
  ``"complex"`` (up to 8 tables);
* ``statements`` — workload length (100, 500, 1000).

Workload names follow the paper's convention: ``U25-S-1000`` is a Simple
1000-statement workload with 25% updates.

Queries are realistic by construction: joins follow foreign keys (so the
join graph is connected) and literals are sampled from the stored data
(so predicate selectivities span the real distribution, which is where
skew — and hence statistics — matters).  A column's distinct-value
domain is computed once per column per generation, not per literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.catalog import ColumnRef, ColumnType
from repro.errors import WorkloadError
from repro.sql.expressions import (
    Aggregate,
    AggregateFunction,
    ColumnExpression,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    LikePredicate,
)
from repro.sql.query import DmlStatement, Query
from repro.workload.workload import Workload

_NAME_RE = re.compile(r"^U(\d+)-([SC])-(\d+)$")


@dataclass(frozen=True)
class RagsConfig:
    """Workload-shape parameters (paper Sec 8.1)."""

    update_percent: int = 0
    complexity: str = "simple"  # "simple" (2 tables) or "complex" (8)
    statements: int = 100
    seed: int = 7
    max_selection_predicates: int = 3
    group_by_probability: float = 0.40
    order_by_probability: float = 0.25
    having_probability: float = 0.20

    def __post_init__(self) -> None:
        if not 0 <= self.update_percent <= 100:
            raise WorkloadError(
                f"update_percent must be in [0, 100], got {self.update_percent}"
            )
        if self.complexity not in ("simple", "complex"):
            raise WorkloadError(
                f"complexity must be 'simple' or 'complex', got "
                f"{self.complexity!r}"
            )
        if self.statements < 1:
            raise WorkloadError("statements must be >= 1")

    @property
    def max_tables(self) -> int:
        return 2 if self.complexity == "simple" else 8

    @property
    def name(self) -> str:
        letter = "S" if self.complexity == "simple" else "C"
        return f"U{self.update_percent}-{letter}-{self.statements}"


def parse_workload_name(name: str) -> RagsConfig:
    """Parse the paper's ``U<pct>-<S|C>-<n>`` naming into a config."""
    match = _NAME_RE.match(name)
    if not match:
        raise WorkloadError(
            f"workload name {name!r} does not match 'U<pct>-<S|C>-<n>'"
        )
    pct, letter, count = match.groups()
    return RagsConfig(
        update_percent=int(pct),
        complexity="simple" if letter == "S" else "complex",
        statements=int(count),
    )


class RagsGenerator:
    """Seeded random workload generator over one database."""

    #: columns never used in generated predicates (free-text comments give
    #: meaningless predicates; keys are covered through joins instead)
    _SKIP_SUFFIXES = ("_comment", "_address", "_phone", "_name")

    def __init__(self, database, config: RagsConfig) -> None:
        self._db = database
        self._config = config
        self._rng = np.random.default_rng(config.seed)
        # HAVING decisions use a dedicated stream so enabling/disabling
        # them never perturbs the rest of the generated workload
        self._having_rng = np.random.default_rng(config.seed + 104_729)
        self._tables = [
            name
            for name in database.table_names()
            if database.row_count(name) > 0
        ]
        if not self._tables:
            raise WorkloadError("database has no populated tables")
        # ref -> (column array, its np.unique): the array is held so a
        # replaced column is never answered from a stale domain
        self._domains: Dict[ColumnRef, tuple] = {}

    # ------------------------------------------------------------------

    def generate(self) -> Workload:
        """Produce the full workload."""
        statements = []
        for _ in range(self._config.statements):
            is_update = (
                self._rng.uniform(0, 100) < self._config.update_percent
            )
            if is_update:
                statements.append(self._random_dml())
            else:
                statements.append(self._random_query())
        return Workload(statements, name=self._config.name)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _choice(self, items):
        return items[int(self._rng.integers(0, len(items)))]

    def _predicate_columns(self, table: str) -> List[str]:
        schema = self._db.table(table).schema
        keys = set(schema.primary_key)
        columns = [
            col.name
            for col in schema.columns
            if col.name not in keys
            and not col.name.endswith(self._SKIP_SUFFIXES)
        ]
        return columns or [schema.columns[0].name]

    #: probability of drawing a predicate literal uniformly from the
    #: column's *distinct* values rather than row-weighted.  Row-weighted
    #: draws on skewed data almost always hit the heavy value, producing
    #: unrealistically unselective predicates; real decision-support
    #: queries mostly name specific (tail) values.
    _DISTINCT_SAMPLE_PROBABILITY = 0.65

    def _domain(self, ref: ColumnRef, arr: np.ndarray) -> np.ndarray:
        """The column's distinct values, sorted once per column array."""
        cached = self._domains.get(ref)
        if cached is None or cached[0] is not arr:
            cached = self._domains[ref] = (arr, np.unique(arr))
        return cached[1]

    def _sample_value(self, ref: ColumnRef):
        """A literal drawn from the column's actual data."""
        data = self._db.table(ref.table)
        arr = data.column_array(ref.column)
        if arr.shape[0] == 0:
            return 0
        if self._rng.uniform() < self._DISTINCT_SAMPLE_PROBABILITY:
            domain = self._domain(ref, arr)
            raw = domain[int(self._rng.integers(0, domain.shape[0]))]
        else:
            raw = arr[int(self._rng.integers(0, arr.shape[0]))]
        ctype = self._db.schema.column(ref).type
        if ctype == ColumnType.STRING:
            return data.string_dictionary(ref.column).decode(int(raw))
        if ctype == ColumnType.FLOAT:
            return float(raw)
        return int(raw)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _random_query(self) -> Query:
        n_tables = int(self._rng.integers(1, self._config.max_tables + 1))
        start = self._choice(self._tables)
        tables = None
        if n_tables > 1:
            tables = self._db.schema.connected_subset(
                start, n_tables, choose=self._choice
            )
        if tables is None:
            tables = [start]

        joins = self._joins_for(tables)
        predicates = self._selections_for(tables)
        group_by, projections = self._aggregation_for(tables)
        having = self._having_for(group_by)
        order_by = self._order_by_for(group_by, projections, tables)
        return Query(
            tables=tuple(tables),
            predicates=tuple(predicates),
            joins=tuple(joins),
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            projections=tuple(projections),
            having=tuple(having),
        )

    def _having_for(self, group_by) -> List:
        if not group_by:
            return []
        if self._having_rng.uniform() >= self._config.having_probability:
            return []
        from repro.sql.expressions import HavingPredicate

        threshold = int(self._having_rng.integers(2, 20))
        ops = [">", ">=", "<"]
        op = ops[int(self._having_rng.integers(0, len(ops)))]
        return [
            HavingPredicate(
                Aggregate(AggregateFunction.COUNT, None), op, threshold
            )
        ]

    def _joins_for(self, tables) -> List[JoinPredicate]:
        joins = []
        chosen = set(tables)
        for fk in self._db.schema.foreign_keys():
            if fk.child_table in chosen and fk.parent_table in chosen:
                for child_ref, parent_ref in fk.column_pairs:
                    join = JoinPredicate(child_ref, parent_ref)
                    if join not in joins:
                        joins.append(join)
        return joins

    def _selections_for(self, tables) -> List:
        count = int(
            self._rng.integers(1, self._config.max_selection_predicates + 1)
        )
        predicates = []
        used_columns = set()
        for _ in range(count):
            table = self._choice(list(tables))
            column = self._choice(self._predicate_columns(table))
            ref = ColumnRef(table, column)
            if ref in used_columns:
                continue
            used_columns.add(ref)
            predicates.append(self._random_predicate(ref))
        return predicates

    def _random_predicate(self, ref: ColumnRef):
        ctype = self._db.schema.column(ref).type
        value = self._sample_value(ref)
        if ctype == ColumnType.STRING:
            kind = self._choice(["eq", "in", "like"])
            if kind == "eq":
                return ComparisonPredicate(ref, "=", value)
            if kind == "in":
                values = {value}
                for _ in range(int(self._rng.integers(1, 4))):
                    values.add(self._sample_value(ref))
                return InPredicate(ref, tuple(sorted(values)))
            prefix = str(value)[: max(1, len(str(value)) // 2)]
            return LikePredicate(ref, prefix + "%")
        kind = self._choice(["eq", "lt", "gt", "between", "in"])
        if kind == "eq":
            return ComparisonPredicate(ref, "=", value)
        if kind == "lt":
            return ComparisonPredicate(ref, "<", value)
        if kind == "gt":
            return ComparisonPredicate(ref, ">", value)
        if kind == "between":
            other = self._sample_value(ref)
            low, high = sorted((value, other))
            return BetweenPredicate(ref, low, high)
        values = {value}
        for _ in range(int(self._rng.integers(1, 4))):
            values.add(self._sample_value(ref))
        return InPredicate(ref, tuple(sorted(values)))

    def _aggregation_for(self, tables):
        group_by: List[ColumnRef] = []
        projections: List = []
        if self._rng.uniform() < self._config.group_by_probability:
            n_group = int(self._rng.integers(1, 3))
            for _ in range(n_group):
                table = self._choice(list(tables))
                column = self._choice(self._predicate_columns(table))
                ref = ColumnRef(table, column)
                if ref not in group_by:
                    group_by.append(ref)
            projections = [ColumnExpression(ref) for ref in group_by]
            projections.append(Aggregate(AggregateFunction.COUNT, None))
            numeric = self._numeric_column(tables)
            if numeric is not None:
                projections.append(
                    Aggregate(
                        AggregateFunction.SUM, ColumnExpression(numeric)
                    )
                )
        return group_by, projections

    def _numeric_column(self, tables) -> Optional[ColumnRef]:
        for table in tables:
            for col in self._db.table(table).schema.columns:
                if col.type in (ColumnType.FLOAT, ColumnType.INT) and (
                    not col.name.endswith(self._SKIP_SUFFIXES)
                ):
                    return ColumnRef(table, col.name)
        return None

    def _order_by_for(self, group_by, projections, tables):
        if self._rng.uniform() >= self._config.order_by_probability:
            return []
        if group_by:
            return [group_by[0]]
        table = self._choice(list(tables))
        column = self._choice(self._predicate_columns(table))
        return [ColumnRef(table, column)]

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _random_dml(self) -> DmlStatement:
        kind = self._choice(["insert", "delete", "update"])
        table = self._choice(self._tables)
        if kind == "insert":
            return self._random_insert(table)
        if kind == "delete":
            return self._random_delete(table)
        return self._random_update(table)

    def _random_insert(self, table: str) -> DmlStatement:
        """Insert 1-5 rows cloned from existing rows (domain-valid)."""
        data = self._db.table(table)
        n = int(self._rng.integers(1, 6))
        rows = []
        names = data.schema.column_names()
        for _ in range(n):
            idx = int(self._rng.integers(0, max(1, data.row_count)))
            row = {}
            for name in names:
                ref = ColumnRef(table, name)
                arr = data.column_array(name)
                raw = arr[idx] if arr.shape[0] else 0
                ctype = self._db.schema.column(ref).type
                if ctype == ColumnType.STRING:
                    row[name] = data.string_dictionary(name).decode(int(raw))
                elif ctype == ColumnType.FLOAT:
                    row[name] = float(raw)
                else:
                    row[name] = int(raw)
            rows.append(row)
        return DmlStatement(kind="insert", table=table, rows=tuple(rows))

    def _random_delete(self, table: str) -> DmlStatement:
        """Delete by equality on a sampled value (bounded blast radius)."""
        column = self._choice(self._predicate_columns(table))
        ref = ColumnRef(table, column)
        predicate = ComparisonPredicate(ref, "=", self._sample_value(ref))
        return DmlStatement(kind="delete", table=table, predicate=predicate)

    def _random_update(self, table: str) -> DmlStatement:
        """Update one non-key column over an equality-selected row set."""
        columns = self._predicate_columns(table)
        target = self._choice(columns)
        where_col = self._choice(columns)
        target_ref = ColumnRef(table, target)
        where_ref = ColumnRef(table, where_col)
        predicate = ComparisonPredicate(
            where_ref, "=", self._sample_value(where_ref)
        )
        return DmlStatement(
            kind="update",
            table=table,
            predicate=predicate,
            assignments={target: self._sample_value(target_ref)},
        )


def generate_workload(
    database, name_or_config, seed: Optional[int] = None
) -> Workload:
    """Generate a workload from a config or a ``U25-S-1000``-style name."""
    if isinstance(name_or_config, str):
        config = parse_workload_name(name_or_config)
    else:
        config = name_or_config
    if seed is not None:
        config = RagsConfig(
            update_percent=config.update_percent,
            complexity=config.complexity,
            statements=config.statements,
            seed=seed,
            max_selection_predicates=config.max_selection_predicates,
            group_by_probability=config.group_by_probability,
            order_by_probability=config.order_by_probability,
            having_probability=config.having_probability,
        )
    return RagsGenerator(database, config).generate()

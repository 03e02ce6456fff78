"""A real engine behind the Backend protocol: stdlib ``sqlite3``.

The adapter loads a :class:`~repro.storage.Database` (the
``make_tpcd_database`` output) into an in-memory SQLite database and maps
the protocol onto real engine mechanisms:

* **statistics** — ``create_stats`` builds an index over the key's
  columns and runs ``ANALYZE`` on it (always in full: a sampled create
  is a full one, and ``complete_stats`` rebuilds nothing), harvesting
  the resulting ``sqlite_stat1`` row (``"nrow n1 n2 ..."``, where
  ``nK`` is the average number of rows matching the first K index
  columns) into per-prefix densities and distinct counts, plus the
  leading column's MIN/MAX for range interpolation;
* **scope semantics** — the drop-list and per-request ignore-sets are
  implemented by *stat withholding*: a hidden statistic's index is
  dematerialized (``DROP INDEX`` removes its ``sqlite_stat1`` row, so
  SQLite's own planner stops seeing it too) and its harvested numbers are
  withheld from selectivity estimation;
* **plans** — ``optimize`` obtains the join order from ``EXPLAIN QUERY
  PLAN`` over SQLite-dialect SQL, then derives a normalized
  :mod:`repro.optimizer.plans` tree: physical operators (hash / merge /
  nested-loop joins, hash / stream aggregation) are chosen with the
  repo's own :class:`~repro.optimizer.cost_model.CostModel` over
  selectivities estimated from the harvested statistics, so plan choice
  reacts to statistics the same way the memory engine's does;
* **execution** — ``execute`` runs the real SQL and returns true row
  counts (SQLite exposes no work counters, so ``actual_cost`` is 0 and
  cross-backend comparisons use wall clock — see docs/backends.md).

Selectivity estimation *reuses*
:class:`~repro.optimizer.selectivity.SelectivityEstimator` over a narrow
catalog facade, so the missing-variable analysis (step (a) of Sec 4.1)
is structurally identical across backends by construction.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.backends.memory import DmlExecution
from repro.catalog import ColumnRef, ColumnType
from repro.concurrency import guarded_by
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import ReproError, StatisticsError
from repro.optimizer.cache import OptimizationRequest
from repro.optimizer.cost_model import CostModel
from repro.optimizer.optimizer import (
    OptimizationResult,
    crossing_joins,
    finish_plan,
    pair_selectivities,
    select_join,
)
from repro.optimizer.plans import JoinNode, PlanNode, ScanNode
from repro.optimizer.selectivity import MAGIC_RANGE, SelectivityEstimator
from repro.sql.query import DmlStatement, Query
from repro.sql.render import _Renderer, render_statement
from repro.stats.statistic import StatKey, as_stat_key

_SQLITE_TYPE = {
    ColumnType.INT: "INTEGER",
    ColumnType.DATE: "INTEGER",  # stored as day numbers, like the memory engine
    ColumnType.FLOAT: "REAL",
    ColumnType.STRING: "TEXT",
}

_EQP_TABLE = re.compile(r"^(?:SCAN|SEARCH) (\w+)")


class _SqliteRenderer(_Renderer):
    """SQLite dialect: DATE literals are the stored day numbers."""

    def literal(self, ref: ColumnRef, value) -> str:
        ctype = self._schema.column(ref).type
        if ctype == ColumnType.DATE:
            return str(int(value))
        return super().literal(ref, value)


class _Stat1Stat:
    """One harvested statistic: the ``sqlite_stat1`` numbers of an index.

    Attributes:
        key: the statistic's column set.
        index_name: the backing SQLite index.
        nrow: table rows at ANALYZE time.
        avg_rows: ``(n1, n2, ...)`` from the stat string — average rows
            matching the first K index columns.
        lo / hi: MIN / MAX of the leading column (None for empty tables).
        numeric: whether the leading column's domain interpolates.
        build_cost: work units charged for the build.
    """

    def __init__(
        self,
        key: StatKey,
        index_name: str,
        nrow: int,
        avg_rows: Tuple[int, ...],
        lo,
        hi,
        numeric: bool,
        build_cost: float,
    ) -> None:
        self.key = key
        self.index_name = index_name
        self.nrow = max(1, int(nrow))
        self.avg_rows = tuple(max(1, int(n)) for n in avg_rows)
        self.lo = lo
        self.hi = hi
        self.numeric = numeric
        self.build_cost = float(build_cost)
        self.droppable = False
        self.materialized = True

    def density_for_prefix(self, size: int) -> Optional[float]:
        if not 1 <= size <= len(self.avg_rows):
            return None
        return self.avg_rows[size - 1] / self.nrow

    def distinct_for_prefix(self, size: int) -> Optional[float]:
        density = self.density_for_prefix(size)
        if density is None or density <= 0:
            return None
        return 1.0 / density

    def stat1_text(self) -> str:
        return " ".join(str(n) for n in (self.nrow,) + self.avg_rows)


class _Stat1Histogram:
    """Histogram-shaped view over one statistic's ``sqlite_stat1`` numbers.

    Implements exactly the surface
    :class:`~repro.optimizer.selectivity.SelectivityEstimator` consumes:
    equality via ``1/ndv``, ranges via uniform interpolation over the
    leading column's [MIN, MAX], IN-lists as summed equality mass.  A
    cost proxy, not a real histogram — see docs/backends.md for the
    fidelity caveats.
    """

    def __init__(self, stat: _Stat1Stat) -> None:
        self._stat = stat

    @property
    def distinct_count(self) -> float:
        return self._stat.distinct_for_prefix(1) or 1.0

    def selectivity_equal(self, value) -> float:
        stat = self._stat
        if (
            stat.numeric
            and stat.lo is not None
            and not stat.lo <= value <= stat.hi
        ):
            return 0.0
        return min(1.0, 1.0 / max(1.0, self.distinct_count))

    def selectivity_not_equal(self, value) -> float:
        return min(1.0, max(0.0, 1.0 - self.selectivity_equal(value)))

    def selectivity_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        stat = self._stat
        if not stat.numeric or stat.lo is None or stat.hi <= stat.lo:
            return MAGIC_RANGE
        lo = stat.lo if low is None else max(stat.lo, low)
        hi = stat.hi if high is None else min(stat.hi, high)
        width = stat.hi - stat.lo
        fraction = (hi - lo) / width if hi > lo else 0.0
        if hi == lo and low is not None and high is not None:
            # degenerate box: a single in-range point
            fraction = 1.0 / max(1.0, self.distinct_count)
        return min(1.0, max(0.0, fraction))

    def selectivity_in(self, values: Iterable) -> float:
        total = 0.0
        for value in values:
            total += self.selectivity_equal(value)
        return min(1.0, total)

    def join_selectivity(self, other) -> float:
        """Containment assumption over the two sides' distinct counts."""
        other_ndv = float(getattr(other, "distinct_count", 1.0))
        return 1.0 / max(1.0, self.distinct_count, other_ndv)


class _SqliteStringColumn:
    """String-dictionary adapter: codes are the strings themselves.

    The estimator only needs membership (``lookup`` returning ``None``
    for absent literals) and LIKE enumeration; both are answered by the
    engine itself.
    """

    def __init__(self, backend: "SqliteBackend", table: str, column: str):
        self._backend = backend
        self._table = table
        self._column = column

    def lookup(self, value: str) -> Optional[str]:
        present = self._backend._string_exists(
            self._table, self._column, value
        )
        return value if present else None

    def codes_matching_like(self, pattern: str) -> np.ndarray:
        matches = self._backend._strings_matching_like(
            self._table, self._column, pattern
        )
        return np.asarray(matches, dtype=object)


class _SqliteTable:
    """Per-table facade handing out string-column adapters."""

    def __init__(self, backend: "SqliteBackend", table: str) -> None:
        self._backend = backend
        self._table = table

    def string_dictionary(self, column: str) -> _SqliteStringColumn:
        return _SqliteStringColumn(self._backend, self._table, column)


class _SqliteStatsView:
    """The ``db.stats`` facade the SelectivityEstimator reads.

    Answers coverage and lookup questions from the harvested statistics
    registry, restricted to one request's *effective-visible* set, with
    the same structural rules as
    :class:`~repro.stats.manager.StatisticsManager`: histograms resolve
    single-column first then leading-column multi-column statistics;
    densities need the leading prefix to cover the column set exactly.
    """

    def __init__(
        self, backend: "SqliteBackend", visible: Dict[StatKey, _Stat1Stat]
    ) -> None:
        self._backend = backend
        self._visible = visible

    def histogram_for(self, ref: ColumnRef) -> Optional[_Stat1Histogram]:
        single = None
        leading = None
        for key in sorted(self._visible):
            if key.table != ref.table:
                continue
            if key.columns == (ref.column,):
                single = self._visible[key]
                break
            if leading is None and key.columns[0] == ref.column:
                leading = self._visible[key]
        stat = single if single is not None else leading
        if stat is None:
            return None
        return _Stat1Histogram(stat)

    def density_for_columns(
        self, table: str, columns: Iterable[str]
    ) -> Optional[float]:
        wanted = frozenset(columns)
        size = len(wanted)
        if size == 0:
            return None
        for key in sorted(self._visible):
            if key.table != table or len(key.columns) < size:
                continue
            if frozenset(key.columns[:size]) == wanted:
                return self._visible[key].density_for_prefix(size)
        return None

    def distinct_for_columns(
        self, table: str, columns: Iterable[str]
    ) -> Optional[float]:
        density = self.density_for_columns(table, columns)
        if density is None or density <= 0:
            return None
        return 1.0 / density

    def joint_for_columns(self, table: str, columns) -> None:
        """SQLite has no joint (2-D) histograms."""
        return None


class _SqliteCatalog:
    """The narrow ``database`` surface the SelectivityEstimator consumes:
    ``schema``, ``stats``, ``table(name)``, ``row_count(name)``."""

    def __init__(
        self, backend: "SqliteBackend", stats: _SqliteStatsView
    ) -> None:
        self._backend = backend
        self.schema = backend.schema
        self.stats = stats

    def table(self, name: str) -> _SqliteTable:
        return _SqliteTable(self._backend, name)

    def row_count(self, name: str) -> int:
        return self._backend.row_count(name)


class _SqliteExecution:
    """Result of executing a query on SQLite.

    ``actual_cost`` is 0: SQLite exposes no per-statement work counters
    through :mod:`sqlite3`, so cross-backend effort comparisons use wall
    clock instead (see ``benchmarks/bench_backend_parity.py``).
    """

    def __init__(self, rows: List[tuple]) -> None:
        self._rows = rows
        self.row_count = len(rows)
        self.actual_cost = 0.0

    def rows(self, limit: Optional[int] = None) -> List[tuple]:
        if limit is None:
            return list(self._rows)
        return list(self._rows[:limit])


class SqliteBackend(Backend):
    """Backend over an in-memory SQLite copy of a repro database.

    Args:
        database: the :class:`~repro.storage.Database` whose contents
            (and schema) are loaded into SQLite.  Later DML must go
            through :meth:`execute` to keep the copies in sync.
        config: optimizer knobs for the cost-proxy plan derivation;
            shared with the memory engine so the parity suite compares
            like with like.

    Thread-safety: one connection guarded by one lock; every protocol
    method is a single critical section (check-then-act sequences on the
    statistics registry never span an unlock).
    """

    _stats = guarded_by("_db_lock")
    _calls = guarded_by("_db_lock")
    _creation_cost = guarded_by("_db_lock")
    _row_counts = guarded_by("_db_lock")
    _string_probes = guarded_by("_db_lock")
    _index_serial = guarded_by("_db_lock")

    def __init__(
        self, database, config: OptimizerConfig = DEFAULT_CONFIG
    ) -> None:
        import sqlite3

        self._schema = database.schema
        self._config = config
        self._cost = CostModel()
        self._renderer = _SqliteRenderer(self._schema)
        self._db_lock = threading.RLock()
        # the statement cache would serve stale plans across our
        # index-materialization changes; disable it outright
        self._conn = sqlite3.connect(
            ":memory:", check_same_thread=False, cached_statements=0
        )
        self._conn.execute("PRAGMA case_sensitive_like = ON")
        self._stats: Dict[StatKey, _Stat1Stat] = {}
        self._calls = 0
        self._creation_cost = 0.0
        self._row_counts: Dict[str, int] = {}
        self._string_probes: Dict[Tuple[str, str, str], bool] = {}
        self._index_serial = 0
        self._load(database)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def _load(self, database) -> None:
        with self._db_lock:
            cursor = self._conn.cursor()
            for table in database.table_names():
                table_schema = self._schema.table(table)
                columns = ", ".join(
                    f"{column.name} {_SQLITE_TYPE[column.type]}"
                    for column in table_schema.columns
                )
                cursor.execute(f"CREATE TABLE {table} ({columns})")
                data = database.table(table)
                names = table_schema.column_names()
                decoded = [
                    self._to_python(data.decoded_column(name))
                    for name in names
                ]
                placeholders = ", ".join("?" for _ in names)
                cursor.executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})",
                    list(zip(*decoded)) if decoded else [],
                )
                self._row_counts[table] = data.row_count
            # seed sqlite_stat1 with the per-table cardinality rows so the
            # planner's join orders are informed even before any statistic
            # is created (a bare ANALYZE emits exactly those rows)
            cursor.execute("ANALYZE")
            self._conn.commit()

    @staticmethod
    def _to_python(values) -> list:
        return [
            value.item() if hasattr(value, "item") else value
            for value in values
        ]

    # ------------------------------------------------------------------
    # Backend protocol: identity
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return "sqlite"

    @property
    def schema(self):
        return self._schema

    # ------------------------------------------------------------------
    # Backend protocol: planning
    # ------------------------------------------------------------------

    def optimize(self, request: OptimizationRequest) -> OptimizationResult:
        with self._db_lock:
            self._calls += 1
            query = request.query
            use_statistics = not request.degraded
            visible = (
                self._effective_visible(request.ignore)
                if use_statistics
                else {}
            )
            self._materialize(visible)
            estimator = SelectivityEstimator(
                _SqliteCatalog(self, _SqliteStatsView(self, visible)),
                self._config,
                request.overrides_dict() if request.overrides else None,
                use_statistics=use_statistics,
            )
            order = self._join_order(query)
            plan = self._build_plan(query, order, estimator)
            return OptimizationResult(plan=plan, cost=plan.cost, rows=plan.rows)

    def magic_variables(self, query: Query) -> List:
        with self._db_lock:
            visible = self._effective_visible(())
            estimator = SelectivityEstimator(
                _SqliteCatalog(self, _SqliteStatsView(self, visible)),
                self._config,
            )
            return estimator.missing_variables(query)

    @property
    def optimizer_calls(self) -> int:
        with self._db_lock:
            return self._calls

    # ------------------------------------------------------------------
    # Backend protocol: execution
    # ------------------------------------------------------------------

    def execute(self, statement):
        with self._db_lock:
            sql = render_statement(
                statement, self._schema, renderer=self._renderer
            )
            if isinstance(statement, Query):
                rows = self._conn.execute(sql).fetchall()
                return _SqliteExecution(rows)
            if not isinstance(statement, DmlStatement):
                raise ReproError(
                    f"cannot execute {type(statement).__name__} on sqlite"
                )
            cursor = self._conn.execute(sql)
            affected = cursor.rowcount
            self._conn.commit()
            self._refresh_row_count(statement.table)
            return DmlExecution(max(0, affected))

    # ------------------------------------------------------------------
    # Backend protocol: statistics lifecycle
    # ------------------------------------------------------------------

    def create_stats(
        self, key: StatKey, sample_rows: Optional[int] = None
    ) -> None:
        # ANALYZE reads the whole index whatever the caller would accept,
        # so every build is a full one and complete_stats has nothing to do
        key = as_stat_key(key)
        with self._db_lock:
            existing = self._stats.get(key)
            if existing is not None:
                if existing.droppable:
                    # creating a drop-listed statistic revives it (Sec 5)
                    existing.droppable = False
                    return
                raise StatisticsError(f"statistic {key} already exists")
            self._index_serial += 1
            index_name = f"repro_stat_{self._index_serial}"
            columns = ", ".join(key.columns)
            cursor = self._conn.cursor()
            cursor.execute(
                f"CREATE INDEX {index_name} ON {key.table} ({columns})"
            )
            cursor.execute(f"ANALYZE {index_name}")
            row = cursor.execute(
                "SELECT stat FROM sqlite_stat1 WHERE idx = ?", (index_name,)
            ).fetchone()
            if row is None:  # empty table: ANALYZE records nothing
                nrow, avg_rows = 1, tuple(1 for _ in key.columns)
            else:
                numbers = [int(n) for n in row[0].split()]
                nrow, avg_rows = numbers[0], tuple(numbers[1:])
            leading = key.columns[0]
            lo, hi = cursor.execute(
                f"SELECT MIN({leading}), MAX({leading}) FROM {key.table}"
            ).fetchone()
            ctype = self._schema.column(ColumnRef(key.table, leading)).type
            numeric = ctype != ColumnType.STRING
            build_cost = float(self._cached_row_count(key.table))
            self._stats[key] = _Stat1Stat(
                key, index_name, nrow, avg_rows, lo, hi, numeric, build_cost
            )
            self._creation_cost += build_cost
            self._conn.commit()

    def complete_stats(self, keys: Sequence[StatKey]) -> List[StatKey]:
        return []

    def drop_stats(self, key: StatKey) -> None:
        key = as_stat_key(key)
        with self._db_lock:
            stat = self._stats.get(key)
            if stat is None:
                raise StatisticsError(f"statistic {key} does not exist")
            del self._stats[key]
            if stat.materialized:
                self._conn.execute(f"DROP INDEX {stat.index_name}")
                self._conn.commit()

    def has_stats(self, key: StatKey) -> bool:
        key = as_stat_key(key)
        with self._db_lock:
            return key in self._stats

    def is_stat_visible(self, key: StatKey) -> bool:
        key = as_stat_key(key)
        with self._db_lock:
            stat = self._stats.get(key)
            return stat is not None and not stat.droppable

    def stat_keys(self) -> List[StatKey]:
        with self._db_lock:
            return sorted(self._stats)

    def visible_stat_keys(self) -> List[StatKey]:
        with self._db_lock:
            return sorted(
                key for key, stat in self._stats.items() if not stat.droppable
            )

    def mark_stat_droppable(self, key: StatKey) -> None:
        key = as_stat_key(key)
        with self._db_lock:
            stat = self._stats.get(key)
            if stat is None:
                raise StatisticsError(f"statistic {key} does not exist")
            stat.droppable = True

    def revive_stat(self, key: StatKey) -> None:
        key = as_stat_key(key)
        with self._db_lock:
            stat = self._stats.get(key)
            if stat is None:
                raise StatisticsError(f"statistic {key} does not exist")
            stat.droppable = False

    def is_stat_droppable(self, key: StatKey) -> bool:
        key = as_stat_key(key)
        with self._db_lock:
            stat = self._stats.get(key)
            return stat is not None and stat.droppable

    def stat_drop_list(self) -> List[StatKey]:
        with self._db_lock:
            return sorted(
                key for key, stat in self._stats.items() if stat.droppable
            )

    @property
    def creation_cost_total(self) -> float:
        with self._db_lock:
            return self._creation_cost

    # ------------------------------------------------------------------
    # Backend protocol: tables
    # ------------------------------------------------------------------

    def row_count(self, table: str) -> int:
        with self._db_lock:
            return self._cached_row_count(table)

    def table_names(self) -> List[str]:
        return list(self._schema.table_names())

    def _refresh_row_count(self, table: str) -> None:
        """After DML on ``table``: re-read its cardinality into our cache
        and its ``sqlite_stat1`` row, and forget its string probes."""
        with self._db_lock:
            self._row_counts.pop(table, None)
            count = self._cached_row_count(table)
            cursor = self._conn.cursor()
            cursor.execute(
                "UPDATE sqlite_stat1 SET stat = ? "
                "WHERE tbl = ? AND idx IS NULL",
                (str(count), table),
            )
            cursor.execute("ANALYZE sqlite_master")
            self._conn.commit()
            self._string_probes = {
                probe: hit
                for probe, hit in self._string_probes.items()
                if probe[0] != table
            }

    # ------------------------------------------------------------------
    # internals: statistics visibility and materialization
    # ------------------------------------------------------------------

    def _effective_visible(
        self, ignore: Sequence[StatKey]
    ) -> Dict[StatKey, _Stat1Stat]:
        hidden: FrozenSet[StatKey] = frozenset(ignore)
        with self._db_lock:  # reentrant: callers already hold it
            return {
                key: stat
                for key, stat in self._stats.items()
                if not stat.droppable and key not in hidden
            }

    def _materialize(self, visible: Dict[StatKey, _Stat1Stat]) -> None:
        """Align index materialization with the effective-visible set.

        Withheld statistics lose their index (SQLite then ignores the
        ``sqlite_stat1`` row too); re-shown statistics get the index back
        and the harvested stat row re-inserted, then ``ANALYZE
        sqlite_master`` reloads the planner's view.
        """
        with self._db_lock:  # reentrant: optimize() already holds it
            changed = False
            cursor = self._conn.cursor()
            for key, stat in self._stats.items():
                want = key in visible
                if want == stat.materialized:
                    continue
                if want:
                    columns = ", ".join(key.columns)
                    cursor.execute(
                        f"CREATE INDEX {stat.index_name} "
                        f"ON {key.table} ({columns})"
                    )
                    cursor.execute(
                        "INSERT INTO sqlite_stat1(tbl, idx, stat) "
                        "VALUES (?, ?, ?)",
                        (key.table, stat.index_name, stat.stat1_text()),
                    )
                else:
                    cursor.execute(f"DROP INDEX {stat.index_name}")
                stat.materialized = want
                changed = True
            if changed:
                cursor.execute("ANALYZE sqlite_master")
                self._conn.commit()

    def _cached_row_count(self, table: str) -> int:
        with self._db_lock:  # reentrant: planning paths already hold it
            count = self._row_counts.get(table)
            if count is None:
                count = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                self._row_counts[table] = count
            return count

    # ------------------------------------------------------------------
    # internals: estimator probes against the live engine
    # ------------------------------------------------------------------

    def _string_exists(self, table: str, column: str, value: str) -> bool:
        with self._db_lock:
            probe = (table, column, value)
            hit = self._string_probes.get(probe)
            if hit is None:
                hit = bool(
                    self._conn.execute(
                        f"SELECT EXISTS(SELECT 1 FROM {table} "
                        f"WHERE {column} = ?)",
                        (value,),
                    ).fetchone()[0]
                )
                self._string_probes[probe] = hit
            return hit

    def _strings_matching_like(
        self, table: str, column: str, pattern: str
    ) -> List[str]:
        with self._db_lock:
            rows = self._conn.execute(
                f"SELECT DISTINCT {column} FROM {table} "
                f"WHERE {column} LIKE ?",
                (pattern,),
            ).fetchall()
            return sorted(row[0] for row in rows)

    # ------------------------------------------------------------------
    # internals: EXPLAIN QUERY PLAN -> normalized plan tree
    # ------------------------------------------------------------------

    def _join_order(self, query: Query) -> List[str]:
        """Join order from ``EXPLAIN QUERY PLAN`` (appearance order)."""
        sql = render_statement(query, self._schema, renderer=self._renderer)
        rows = self._conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
        wanted = set(query.tables)
        order: List[str] = []
        for row in rows:
            match = _EQP_TABLE.match(row[3])
            if match and match.group(1) in wanted:
                if match.group(1) not in order:
                    order.append(match.group(1))
        # defensive: EQP variants that elide a table keep query order
        for table in query.tables:
            if table not in order:
                order.append(table)
        return order

    def _build_plan(
        self,
        query: Query,
        order: List[str],
        estimator: SelectivityEstimator,
    ) -> PlanNode:
        """Physical plan for the EQP-given join order.

        Each join goes through the memory optimizer's operator selection
        with no inner index, so minus index nested loops:
        statistics-backing indexes are not access paths here (the memory
        engine's indexes come only from explicit tuning), so plan shape
        reacts to *statistics*, not to their storage artifacts.
        """
        graph = query.join_graph
        pair_selectivity = pair_selectivities(graph, estimator)
        plan = self._scan_node(order[0], query, estimator)
        joined = graph.bit[order[0]]
        for table in order[1:]:
            right = self._scan_node(table, query, estimator)
            joins, selectivity = crossing_joins(
                graph, joined, graph.bit[table], pair_selectivity
            )
            cost, rows, algorithm, build_side = select_join(
                plan, right, joins, selectivity, self._cost, self._config, None
            )
            plan = JoinNode(
                algorithm, plan, right, joins, rows, cost,
                build_side=build_side,
            )
            joined |= graph.bit[table]
        return finish_plan(
            query,
            estimator,
            plan,
            self._cost,
            self._cached_row_count,
        )

    def _scan_node(
        self, table: str, query: Query, estimator: SelectivityEstimator
    ) -> ScanNode:
        predicates = query.predicates_of(table)
        rows = self._cached_row_count(table)
        filter_sel = estimator.table_filter_selectivity(table, predicates)
        cost = self._cost.table_scan(
            rows,
            self._schema.table(table).row_width_bytes,
            len(predicates),
        )
        return ScanNode(table, predicates, rows * filter_sel, cost)

    # ------------------------------------------------------------------

    def checksum(self) -> str:
        """Content digest over the SQLite copy, comparable with
        :func:`repro.datagen.checksum.database_checksum` on the source
        database (load parity)."""
        from repro.datagen.checksum import rows_digest

        with self._db_lock:
            def iter_tables():
                for table in sorted(self.table_names()):
                    rows = self._conn.execute(
                        f"SELECT * FROM {table}"
                    ).fetchall()
                    yield table, rows

            return rows_digest(iter_tables())

    def close(self) -> None:
        """Release the SQLite connection (idempotent)."""
        with self._db_lock:
            self._conn.close()

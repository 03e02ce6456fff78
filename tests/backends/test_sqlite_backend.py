"""Tests for the SQLite engine adapter (repro.backends.sqlite)."""

import pytest

from repro.backends.sqlite import SqliteBackend
from repro.catalog import ColumnRef
from repro.datagen.checksum import database_checksum
from repro.errors import StatisticsError
from repro.optimizer.cache import OptimizationRequest
from repro.sql.builder import QueryBuilder
from repro.sql.predicates import ComparisonPredicate
from repro.sql.query import DmlStatement
from repro.stats import StatKey

AGE = StatKey("emp", ("age",))
AGE_SALARY = StatKey("emp", ("age", "salary"))


@pytest.fixture
def sq(db):
    backend = SqliteBackend(db)
    yield backend
    backend.close()


def _age_query(db):
    return QueryBuilder(db.schema).where("emp.age", "=", 30).build()


def _join_query(db):
    return (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "=", 30)
        .build()
    )


class TestLoad:
    def test_checksum_matches_source(self, db, sq):
        """Load parity: the SQLite copy holds byte-identical contents."""
        assert sq.checksum() == database_checksum(db)

    def test_row_counts_match_source(self, db, sq):
        for table in db.table_names():
            assert sq.row_count(table) == db.row_count(table)

    def test_tpcd_loads_and_checksums(self, fresh_tpcd_db):
        db = fresh_tpcd_db(scale=0.001)
        backend = SqliteBackend(db)
        try:
            assert backend.checksum() == database_checksum(db)
        finally:
            backend.close()


class TestStat1Harvesting:
    def test_single_column_stat(self, db, sq):
        sq.create_stats(AGE)
        stat = sq._stats[AGE]
        ages = list(db.table("emp").column_array("age"))
        assert stat.nrow == len(ages)
        # n1 = average rows per distinct leading value (SQLite rounds up)
        distinct = len(set(int(a) for a in ages))
        assert stat.avg_rows[0] == -(-len(ages) // distinct)
        assert stat.lo == int(min(ages))
        assert stat.hi == int(max(ages))
        assert stat.numeric

    def test_multi_column_prefixes(self, sq):
        sq.create_stats(AGE_SALARY)
        stat = sq._stats[AGE_SALARY]
        assert len(stat.avg_rows) == 2
        # deeper prefixes are at least as selective
        assert stat.avg_rows[1] <= stat.avg_rows[0]
        assert stat.density_for_prefix(2) <= stat.density_for_prefix(1)
        assert stat.density_for_prefix(3) is None

    def test_duplicate_create_rejected(self, sq):
        sq.create_stats(AGE)
        with pytest.raises(StatisticsError):
            sq.create_stats(AGE)

    def test_missing_key_operations_rejected(self, sq):
        with pytest.raises(StatisticsError):
            sq.drop_stats(AGE)
        with pytest.raises(StatisticsError):
            sq.mark_stat_droppable(AGE)
        with pytest.raises(StatisticsError):
            sq.revive_stat(AGE)


class TestStatisticsChangePlans:
    def test_statistics_inform_estimates(self, db, sq):
        """Creating the age statistic changes the estimated cardinality
        of the skewed equality filter (magic number -> observed density)."""
        query = _age_query(db)
        bare = sq.optimize(OptimizationRequest(query))
        sq.create_stats(AGE)
        informed = sq.optimize(OptimizationRequest(query))
        assert informed.rows != bare.rows

    def test_ignore_set_restores_bare_estimate(self, db, sq):
        """Ignore_Statistics_Subset (Sec 7.2): withholding the statistic
        reproduces the no-statistics estimate exactly."""
        query = _age_query(db)
        bare = sq.optimize(OptimizationRequest(query))
        sq.create_stats(AGE)
        ignored = sq.optimize(OptimizationRequest(query, ignore=(AGE,)))
        assert ignored.rows == bare.rows
        assert ignored.cost == bare.cost
        # and the statistic still answers once un-ignored
        assert sq.optimize(OptimizationRequest(query)).rows != bare.rows

    def test_drop_list_hides_from_planner(self, db, sq):
        query = _age_query(db)
        bare = sq.optimize(OptimizationRequest(query))
        sq.create_stats(AGE)
        sq.mark_stat_droppable(AGE)
        hidden = sq.optimize(OptimizationRequest(query))
        assert hidden.rows == bare.rows
        sq.revive_stat(AGE)
        assert sq.optimize(OptimizationRequest(query)).rows != bare.rows

    def test_degraded_request_uses_magic_numbers(self, db, sq):
        query = _age_query(db)
        bare = sq.optimize(OptimizationRequest(query))
        sq.create_stats(AGE)
        degraded = sq.optimize(OptimizationRequest(query, degraded=True))
        assert degraded.rows == bare.rows

    def test_overrides_pin_selectivity(self, db, sq):
        query = _age_query(db)
        variables = sq.magic_variables(query)
        assert variables  # no stats yet: the filter variable is missing
        pinned = sq.optimize(
            OptimizationRequest(query, {variables[0]: 1.0})
        )
        assert pinned.rows == pytest.approx(sq.row_count("emp"))

    def test_magic_variables_shrink_with_stats(self, db, sq):
        query = _join_query(db)
        before = len(sq.magic_variables(query))
        sq.create_stats(AGE)
        assert len(sq.magic_variables(query)) < before


class TestExecution:
    def test_query_rows_match_memory_engine(self, db, sq):
        from repro.backends.memory import MemoryBackend

        mem = MemoryBackend(db)
        for query in (_age_query(db), _join_query(db)):
            assert sq.execute(query).row_count == mem.execute(query).row_count

    def test_dml_updates_copy_and_epoch(self, db, sq):
        before_rows = sq.row_count("emp")
        stmt = DmlStatement(
            kind="delete",
            table="emp",
            predicate=ComparisonPredicate(ColumnRef("emp", "age"), "=", 30),
        )
        result = sq.execute(stmt)
        assert result.row_count > 0
        assert sq.row_count("emp") == before_rows - result.row_count
        # the planner's cardinality row follows the copy
        assert sq._conn.execute(
            "SELECT stat FROM sqlite_stat1 WHERE tbl = 'emp' AND idx IS NULL"
        ).fetchone() == (str(before_rows - result.row_count),)

    def test_insert_roundtrip(self, db, sq):
        stmt = DmlStatement(
            kind="insert",
            table="dept",
            rows=({"id": 100, "dname": "new", "budget": 5.0},),
        )
        before = sq.row_count("dept")
        assert sq.execute(stmt).row_count == 1
        assert sq.row_count("dept") == before + 1

    def test_unknown_statement_rejected(self, sq):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            sq.execute(object())

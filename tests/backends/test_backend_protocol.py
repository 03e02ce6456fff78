"""Tests for the Backend protocol surface (repro.backends.base)."""

import pytest

from repro.backends.base import BACKEND_NAMES, Backend, backend_from_name
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.optimizer import Optimizer, PlanCache
from repro.sql.builder import QueryBuilder
from repro.stats import StatKey

from tests.util import simple_db

AGE = StatKey("emp", ("age",))


def _age_query(db):
    return QueryBuilder(db.schema).where("emp.age", "=", 30).build()


class TestFactory:
    def test_names_registry(self):
        assert BACKEND_NAMES == ("memory", "sqlite")

    def test_memory_by_name(self, db):
        backend = backend_from_name("memory", db)
        assert isinstance(backend, MemoryBackend)
        assert backend.name == "memory"
        assert backend.database is db

    def test_memory_adopts_optimizer_and_cache(self, db):
        opt = Optimizer(db)
        assert backend_from_name("memory", db, optimizer=opt).optimizer is opt
        cache = PlanCache(16)
        backend = backend_from_name("memory", db, cache=cache)
        assert backend.optimizer.cache is cache

    def test_sqlite_by_name(self, db):
        backend = backend_from_name("sqlite", db)
        assert isinstance(backend, SqliteBackend)
        assert backend.name == "sqlite"
        backend.close()

    def test_unknown_name_rejected(self, db):
        with pytest.raises(ValueError, match="unknown backend"):
            backend_from_name("oracle", db)


class TestProtocolShape:
    @pytest.fixture(params=BACKEND_NAMES)
    def backend(self, request, db):
        built = backend_from_name(request.param, db)
        yield built
        if isinstance(built, SqliteBackend):
            built.close()

    def test_is_backend(self, backend):
        assert isinstance(backend, Backend)
        assert backend.name in BACKEND_NAMES

    def test_schema_and_tables(self, db, backend):
        assert backend.schema is db.schema
        assert sorted(backend.table_names()) == sorted(db.table_names())
        for table in backend.table_names():
            assert backend.row_count(table) == db.row_count(table)

    def test_optimize_query_shorthand(self, db, backend):
        result = backend.optimize_query(_age_query(db))
        assert result.plan is not None
        assert result.cost > 0
        assert backend.optimizer_calls == 1

    def test_stats_lifecycle(self, backend):
        assert not backend.has_stats(AGE)
        assert backend.stat_keys() == []
        backend.create_stats(AGE)
        assert backend.has_stats(AGE)
        assert backend.is_stat_visible(AGE)
        assert backend.stat_keys() == [AGE]
        assert backend.visible_stat_keys() == [AGE]
        assert backend.creation_cost_total > 0

        backend.mark_stat_droppable(AGE)
        assert backend.is_stat_droppable(AGE)
        assert not backend.is_stat_visible(AGE)
        assert backend.has_stats(AGE)  # hidden, not deleted (Sec 5)
        assert backend.stat_drop_list() == [AGE]
        assert backend.visible_stat_keys() == []

        backend.revive_stat(AGE)
        assert not backend.is_stat_droppable(AGE)
        assert backend.is_stat_visible(AGE)

        backend.drop_stats(AGE)
        assert not backend.has_stats(AGE)
        assert backend.stat_keys() == []

    def test_create_revives_drop_listed(self, backend):
        backend.create_stats(AGE)
        backend.mark_stat_droppable(AGE)
        backend.create_stats(AGE)  # revive, not error
        assert backend.is_stat_visible(AGE)

    def test_query_execution_row_counts(self, db, backend):
        query = _age_query(db)
        result = backend.execute(query)
        expected = int((db.table("emp").column_array("age") == 30).sum())
        assert result.row_count == expected
        assert result.actual_cost >= 0.0

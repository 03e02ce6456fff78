"""Tests for repro.index.manager and the tuned TPC-D configuration."""

import pytest

from repro.catalog import ColumnRef
from repro.errors import CatalogError
from repro.index import apply_tuned_tpcd_indexes, tuned_tpcd_indexes

from tests.util import simple_db


class TestIndexManager:
    def test_create_and_lookup(self):
        db = simple_db()
        definition = db.indexes.create_index(
            "idx_age", ColumnRef("emp", "age")
        )
        assert definition.column == ColumnRef("emp", "age")
        assert db.indexes.index_on(ColumnRef("emp", "age")) == definition

    def test_duplicate_name_rejected(self):
        db = simple_db()
        db.indexes.create_index("idx", ColumnRef("emp", "age"))
        with pytest.raises(CatalogError):
            db.indexes.create_index("idx", ColumnRef("emp", "salary"))

    def test_unknown_column_rejected(self):
        db = simple_db()
        with pytest.raises(CatalogError):
            db.indexes.create_index("idx", ColumnRef("emp", "zzz"))

    def test_drop_index(self):
        db = simple_db()
        db.indexes.create_index("idx", ColumnRef("emp", "age"))
        db.indexes.drop_index("idx")
        assert db.indexes.index_on(ColumnRef("emp", "age")) is None

    def test_index_on_answers_the_first_declared_through_drops(self):
        """``index_on`` reads a column -> definition map; it must answer
        what a scan of the definitions in declaration order answers."""
        db = simple_db()
        age, salary = ColumnRef("emp", "age"), ColumnRef("emp", "salary")

        def scan(column):
            for definition in db.indexes.definitions():
                if definition.column == column:
                    return definition
            return None

        for step in (
            lambda: db.indexes.create_index("a1", age),
            lambda: db.indexes.create_index("s1", salary),
            lambda: db.indexes.create_index("a2", age),
            lambda: db.indexes.create_index("a3", age),
            lambda: db.indexes.drop_index("a2"),
            lambda: db.indexes.drop_index("a1"),
            lambda: db.indexes.create_index("a1", age),
            lambda: db.indexes.drop_index("a3"),
            lambda: db.indexes.drop_index("a1"),
        ):
            step()
            for column in (age, salary):
                assert db.indexes.index_on(column) is scan(column)
        assert db.indexes.index_on(age) is None
        assert db.indexes.index_on(salary).name == "s1"

    def test_drop_unknown_rejected(self):
        with pytest.raises(CatalogError):
            simple_db().indexes.drop_index("nope")

    def test_structure_lazily_built(self):
        db = simple_db()
        db.indexes.create_index("idx", ColumnRef("emp", "age"))
        structure = db.indexes.structure("idx")
        assert len(structure) == db.row_count("emp")

    def test_structure_cached(self):
        db = simple_db()
        db.indexes.create_index("idx", ColumnRef("emp", "age"))
        assert db.indexes.structure("idx") is db.indexes.structure("idx")

    def test_structure_unknown_index(self):
        with pytest.raises(CatalogError):
            simple_db().indexes.structure("nope")

    def test_invalidate_rebuilds(self):
        db = simple_db()
        db.indexes.create_index("idx", ColumnRef("emp", "age"))
        before = db.indexes.structure("idx")
        db.indexes.invalidate("emp")
        assert db.indexes.structure("idx") is not before

    def test_invalidate_other_table_keeps_structure(self):
        db = simple_db()
        db.indexes.create_index("idx", ColumnRef("emp", "age"))
        before = db.indexes.structure("idx")
        db.indexes.invalidate("dept")
        assert db.indexes.structure("idx") is before

    def test_indexed_columns(self):
        db = simple_db()
        db.indexes.create_index("a", ColumnRef("emp", "age"))
        db.indexes.create_index("b", ColumnRef("emp", "salary"))
        assert db.indexes.indexed_columns() == [
            ColumnRef("emp", "age"),
            ColumnRef("emp", "salary"),
        ]


class TestTunedTpcd:
    def test_thirteen_indexes(self):
        assert len(tuned_tpcd_indexes()) == 13

    def test_apply(self, fresh_tpcd_db):
        db = fresh_tpcd_db()
        created = apply_tuned_tpcd_indexes(db)
        assert len(created) == 13
        assert len(db.indexes.definitions()) == 13

    def test_primary_keys_covered(self):
        columns = {str(ref) for _, ref in tuned_tpcd_indexes()}
        assert "lineitem.l_orderkey" in columns
        assert "orders.o_orderkey" in columns

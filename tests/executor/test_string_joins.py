"""End-to-end joins on STRING columns (dictionary-code translation)."""

import numpy as np
import pytest

from repro.catalog import Column, ColumnRef, ColumnType, ForeignKey, Schema, TableSchema
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder
from repro.storage import Database

S = ColumnType.STRING
I = ColumnType.INT


@pytest.fixture
def string_join_db():
    """Two tables joined on a STRING column with *different* dictionaries.

    The orders table sees codes in one insertion order, the regions
    lookup table in another, so a raw code comparison would be wrong —
    the executor must translate through the dictionaries.
    """
    schema = Schema(
        [
            TableSchema(
                "events",
                [Column("id", I), Column("region", S)],
            ),
            TableSchema(
                "regions",
                [Column("rname", S), Column("population", I)],
            ),
        ],
        [ForeignKey("events", ("region",), "regions", ("rname",))],
    )
    db = Database(schema)
    db.load_table(
        "events",
        {
            "id": np.arange(8),
            # insertion order: west first
            "region": [
                "west", "west", "east", "north",
                "west", "east", "nowhere", "north",
            ],
        },
    )
    db.load_table(
        "regions",
        {
            # insertion order differs: east first
            "rname": ["east", "north", "west", "south"],
            "population": [10, 20, 30, 40],
        },
    )
    return db


class TestStringJoins:
    def test_join_matches_by_value_not_code(self, string_join_db):
        db = string_join_db
        # sanity: the same string has different codes on the two sides
        assert db.table("events").string_dictionary("region").lookup(
            "east"
        ) != db.table("regions").string_dictionary("rname").lookup("east")
        query = (
            QueryBuilder(db.schema)
            .join("events.region", "regions.rname")
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        # 7 events have a matching region; "nowhere" does not
        assert result.row_count == 7

    def test_joined_values_decoded_consistently(self, string_join_db):
        db = string_join_db
        query = (
            QueryBuilder(db.schema)
            .join("events.region", "regions.rname")
            .select("events.region", "regions.rname", "regions.population")
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        for region, rname, population in result.rows():
            assert region == rname
            expected = {"east": 10, "north": 20, "west": 30}[rname]
            assert population == expected

    def test_group_by_string_join_result(self, string_join_db):
        db = string_join_db
        query = (
            QueryBuilder(db.schema)
            .join("events.region", "regions.rname")
            .select("regions.rname")
            .group_by("regions.rname")
            .aggregate("count")
            .build()
        )
        result = Executor(db).execute(
            Optimizer(db).optimize(query).plan, query
        )
        counts = dict(result.rows())
        assert counts == {"west": 3, "east": 2, "north": 2}

    def test_translation_follows_dictionary_growth(self, string_join_db):
        """The cached code mapping of a dictionary pair is rebuilt once an
        insert adds a string to either side."""
        from repro.executor.dml import apply_dml
        from repro.sql.binder import parse_and_bind

        db = string_join_db
        query = (
            QueryBuilder(db.schema)
            .join("events.region", "regions.rname")
            .build()
        )

        def joined_rows():
            return Executor(db).execute(
                Optimizer(db).optimize(query).plan, query
            ).row_count

        assert joined_rows() == 7
        apply_dml(
            db,
            parse_and_bind(
                "INSERT INTO regions VALUES ('nowhere', 5)", db.schema
            ),
        )
        assert joined_rows() == 8
        apply_dml(
            db,
            parse_and_bind(
                "INSERT INTO events VALUES (8, 'south')", db.schema
            ),
        )
        assert joined_rows() == 9

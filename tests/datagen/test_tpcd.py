"""Tests for repro.datagen.tpcd (schema) and the generator."""

import numpy as np
import pytest

from repro.datagen import SkewSpec, TpcdGenerator, make_tpcd_database, tpcd_schema
from repro.datagen.generator import MIX
from repro.datagen.zipf import skew_of_column
from repro.errors import DataGenerationError


class TestSchema:
    def test_eight_tables(self):
        schema = tpcd_schema()
        assert len(schema.table_names()) == 8

    def test_all_foreign_keys_registered(self):
        schema = tpcd_schema()
        assert len(schema.foreign_keys()) == 10

    def test_lineitem_composite_fk(self):
        schema = tpcd_schema()
        composite = [
            fk
            for fk in schema.foreign_keys()
            if len(fk.child_columns) == 2
        ]
        assert len(composite) == 1
        assert composite[0].parent_table == "partsupp"

    def test_join_graph_connected(self):
        schema = tpcd_schema()
        subset = schema.connected_subset("lineitem", 8)
        assert subset is not None and len(subset) == 8


class TestSkewSpec:
    def test_default_uniform(self):
        assert SkewSpec().z_for("orders", "o_totalprice") == 0.0

    def test_fixed_z(self):
        assert SkewSpec(z=2.5).z_for("orders", "o_totalprice") == 2.5

    def test_override_beats_default(self):
        spec = SkewSpec(z=1.0, overrides={"orders.o_totalprice": 3.5})
        assert spec.z_for("orders", "o_totalprice") == 3.5
        assert spec.z_for("orders", "o_orderdate") == 1.0

    def test_mix_in_range(self):
        spec = SkewSpec.mixed(seed=4)
        z = spec.z_for("lineitem", "l_quantity")
        assert 0.0 <= z <= 4.0

    def test_mix_deterministic(self):
        a = SkewSpec.mixed(seed=4).z_for("orders", "o_totalprice")
        b = SkewSpec.mixed(seed=4).z_for("orders", "o_totalprice")
        assert a == b

    def test_mix_varies_per_column(self):
        spec = SkewSpec.mixed(seed=4)
        zs = {
            spec.z_for("lineitem", c)
            for c in ("l_quantity", "l_discount", "l_tax", "l_shipmode")
        }
        assert len(zs) > 1

    def test_invalid_z_rejected(self):
        with pytest.raises(DataGenerationError):
            SkewSpec(z=9.0)

    def test_invalid_override_rejected(self):
        with pytest.raises(DataGenerationError):
            SkewSpec(overrides={"a.b": -1.0})


class TestGenerator:
    def test_invalid_scale(self):
        with pytest.raises(DataGenerationError):
            TpcdGenerator(scale=0)

    def test_cardinality_scaling(self):
        gen = TpcdGenerator(scale=0.01)
        assert gen.cardinality("region") == 5
        assert gen.cardinality("nation") == 25
        assert gen.cardinality("orders") == 15_000

    def test_minimum_rows(self):
        gen = TpcdGenerator(scale=0.00001)
        assert gen.cardinality("supplier") >= 10

    def test_all_tables_populated(self, tpcd_db_readonly):
        for table in tpcd_db_readonly.table_names():
            assert tpcd_db_readonly.row_count(table) > 0

    def test_fk_integrity_orders_customer(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        custkeys = set(
            db.table("customer").column_array("c_custkey").tolist()
        )
        refs = set(db.table("orders").column_array("o_custkey").tolist())
        assert refs <= custkeys

    def test_fk_integrity_lineitem_orders(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        orderkeys = set(
            db.table("orders").column_array("o_orderkey").tolist()
        )
        refs = set(db.table("lineitem").column_array("l_orderkey").tolist())
        assert refs <= orderkeys

    def test_partsupp_pairs_exist_in_parents(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        partkeys = set(db.table("part").column_array("p_partkey").tolist())
        suppkeys = set(
            db.table("supplier").column_array("s_suppkey").tolist()
        )
        assert set(
            db.table("partsupp").column_array("ps_partkey").tolist()
        ) <= partkeys
        assert set(
            db.table("partsupp").column_array("ps_suppkey").tolist()
        ) <= suppkeys

    def test_linenumbers_start_at_one(self, tpcd_db_readonly):
        lineitem = tpcd_db_readonly.table("lineitem")
        nums = lineitem.column_array("l_linenumber")
        assert nums.min() == 1
        # each order's lines are numbered 1..k in row order
        lines_so_far = {}
        expected = []
        for key in lineitem.column_array("l_orderkey").tolist():
            lines_so_far[key] = lines_so_far.get(key, 0) + 1
            expected.append(lines_so_far[key])
        assert nums.tolist() == expected

    def test_shipdate_after_orderdate(self, tpcd_db_readonly):
        db = tpcd_db_readonly
        orders = db.table("orders")
        lineitem = db.table("lineitem")
        date_of = dict(
            zip(
                orders.column_array("o_orderkey").tolist(),
                orders.column_array("o_orderdate").tolist(),
            )
        )
        ship = lineitem.column_array("l_shipdate")
        okeys = lineitem.column_array("l_orderkey")
        base = np.asarray([date_of[int(k)] for k in okeys])
        assert (ship > base).all()

    def test_determinism(self):
        a = make_tpcd_database(scale=0.002, z=2.0, seed=9)
        b = make_tpcd_database(scale=0.002, z=2.0, seed=9)
        assert (
            a.table("orders").column_array("o_totalprice")
            == b.table("orders").column_array("o_totalprice")
        ).all()

    def test_seed_changes_data(self):
        a = make_tpcd_database(scale=0.002, z=2.0, seed=9)
        b = make_tpcd_database(scale=0.002, z=2.0, seed=10)
        assert not (
            a.table("orders").column_array("o_totalprice")
            == b.table("orders").column_array("o_totalprice")
        ).all()

    def test_skew_increases_with_z(self):
        flat = make_tpcd_database(scale=0.002, z=0.0, seed=4)
        sharp = make_tpcd_database(scale=0.002, z=4.0, seed=4)
        col = "l_quantity"
        assert skew_of_column(
            sharp.table("lineitem").column_array(col)
        ) > skew_of_column(flat.table("lineitem").column_array(col))

    def test_mix_mode_database_name(self):
        db = make_tpcd_database(scale=0.002, z=MIX, seed=4)
        assert db.name == "TPCD_MIX"

    def test_z_database_name(self):
        assert make_tpcd_database(scale=0.002, z=4.0).name == "TPCD_4"

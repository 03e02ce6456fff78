"""Tests for repro.workload.rags."""

import pytest

from repro.errors import WorkloadError
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.workload import (
    RagsConfig,
    RagsGenerator,
    generate_workload,
    parse_workload_name,
)


class TestConfig:
    def test_name_round_trip(self):
        config = parse_workload_name("U25-S-1000")
        assert config.update_percent == 25
        assert config.complexity == "simple"
        assert config.statements == 1000
        assert config.name == "U25-S-1000"

    def test_complex_letter(self):
        assert parse_workload_name("U50-C-100").max_tables == 8

    def test_simple_max_tables(self):
        assert RagsConfig(complexity="simple").max_tables == 2

    def test_bad_name_rejected(self):
        with pytest.raises(WorkloadError):
            parse_workload_name("whatever")

    def test_invalid_update_percent(self):
        with pytest.raises(WorkloadError):
            RagsConfig(update_percent=150)

    def test_invalid_complexity(self):
        with pytest.raises(WorkloadError):
            RagsConfig(complexity="medium")

    def test_invalid_statement_count(self):
        with pytest.raises(WorkloadError):
            RagsConfig(statements=0)


class TestGeneration:
    def test_statement_count(self, tpcd_db_readonly):
        w = generate_workload(tpcd_db_readonly, "U0-S-100")
        assert len(w) == 100

    def test_no_updates_when_zero(self, tpcd_db_readonly):
        w = generate_workload(tpcd_db_readonly, "U0-S-100")
        assert w.dml() == []

    def test_update_percent_approximate(self, tpcd_db_readonly):
        w = generate_workload(tpcd_db_readonly, "U50-S-1000")
        assert w.update_fraction == pytest.approx(0.5, abs=0.08)

    def test_simple_table_limit(self, tpcd_db_readonly):
        w = generate_workload(tpcd_db_readonly, "U0-S-100")
        assert max(len(q.tables) for q in w.queries()) <= 2

    def test_complex_reaches_more_tables(self, tpcd_db_readonly):
        w = generate_workload(tpcd_db_readonly, "U0-C-100")
        assert max(len(q.tables) for q in w.queries()) >= 4

    def test_deterministic_by_seed(self, tpcd_db_readonly):
        a = generate_workload(tpcd_db_readonly, "U0-S-100")
        b = generate_workload(tpcd_db_readonly, "U0-S-100")
        assert [str(s) for s in a] == [str(s) for s in b]

    def test_seed_changes_workload(self, tpcd_db_readonly):
        a = generate_workload(tpcd_db_readonly, "U0-S-100", seed=1)
        b = generate_workload(tpcd_db_readonly, "U0-S-100", seed=2)
        assert [str(s) for s in a] != [str(s) for s in b]

    def test_joins_connected(self, tpcd_db_readonly):
        """Multi-table queries always have a connected join graph."""
        w = generate_workload(tpcd_db_readonly, "U0-C-100")
        for query in w.queries():
            if len(query.tables) > 1:
                assert query.joins

    def test_literal_domains_sorted_once_per_column(
        self, tpcd_db_readonly, monkeypatch
    ):
        import numpy as np

        sorted_sizes = []
        unique = np.unique

        def counting_unique(arr, *args, **kwargs):
            sorted_sizes.append(arr.shape[0])
            return unique(arr, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        generate_workload(tpcd_db_readonly, "U25-S-300")
        columns = sum(
            len(tpcd_db_readonly.table(name).schema.columns)
            for name in tpcd_db_readonly.table_names()
        )
        assert 0 < len(sorted_sizes) <= columns

    def test_literal_domain_follows_a_replaced_column(self, fresh_tpcd_db):
        import numpy as np

        from repro.catalog import ColumnRef

        db = fresh_tpcd_db()
        generator = RagsGenerator(db, RagsConfig())
        ref = ColumnRef("part", "p_size")
        data = db.table("part")
        before = data.column_array("p_size")
        domain = generator._domain(ref, before)
        assert generator._domain(ref, before) is domain
        db.update("part", np.ones(data.row_count, dtype=bool), {"p_size": 99})
        after = generator._domain(ref, data.column_array("p_size"))
        assert after.tolist() == [99]

    def test_empty_database_rejected(self):
        from repro.storage import Database

        from tests.util import simple_schema

        with pytest.raises(WorkloadError):
            RagsGenerator(Database(simple_schema()), RagsConfig())

    def test_all_queries_optimizable_and_executable(self, fresh_tpcd_db):
        """Every generated query must survive the full pipeline."""
        db = fresh_tpcd_db()
        w = generate_workload(db, "U0-C-100")
        opt, exe = Optimizer(db), Executor(db)
        for query in w.queries()[:25]:
            result = opt.optimize(query)
            executed = exe.execute(result.plan, query)
            assert executed.actual_cost >= 0

    def test_having_clauses_generated(self, tpcd_db_readonly):
        from repro.workload.rags import RagsConfig, RagsGenerator

        config = RagsConfig(
            statements=200,
            group_by_probability=1.0,
            having_probability=1.0,
        )
        w = RagsGenerator(tpcd_db_readonly, config).generate()
        with_having = [q for q in w.queries() if q.having]
        assert with_having
        for query in with_having:
            assert query.group_by

    def test_having_queries_run_end_to_end(self, fresh_tpcd_db):
        from repro.workload.rags import RagsConfig, RagsGenerator

        db = fresh_tpcd_db()
        config = RagsConfig(
            statements=30,
            group_by_probability=1.0,
            having_probability=1.0,
        )
        w = RagsGenerator(db, config).generate()
        opt, exe = Optimizer(db), Executor(db)
        for query in [q for q in w.queries() if q.having][:5]:
            result = exe.execute(opt.optimize(query).plan, query)
            assert result.actual_cost >= 0

    def test_dml_statements_applicable(self, fresh_tpcd_db):
        from repro.executor.dml import apply_dml

        db = fresh_tpcd_db()
        w = generate_workload(db, "U50-S-100")
        for stmt in w.dml()[:20]:
            apply_dml(db, stmt)  # must not raise

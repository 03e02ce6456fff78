"""Tests for repro.experiments — the table/figure runners."""

import pytest

from repro.core.mnsa import MnsaConfig
from repro.experiments import (
    default_database_factory,
    run_figure3,
    run_figure4,
    run_intro_experiment,
    run_single_column_mnsa,
    run_table1,
)
from repro.experiments.common import (
    format_table,
    percent_increase,
    percent_reduction,
    workload_execution_cost,
)


@pytest.fixture(scope="module")
def factory():
    return default_database_factory(scale=0.002, seed=11)


class TestCommonHelpers:
    def test_percent_reduction(self):
        assert percent_reduction(100.0, 60.0) == pytest.approx(40.0)

    def test_percent_reduction_zero_baseline(self):
        assert percent_reduction(0.0, 50.0) == 0.0

    def test_percent_increase(self):
        assert percent_increase(100.0, 103.0) == pytest.approx(3.0)

    def test_percent_increase_zero_baseline(self):
        assert percent_increase(0.0, 5.0) == 0.0

    def test_format_table(self):
        """A markdown table: EXPERIMENTS.md pastes it in verbatim."""
        text = format_table(["a", "bb"], [["1", "2222"]])
        assert text.splitlines() == [
            "| a   | bb   |",
            "| --- | ---- |",
            "| 1   | 2222 |",
        ]

    def test_workload_execution_cost_positive(self, factory):
        from repro.workload import generate_workload

        db = factory(0.0)
        queries = generate_workload(db, "U0-S-100").queries()[:3]
        assert workload_execution_cost(db, queries) > 0

    def test_factory_produces_identical_databases(self, factory):
        a, b = factory(2.0), factory(2.0)
        assert (
            a.table("orders").column_array("o_totalprice")
            == b.table("orders").column_array("o_totalprice")
        ).all()


class TestIntroRunner:
    def test_shape(self, factory):
        result = run_intro_experiment(factory(2.0))
        assert len(result.query_ids) == 17
        assert len(result.plan_changed) == 17
        assert 0 <= result.changed_count <= 17
        assert result.total_cost_after <= result.total_cost_before * 1.02


class TestFigure3Runner:
    def test_shape(self, factory):
        result = run_figure3(factory, 2.0, max_queries=10)
        assert result.heuristic_count < result.exhaustive_count
        assert result.heuristic_creation_cost < (
            result.exhaustive_creation_cost
        )
        assert 0 < result.creation_reduction_percent < 100


class TestFigure4Runner:
    def test_shape(self, factory):
        result = run_figure4(factory, 2.0, max_queries=10)
        assert result.mnsa_created_count <= result.candidate_count
        assert result.mnsa_creation_cost <= result.all_creation_cost * 1.1

    def test_huge_t_maximizes_savings(self, factory):
        loose = run_figure4(
            factory, 2.0, max_queries=10, config=MnsaConfig(t_percent=1e9)
        )
        assert loose.mnsa_created_count == 0

    def test_single_column_mode(self, factory):
        result = run_single_column_mnsa(factory, 2.0, max_queries=10)
        assert result.mnsa_created_count <= result.candidate_count


class TestTable1Runner:
    def test_shape(self, factory):
        result = run_table1(
            factory, 2.0, workload_name="U25-S-100", max_queries=10
        )
        assert result.mnsad_update_cost <= result.mnsa_update_cost
        assert result.mnsad_stat_count <= result.mnsa_stat_count
        assert result.update_cost_reduction_percent >= 0

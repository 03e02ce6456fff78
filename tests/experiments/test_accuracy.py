"""Tests for repro.experiments.accuracy and the statistics ablations."""

import pytest

from repro.experiments.accuracy import AccuracyReport, estimation_accuracy
from repro.feedback.observation import q_error
from repro.experiments import (
    default_database_factory,
    run_aging_experiment,
    run_histogram_kind_ablation,
    run_sampling_ablation,
)


@pytest.fixture(scope="module")
def factory():
    return default_database_factory(scale=0.002, seed=11)


class TestQError:
    def test_perfect(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_floor_at_one_row(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0, 10) == 10.0

    def test_report_geomean(self):
        report = AccuracyReport(q_errors=[1.0, 4.0])
        assert report.geometric_mean == pytest.approx(2.0)
        assert report.max_error == 4.0

    def test_empty_report(self):
        report = AccuracyReport(q_errors=[])
        assert report.geometric_mean == 1.0
        assert report.max_error == 1.0


class TestEstimationAccuracy:
    def test_statistics_improve_accuracy(self, factory):
        """The mechanism behind every paper figure: statistics reduce the
        cardinality estimation error."""
        from repro.core.candidates import workload_candidate_statistics
        from repro.workload import generate_workload

        db = factory(2.0)
        queries = generate_workload(db, "U0-S-100").queries()[:12]
        before = estimation_accuracy(db, queries)
        for key in workload_candidate_statistics(queries):
            db.stats.create(key)
        after = estimation_accuracy(db, queries)
        assert after.geometric_mean <= before.geometric_mean

    def test_report_length_matches_queries(self, factory):
        from repro.workload import generate_workload

        db = factory(0.0)
        queries = generate_workload(db, "U0-S-100").queries()[:5]
        assert len(estimation_accuracy(db, queries).q_errors) == 5


class TestStatisticsAblations:
    def test_histogram_kind_rows(self, factory):
        rows = run_histogram_kind_ablation(factory, 2.0, max_queries=8)
        kinds = {r.kind for r in rows}
        assert kinds == {"maxdiff", "equi_depth"}
        for row in rows:
            assert row.q_error_geomean >= 1.0

    def test_sampling_cost_monotone(self, factory):
        rows = run_sampling_ablation(
            factory, 2.0, sample_settings=(None, 500), max_queries=8
        )
        assert rows[0].creation_cost > rows[1].creation_cost

    def test_aging_rows(self, factory):
        without, with_aging = run_aging_experiment(
            factory, 2.0, repeats=1
        )
        assert not without.aging_enabled
        assert with_aging.aging_enabled
        assert with_aging.creation_cost <= without.creation_cost * 1.05

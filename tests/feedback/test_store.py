"""Tests for repro.feedback.store — trackers and the bounded store."""

import threading

import pytest

from repro.errors import ServiceError
from repro.feedback.observation import (
    FeedbackKey,
    OperatorObservation,
    q_error,
)
from repro.feedback.store import (
    FeedbackStore,
    QErrorTracker,
    worst_plan_q_error,
)
from repro.service.metrics import MetricsRegistry


def table_q_error(store, table):
    """Largest decayed q-error the store attributes to ``table``."""
    return max(
        [1.0]
        + [
            aggregate["decayed_q_error"]
            for key, aggregate in store.snapshot()
            if key.table == table
        ]
    )


def obs(table, columns, estimated, actual, operator="scan"):
    """A one-target observation with its q-error precomputed."""
    return OperatorObservation(
        operator=operator,
        tables=(table,),
        targets=(FeedbackKey.of(table, columns),),
        estimated_rows=float(estimated),
        actual_rows=int(actual),
        q_error=q_error(estimated, actual),
    )


class TestQErrorTracker:
    def test_initial_aggregates(self):
        tracker = QErrorTracker()
        assert tracker.count == 0
        assert tracker.max_q_error == 1.0
        assert tracker.decayed_q_error == 1.0
        assert tracker.p95_q_error() == 1.0

    def test_record_updates_aggregates(self):
        tracker = QErrorTracker()
        tracker.absorb(obs("emp", ["age"], 1000, 10))
        assert tracker.count == 1
        assert tracker.max_q_error == 100.0
        assert tracker.decayed_q_error == 100.0
        assert tracker.last_estimated == 1000.0
        assert tracker.last_actual == 10

    def test_decay_washes_out_old_errors(self):
        tracker = QErrorTracker(decay=0.5)
        tracker.absorb(obs("emp", ["age"], 64, 1))  # q = 64
        for _ in range(5):
            tracker.absorb(obs("emp", ["age"], 10, 10))  # accurate
        # 64 * 0.5^5 = 2, but the all-time max is untouched
        assert tracker.decayed_q_error == pytest.approx(2.0)
        assert tracker.max_q_error == 64.0

    def test_decayed_never_drops_below_latest_error(self):
        tracker = QErrorTracker(decay=0.5)
        tracker.absorb(obs("emp", ["age"], 10, 10))
        tracker.absorb(obs("emp", ["age"], 80, 10))
        assert tracker.decayed_q_error == 8.0

    def test_p95_over_recent_window(self):
        tracker = QErrorTracker()
        for q in range(1, 101):
            tracker.absorb(obs("emp", ["age"], q, 1))
        # window holds the last 64 errors: 37..100
        assert tracker.p95_q_error() == pytest.approx(97.0)

    def test_invalid_decay_rejected(self):
        with pytest.raises(ServiceError):
            QErrorTracker(decay=0.0)
        with pytest.raises(ServiceError):
            QErrorTracker(decay=1.5)


class TestFeedbackStore:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServiceError):
            FeedbackStore(capacity=0)

    def test_record_tracks_per_target(self):
        store = FeedbackStore()
        store.record_all([obs("emp", ["age"], 100, 10)])
        store.record_all([obs("emp", ["age"], 100, 10)])
        store.record_all([obs("dept", ["budget"], 10, 10)])
        assert len(store) == 2
        assert store.counters()["observations"] == 3
        assert table_q_error(store, "emp") == 10.0
        assert table_q_error(store, "dept") == 1.0
        assert table_q_error(store, "unseen") == 1.0

    def test_lru_eviction_keeps_recently_observed(self):
        store = FeedbackStore(capacity=2)
        store.record_all([obs("a", ["x"], 10, 1)])
        store.record_all([obs("b", ["x"], 10, 1)])
        store.record_all([obs("a", ["x"], 10, 1)])  # refresh a's recency
        store.record_all([obs("c", ["x"], 10, 1)])  # evicts b, not a
        assert store.counters()["evicted"] == 1
        assert table_q_error(store, "a") == 10.0
        assert table_q_error(store, "b") == 1.0
        assert table_q_error(store, "c") == 10.0

    def test_q_error_for_columns_requires_overlap(self):
        store = FeedbackStore()
        store.record_all([obs("emp", ["age", "salary"], 100, 1)])
        assert store.q_error_for_columns("emp", ["age"]) == 100.0
        assert store.q_error_for_columns("emp", ["dept_id"]) == 1.0
        assert store.q_error_for_columns("dept", ["age"]) == 1.0

    def test_tables_by_error_worst_first_name_tiebreak(self):
        store = FeedbackStore()
        store.record_all([obs("b", ["x"], 50, 1)])
        store.record_all([obs("a", ["x"], 50, 1)])
        store.record_all([obs("c", ["x"], 200, 1)])
        store.record_all([obs("d", ["x"], 2, 1)])
        assert store.tables_by_error(threshold=4.0) == ["c", "a", "b"]
        assert store.tables_by_error(threshold=300.0) == []

    def test_reset_table_clears_only_that_table(self):
        store = FeedbackStore()
        store.record_all([obs("emp", ["age"], 100, 1)])
        store.record_all([obs("emp", ["salary"], 100, 1)])
        store.record_all([obs("dept", ["budget"], 100, 1)])
        assert store.invalidate("emp") == 2
        assert table_q_error(store, "emp") == 1.0
        assert table_q_error(store, "dept") == 100.0
        assert store.counters()["resets"] == 2

    def test_reset_columns_clears_overlapping_targets(self):
        store = FeedbackStore()
        store.record_all([obs("emp", ["age", "salary"], 100, 1)])
        store.record_all([obs("emp", ["dept_id"], 100, 1)])
        assert store.invalidate("emp", ["age"]) == 1
        assert store.q_error_for_columns("emp", ["salary"]) == 1.0
        assert store.q_error_for_columns("emp", ["dept_id"]) == 100.0

    def test_snapshot_sorted_worst_first(self):
        store = FeedbackStore()
        store.record_all([obs("emp", ["age"], 100, 1)])
        store.record_all([obs("dept", ["budget"], 5, 1)])
        rows = store.snapshot()
        assert [str(key) for key, _ in rows] == ["emp.age", "dept.budget"]
        assert rows[0][1]["count"] == 1
        assert rows[0][1]["max_q_error"] == 100.0
        assert rows[0][1]["last_actual"] == 1

    def test_metrics_gauges_published(self):
        metrics = MetricsRegistry()
        store = FeedbackStore(metrics=metrics)
        store.record_all([obs("emp", ["age"], 100, 1)])
        assert metrics.gauge_value("feedback.observations") == 1
        assert metrics.gauge_value("feedback.tracked_targets") == 1
        assert metrics.gauge_value("feedback.worst_q_error") == 100.0
        store.invalidate("emp")
        assert metrics.gauge_value("feedback.tracked_targets") == 0
        assert metrics.gauge_value("feedback.worst_q_error") == 1.0

    def test_record_all_publishes_once_what_single_records_publish(
        self, monkeypatch
    ):
        """One executed plan's observations fold under one lock hold and
        one gauge publication; the gauges a reader sees afterwards are
        those of n single-observation ``record_all`` calls (capacity 2:
        evictions too)."""
        batch = [
            obs("emp", ["age"], 100, 1),
            obs("dept", ["budget"], 5, 1),
            obs("emp", ["salary"], 3, 30),
            obs("emp", ["age"], 10, 10),
        ]
        gauges = (
            "feedback.observations",
            "feedback.tracked_targets",
            "feedback.evicted",
            "feedback.worst_q_error",
        )
        single_metrics = MetricsRegistry()
        single = FeedbackStore(capacity=2, metrics=single_metrics)
        for observation in batch:
            single.record_all([observation])
        batched_metrics = MetricsRegistry()
        batched = FeedbackStore(capacity=2, metrics=batched_metrics)
        published = []
        publish = FeedbackStore._publish_metrics
        monkeypatch.setattr(
            FeedbackStore,
            "_publish_metrics",
            lambda self: published.append(1) or publish(self),
        )
        batched.record_all(batch)
        assert published == [1]
        for name in gauges:
            assert batched_metrics.gauge_value(name) == (
                single_metrics.gauge_value(name)
            )
        assert batched_metrics.gauge_value("feedback.evicted") == 2
        assert batched.snapshot() == single.snapshot()
        batched.record_all([])
        assert published == [1]

    def test_worst_q_error_across_targets(self):
        store = FeedbackStore()
        assert store.worst_q_error() == 1.0
        store.record_all([obs("emp", ["age"], 100, 1)])
        store.record_all([obs("dept", ["budget"], 5, 1)])
        assert store.worst_q_error() == 100.0


class TestConcurrentFeedReadInvalidate:
    def test_one_lock_keeps_the_views_consistent(self):
        """Feeders, a reader of both views and an invalidator share one
        small learning store: nothing raises, the version never moves
        backwards, every observation is counted, and the bound holds."""
        store = FeedbackStore(capacity=4, corrections=True)
        columns = (["a"], ["b"], ["a", "b"], ["c"])
        rounds = 150
        errors = []
        seen_versions = []

        def guard(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # surfaced by the assert
                    errors.append(exc)

            return run

        def feed(table):
            for i in range(rounds):
                store.record_all(
                    [
                        obs(table, columns[i % 4], 10, 10 + 97 * (i % 7)),
                        obs(table, columns[(i + 1) % 4], 5, 1, "join"),
                    ]
                )

        def read():
            for _ in range(rounds):
                seen_versions.append(store.version)
                store.correct_filter("t0", ["a"], 0.5)
                store.correct_join("t0", ["b"], "t1", ["a"], 0.5)
                store.correct_group("t1", ["c"], 0.5)
                store.q_error_for_columns("t1", ["a"])
                store.tables_by_error(2.0)
                store.snapshot()

        def invalidate():
            for i in range(rounds):
                store.invalidate("t0" if i % 2 else "t1")
                store.invalidate("t0", ["a"])

        threads = [
            threading.Thread(target=guard(body))
            for body in (
                lambda: feed("t0"),
                lambda: feed("t1"),
                read,
                invalidate,
            )
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert seen_versions == sorted(seen_versions)
        counters = store.counters()
        assert counters["observations"] == 2 * 2 * rounds
        assert counters["tracked"] <= 4
        assert counters["version"] >= 2 * rounds  # invalidations bump
        assert counters["hits"] + counters["misses"] == 3 * rounds


class TestWorstPlanQError:
    def test_only_targeted_operators_count(self):
        targeted = obs("emp", ["age"], 100, 1)
        sort = OperatorObservation(
            operator="sort",
            tables=("emp",),
            targets=(),
            estimated_rows=1.0,
            actual_rows=100_000,
            q_error=q_error(1.0, 100_000),
        )
        assert worst_plan_q_error([targeted, sort]) == 100.0
        assert worst_plan_q_error([sort]) == 1.0
        assert worst_plan_q_error([]) == 1.0

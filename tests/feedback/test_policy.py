"""Tests for repro.feedback.policy — refresh/ re-tune decision logic."""

import pytest

from repro.config import RefreshPolicy
from repro.errors import ServiceError
from repro.feedback import FeedbackPolicy, FeedbackStore
from repro.feedback.observation import (
    FeedbackKey,
    OperatorObservation,
    q_error,
)
from repro.stats.statistic import StatKey

from tests.util import simple_db


class FakeStats:
    """Duck-typed stats manager with a fixed churn picture.

    ``churn_due`` are the tables past the churn trigger;
    ``churned_at_all`` additionally holds tables with *any* modified
    rows (the hybrid policy's acceleration set).
    """

    def __init__(self, churn_due, churned_at_all=None):
        self.churn_due = list(churn_due)
        self.churned_at_all = list(churned_at_all or churn_due)

    def tables_needing_refresh(self, fraction):
        if fraction <= 1e-9:
            return list(self.churned_at_all)
        return list(self.churn_due)


def record(store, table, estimated, actual, columns=("x",)):
    observation = OperatorObservation(
        operator="scan",
        tables=(table,),
        targets=(FeedbackKey.of(table, columns),),
        estimated_rows=float(estimated),
        actual_rows=int(actual),
        q_error=q_error(estimated, actual),
    )
    store.record_all([observation])


def make_policy(refresh_policy, store=None, **kwargs):
    return FeedbackPolicy(
        store if store is not None else FeedbackStore(),
        refresh_policy=refresh_policy,
        **kwargs,
    )


class TestValidation:
    def test_refresh_threshold_below_one_rejected(self):
        with pytest.raises(ServiceError):
            make_policy(RefreshPolicy.QERROR, refresh_threshold=0.5)

    def test_retune_below_refresh_rejected(self):
        with pytest.raises(ServiceError):
            make_policy(
                RefreshPolicy.QERROR,
                refresh_threshold=8.0,
                retune_threshold=4.0,
            )


class TestTablesDue:
    def test_churn_policy_is_the_raw_trigger(self):
        policy = make_policy(RefreshPolicy.CHURN)
        stats = FakeStats(churn_due=["emp", "dept"])
        assert policy.tables_due(stats, 0.2) == ["emp", "dept"]

    def test_qerror_filters_churn_due_by_error(self):
        store = FeedbackStore()
        record(store, "emp", 1000, 10)  # q = 100, flagged
        record(store, "dept", 10, 10)  # accurate, not flagged
        policy = make_policy(RefreshPolicy.QERROR, store)
        stats = FakeStats(churn_due=["emp", "dept"])
        # dept churned but its estimates were fine: deferred
        assert policy.tables_due(stats, 0.2) == ["emp"]

    def test_qerror_never_refreshes_unmodified_tables(self):
        store = FeedbackStore()
        record(store, "emp", 1000, 10)
        policy = make_policy(RefreshPolicy.QERROR, store)
        # error on a table with no churn is estimation-model bias;
        # a refresh cannot fix it
        assert policy.tables_due(FakeStats(churn_due=[]), 0.2) == []

    def test_hybrid_accelerates_and_keeps_the_churn_floor(self):
        store = FeedbackStore()
        record(store, "a", 1000, 1)  # q = 1000, churn-due
        record(store, "b", 100, 1)  # q = 100, churned a little
        record(store, "c", 50, 1)  # q = 50, never modified
        policy = make_policy(RefreshPolicy.HYBRID, store)
        stats = FakeStats(
            churn_due=["a", "d"], churned_at_all=["a", "b", "d"]
        )
        # flagged churn-due first, then error-accelerated (b: churned
        # but below the trigger; c stays out: unmodified), then the
        # churn remainder (d: due but no observed error)
        assert policy.tables_due(stats, 0.2) == ["a", "b", "d"]


class TestShouldRetune:
    def test_below_threshold_never_retunes(self):
        policy = make_policy(RefreshPolicy.QERROR, retune_threshold=10.0)
        assert not policy.should_retune(9.9, ("sig",), 1)

    def test_granted_once_per_signature_and_epoch(self):
        policy = make_policy(RefreshPolicy.QERROR, retune_threshold=10.0)
        assert policy.should_retune(50.0, ("sig",), 1)
        # same plan, same statistics: the re-tune is already queued
        assert not policy.should_retune(50.0, ("sig",), 1)
        # statistics changed since the grant: eligible again
        assert policy.should_retune(50.0, ("sig",), 2)
        # a different plan is independent
        assert policy.should_retune(50.0, ("other",), 2)


class TestRebuildTargets:
    def test_visible_overlapping_stats_worst_first(self):
        db = simple_db()
        db.stats.create(StatKey("emp", ("age",)))
        db.stats.create(StatKey("emp", ("salary",)))
        db.stats.create(StatKey("emp", ("dept_id",)))
        db.stats.mark_droppable(StatKey("emp", ("dept_id",)))
        store = FeedbackStore()
        record(store, "emp", 1000, 10, columns=("age",))  # q = 100
        record(store, "emp", 100, 10, columns=("salary",))  # q = 10
        record(store, "emp", 1000, 1, columns=("dept_id",))  # drop-listed
        policy = make_policy(RefreshPolicy.QERROR, store)
        targets = policy.rebuild_targets(db.stats, ["emp", "dept"])
        # drop-listed dept_id is excluded despite its huge error
        assert [(key, round(error)) for key, error in targets] == [
            (StatKey("emp", ("age",)), 100),
            (StatKey("emp", ("salary",)), 10),
        ]

    def test_accurate_statistics_are_not_rebuilt(self):
        db = simple_db()
        db.stats.create(StatKey("emp", ("age",)))
        store = FeedbackStore()
        record(store, "emp", 10, 10, columns=("age",))
        policy = make_policy(RefreshPolicy.QERROR, store)
        assert policy.rebuild_targets(db.stats, ["emp"]) == []

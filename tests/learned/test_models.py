"""Tests for the correction factors the feedback store learns per
(target, kind): debiased EWMA with publish hysteresis."""

import math

import pytest

from repro.errors import ServiceError
from repro.feedback import FeedbackKey, FeedbackStore, OperatorObservation
from repro.feedback.store import DRIFT

EMP_AGE = FeedbackKey.of("emp", ("age",))
EMP_SALARY = FeedbackKey.of("emp", ("salary",))
DEPT_ID = FeedbackKey.of("dept", ("id",))

_OPERATOR = {"filter": "scan", "join": "join", "group": "aggregate"}


def learning_store(**kwargs) -> FeedbackStore:
    return FeedbackStore(corrections=True, **kwargs)


def absorb(store, key, kind, log_ratio) -> bool:
    """Feed one ``kind`` observation on ``key`` whose log(actual /
    estimated) is ``log_ratio``; ``True`` iff the version moved."""
    actual = 10**6
    estimated = actual / math.exp(log_ratio)
    version = store.version
    store.record_all(
        [
            OperatorObservation(
                operator=_OPERATOR[kind],
                tables=(key.table,),
                targets=(key,),
                estimated_rows=estimated,
                actual_rows=actual,
                q_error=math.exp(abs(log_ratio)),
            )
        ]
    )
    return store.version != version


def factor(store, key, kind):
    """The published factor of ``(key, kind)``, or ``None``."""
    for tracked, aggregates in store.snapshot():
        if tracked == key:
            return aggregates["factors"].get(kind)
    return None


class TestEwmaHysteresis:
    def test_first_observation_publishes_exactly(self):
        """The debiased EWMA equals the first observation instead of
        being shrunk toward zero by the decay."""
        store = learning_store(correction_decay=0.8)
        assert absorb(store, EMP_AGE, "filter", math.log(4.0))
        assert factor(store, EMP_AGE, "filter") == pytest.approx(4.0)
        assert store.correct_filter("emp", ("age",), 0.01) == (
            pytest.approx(0.04)
        )

    def test_repeats_within_the_drift_band_do_not_republish(self):
        store = learning_store(correction_decay=0.8)
        assert absorb(store, EMP_AGE, "filter", 1.0)
        # the same ratio again: the effective estimate does not move
        assert not absorb(store, EMP_AGE, "filter", 1.0)
        assert not absorb(store, EMP_AGE, "filter", 1.0 + DRIFT / 4)
        assert store.version == 1

    def test_sustained_drift_republishes(self):
        store = learning_store(correction_decay=0.8)
        absorb(store, EMP_AGE, "filter", 1.0)
        published = [
            absorb(store, EMP_AGE, "filter", 3.0) for _ in range(6)
        ]
        assert any(published)
        assert store.version == 1 + sum(published)
        assert factor(store, EMP_AGE, "filter") > math.e  # moved past e^1

    def test_small_noise_never_publishes(self):
        store = learning_store(correction_decay=0.8)
        ratios = [0.01, -0.02, 0.015, -0.005, 0.0]
        assert not any(
            absorb(store, EMP_AGE, "filter", r) for r in ratios
        )
        # nothing published: the factor stays identity
        assert factor(store, EMP_AGE, "filter") == pytest.approx(1.0)
        assert store.version == 0


class TestSlotMechanics:
    def test_kinds_do_not_bleed_into_each_other(self):
        store = learning_store()
        absorb(store, EMP_AGE, "join", math.log(8.0))
        assert factor(store, EMP_AGE, "filter") is None
        assert factor(store, EMP_AGE, "join") == pytest.approx(8.0)
        assert store.correct_filter("emp", ("age",), 0.01) == 0.01

    def test_trim_evicts_least_recently_observed(self):
        store = learning_store(capacity=2)
        absorb(store, EMP_AGE, "filter", 1.0)
        absorb(store, EMP_SALARY, "filter", 1.0)
        absorb(store, EMP_AGE, "filter", 1.0)  # refresh recency
        absorb(store, DEPT_ID, "join", 1.0)  # evicts emp.salary
        assert store.counters()["evicted"] == 1
        assert factor(store, EMP_SALARY, "filter") is None
        assert factor(store, EMP_AGE, "filter") is not None

    def test_drop_table_sweeps_only_that_table(self):
        store = learning_store()
        absorb(store, EMP_AGE, "filter", 1.0)
        absorb(store, EMP_SALARY, "join", 1.0)
        absorb(store, DEPT_ID, "join", 1.0)
        assert store.invalidate("emp") == 2
        assert len(store) == 1
        assert store.counters()["invalidations"] == 2
        assert factor(store, DEPT_ID, "join") is not None

    def test_snapshot_orders_strongest_corrections_first(self):
        store = learning_store()
        absorb(store, EMP_AGE, "filter", 0.5)
        absorb(store, EMP_SALARY, "filter", -2.0)
        rows = store.snapshot()
        assert [str(row[0]) for row in rows] == ["emp.salary", "emp.age"]
        _key, aggregates = rows[0]
        assert aggregates["factors"] == {
            "filter": pytest.approx(math.exp(-2.0))
        }
        assert aggregates["count"] == 1


class TestValidation:
    def test_bad_decay_raises(self):
        with pytest.raises(ServiceError):
            learning_store(correction_decay=1.0)
        with pytest.raises(ServiceError):
            learning_store(correction_decay=0.0)

"""Tests for the feedback store's correction view (learned corrections
in repro.feedback.store)."""

import pytest

from repro.errors import ServiceError
from repro.feedback import (
    FeedbackKey,
    FeedbackStore,
    OperatorObservation,
    q_error,
)
from repro.service.metrics import MetricsRegistry


def observation(
    operator="scan",
    table="emp",
    columns=("age",),
    estimated=10.0,
    actual=1000,
):
    return OperatorObservation(
        operator=operator,
        tables=(table,),
        targets=(FeedbackKey.of(table, columns),),
        estimated_rows=estimated,
        actual_rows=actual,
        q_error=q_error(estimated, actual),
    )


def learning_store(**kwargs) -> FeedbackStore:
    """A feedback store that learns corrections."""
    return FeedbackStore(corrections=True, **kwargs)


def observe(store, obs) -> bool:
    """Feed one observation; ``True`` iff the version moved."""
    version = store.version
    store.record_all([obs])
    return store.version != version


class TestObserve:
    def test_misestimate_trains_and_bumps_version(self):
        store = learning_store()
        assert observe(store, observation()) is True
        assert store.version == 1
        assert len(store) == 1

    @pytest.mark.parametrize(
        "operator,kind",
        [
            ("scan", "filter"),
            ("seek", "filter"),
            ("join", "join"),
            ("aggregate", "group"),
        ],
    )
    def test_operator_kind_mapping(self, operator, kind):
        store = learning_store()
        observe(store, observation(operator=operator))
        ((_, aggregates),) = store.snapshot()
        assert list(aggregates["factors"]) == [kind]

    @pytest.mark.parametrize("operator", ["sort", "having"])
    def test_non_statistics_operators_are_ignored(self, operator):
        store = learning_store()
        assert observe(store, observation(operator=operator)) is False
        assert store.counters()["observations"] == 1
        ((_, aggregates),) = store.snapshot()
        assert aggregates["factors"] == {}
        assert store.version == 0

    def test_targetless_observation_is_ignored(self):
        store = learning_store()
        obs = OperatorObservation(
            operator="scan",
            tables=("emp",),
            targets=(),
            estimated_rows=1.0,
            actual_rows=100,
            q_error=100.0,
        )
        assert observe(store, obs) is False

    def test_eviction_beyond_capacity_bumps_version(self):
        store = learning_store(capacity=1)
        observe(store, observation(columns=("age",)))
        version = store.version
        # an accurate estimate publishes nothing: only evicting the
        # entry that held emp.age's factor moves the version
        accurate = observation(columns=("salary",), estimated=10.0, actual=10)
        assert observe(store, accurate)
        assert store.version == version + 1
        assert store.counters()["evicted"] == 1
        assert len(store) == 1
        # the entry held a factor, published or not; a sort trains none
        assert observe(store, observation(operator="sort"))
        # so evicting the sort's entry, which held no factor, moves nothing
        assert not observe(store, observation(operator="sort", columns=("x",)))
        assert store.counters()["evicted"] == 3

    def test_observe_all_counts_version_bumps(self):
        """One bump per observation whose published factor moved, even
        when one batch moves several factors."""
        store = learning_store()
        store.record_all(
            [
                observation(),
                observation(operator="sort"),
                observation(),  # same ratio: the factor stays put
                observation(columns=("salary",)),
            ]
        )
        assert store.version == 2


class TestCorrect:
    def test_underestimate_scales_the_selectivity_up(self):
        store = learning_store()
        observe(store, observation(estimated=10.0, actual=80))
        corrected = store.correct_filter("emp", ("age",), 0.001)
        assert corrected == pytest.approx(0.008, rel=1e-6)

    def test_observed_ratio_is_capped_at_max_factor(self):
        store = learning_store()  # max_factor 32
        observe(store, observation(estimated=10.0, actual=10**6))
        assert store.correct_filter(
            "emp", ("age",), 0.001
        ) == pytest.approx(0.032, rel=1e-6)

    def test_correction_respects_max_factor(self):
        store = learning_store(max_factor=4.0)
        observe(store, observation(estimated=1.0, actual=10**6))
        assert store.correct_filter(
            "emp", ("age",), 0.001
        ) == pytest.approx(0.004)

    def test_join_uses_geometric_mean_of_both_sides(self):
        store = learning_store()
        observe(store, 
            observation(
                operator="join",
                table="emp",
                columns=("dept_id",),
                estimated=10.0,
                actual=90,
            )
        )
        observe(store, 
            observation(
                operator="join",
                table="dept",
                columns=("id",),
                estimated=10.0,
                actual=40,
            )
        )
        # geomean(9, 4) = 6
        assert store.correct_join(
            "emp", ("dept_id",), "dept", ("id",), 0.01
        ) == pytest.approx(0.06, rel=1e-6)

    def test_join_with_one_known_side_uses_it_alone(self):
        store = learning_store()
        observe(store, 
            observation(
                operator="join",
                table="emp",
                columns=("dept_id",),
                estimated=10.0,
                actual=40,
            )
        )
        assert store.correct_join(
            "emp", ("dept_id",), "dept", ("id",), 0.01
        ) == pytest.approx(0.04, rel=1e-6)

    def test_empty_column_set_is_identity(self):
        store = learning_store()
        assert store.correct_filter("emp", (), 0.25) == 0.25
        assert store.correct_group("emp", (), 1.5) == 1.0  # clamped

    def test_hit_and_miss_counters(self):
        store = learning_store()
        store.correct_filter("emp", ("age",), 0.5)  # miss: untrained
        observe(store, observation())
        store.correct_filter("emp", ("age",), 0.5)  # hit
        counters = store.counters()
        assert counters["misses"] == 1
        assert counters["hits"] == 1

    def test_counters_shape(self):
        counters = learning_store().counters()
        assert set(counters) == {
            "observations",
            "tracked",
            "evicted",
            "resets",
            "hits",
            "misses",
            "invalidations",
            "version",
        }


class TestInvalidation:
    def test_invalidate_table_always_bumps_even_when_empty(self):
        store = learning_store()
        assert store.invalidate("emp") == 0
        assert store.version == 1


class TestConfigAndMetrics:
    def test_bad_capacity_raises(self):
        with pytest.raises(ServiceError):
            learning_store(capacity=0)

    def test_bad_max_factor_raises(self):
        with pytest.raises(ServiceError):
            learning_store(max_factor=1.0)

    def test_bad_decay_raises(self):
        with pytest.raises(ServiceError):
            learning_store(correction_decay=1.0)
        with pytest.raises(ServiceError):
            learning_store(correction_decay=0.0)

    def test_metrics_are_mirrored_under_registered_names(self):
        from repro.service.metric_names import METRICS

        registry = MetricsRegistry()
        store = learning_store(metrics=registry)
        observe(store, observation())
        store.correct_filter("emp", ("age",), 0.5)
        store.invalidate("emp")
        emitted = {
            name
            for name in registry.snapshot()
            if name.startswith("correction.")
        }
        assert emitted == {
            "correction.hits",
            "correction.misses",
            "correction.invalidations",
            "correction.version",
        }
        assert emitted <= set(METRICS)
        assert registry.gauge_value("correction.invalidations") == 1
        assert registry.gauge_value("correction.version") == 2

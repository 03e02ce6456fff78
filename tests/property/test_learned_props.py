"""Property tests for the feedback store's correction-view contracts.

Whatever the store has absorbed, the store's correction methods
must behave like selectivity functions: results stay in ``[0, 1]``, a
single correction never moves an estimate by more than the configured
``max_factor``, an untrained store is the identity (modulo clamping to
the unit interval), and a table invalidation restores the identity for
that table while the version only ever moves forward.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feedback import (
    FeedbackKey,
    FeedbackStore,
    OperatorObservation,
    q_error,
)

OPERATORS = ("scan", "seek", "join", "aggregate", "sort")
TABLES = ("emp", "dept", "orders")
COLUMNS = ("age", "salary", "dept_id", "name")


@st.composite
def observations(draw):
    operator = draw(st.sampled_from(OPERATORS))
    table = draw(st.sampled_from(TABLES))
    columns = draw(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3)
    )
    estimated = draw(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    )
    actual = draw(st.integers(min_value=0, max_value=10**6))
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


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestCorrectionBounds:
    @given(
        obs=st.lists(observations(), max_size=25),
        selectivity=unit,
        max_factor=st.floats(min_value=1.5, max_value=64.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_corrections_stay_in_unit_interval_and_factor_band(
        self, obs, selectivity, max_factor
    ):
        store = learning_store(max_factor=max_factor)
        store.record_all(obs)
        for table in TABLES:
            corrected = store.correct_filter(
                table, ("age", "salary"), selectivity
            )
            assert 0.0 <= corrected <= 1.0
            # a correction is a bounded multiplicative nudge
            assert corrected <= selectivity * max_factor + 1e-12
            assert corrected >= selectivity / max_factor - 1e-12
            grouped = store.correct_group(table, ("dept_id",), selectivity)
            assert 0.0 <= grouped <= 1.0
        joined = store.correct_join(
            "emp", ("dept_id",), "dept", ("id",), selectivity
        )
        assert 0.0 <= joined <= 1.0
        assert joined <= selectivity * max_factor + 1e-12
        assert joined >= selectivity / max_factor - 1e-12


class TestIdentityAndInvalidation:
    @given(selectivity=unit)
    @settings(max_examples=40, deadline=None)
    def test_untrained_store_is_the_identity(self, selectivity):
        store = learning_store()
        assert store.correct_filter("emp", ("age",), selectivity) == (
            pytest.approx(selectivity)
        )
        assert store.correct_join(
            "emp", ("dept_id",), "dept", ("id",), selectivity
        ) == pytest.approx(selectivity)
        assert store.correct_group(
            "emp", ("dept_id",), selectivity
        ) == pytest.approx(selectivity)
        assert store.version == 0

    @given(
        obs=st.lists(observations(), min_size=1, max_size=25),
        selectivity=unit,
    )
    @settings(max_examples=80, deadline=None)
    def test_invalidated_table_reverts_to_identity(
        self, obs, selectivity
    ):
        store = learning_store()
        store.record_all(obs)
        version_after_training = store.version
        for table in TABLES:
            store.invalidate(table)
        # a stats-epoch bump on every table drops every correction:
        # the store answers like a fresh one again
        for table in TABLES:
            for columns in (("age",), ("salary", "dept_id")):
                assert store.correct_filter(
                    table, columns, selectivity
                ) == pytest.approx(selectivity)
        assert len(store) == 0
        # the version is monotone: training never rewinds it and each
        # invalidation moves it strictly forward
        assert version_after_training >= 0
        assert store.version == version_after_training + len(TABLES)

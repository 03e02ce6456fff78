"""Tests for repro.core.mnsa (Figure 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.memory import MemoryBackend
from repro.catalog import ColumnRef
from repro.core.mnsa import MnsaConfig, MnsaResult, mnsa_for_query, mnsa_for_workload
from repro.core.mnsad import MnsadResult
from repro.core.candidates import candidate_statistics
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder
from repro.stats.statistic import StatKey

from tests.util import simple_db

AGE = ColumnRef("emp", "age")


def _join_query(db):
    return (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "=", 30)
        .build()
    )


class TestMnsaConfig:
    def test_paper_defaults(self):
        config = MnsaConfig()
        assert config.epsilon == 0.0005
        assert config.t_percent == 20.0

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            MnsaConfig(epsilon=0.7)

    def test_t_validated(self):
        with pytest.raises(ValueError):
            MnsaConfig(t_percent=-5)


class TestMnsaForQuery:
    def test_terminates_and_reports(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(backend, _join_query(db))
        assert result.stop_reason in (
            "insensitive",
            "no_missing_variables",
            "exhausted",
        )
        assert result.iterations >= 1
        assert result.optimizer_calls >= 2

    def test_created_statistics_exist(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(backend, _join_query(db))
        for key in result.created:
            assert db.stats.is_visible(key)

    def test_created_plus_skipped_cover_candidates(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        query = _join_query(db)
        candidates = candidate_statistics(query)
        result = mnsa_for_query(backend, query)
        assert set(result.created) | set(result.skipped) == set(candidates)

    def test_huge_t_builds_nothing(self, db):
        """With an enormous threshold every plan pair is equivalent."""
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(
            backend, _join_query(db), config=MnsaConfig(t_percent=1e9)
        )
        assert result.created == []
        assert result.stop_reason == "insensitive"

    def test_tiny_t_builds_everything_relevant(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        query = _join_query(db)
        result = mnsa_for_query(
            backend, query, config=MnsaConfig(t_percent=1e-9)
        )
        # all candidates get built (none can be proven irrelevant)
        assert set(result.created) == set(candidate_statistics(query))

    def test_existing_statistics_respected(self, db):
        db.stats.create(AGE)
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(backend, _join_query(db))
        assert StatKey.single(AGE) not in result.created

    def test_small_table_threshold_builds_outright(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        config = MnsaConfig(min_table_rows=10**9)
        query = _join_query(db)
        result = mnsa_for_query(backend, query, config=config)
        # every candidate is on a "small" table -> created without analysis
        assert set(result.created) == set(candidate_statistics(query))
        assert result.skipped == []

    def test_creation_cost_includes_optimizer_overhead(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(backend, _join_query(db))
        build_cost = sum(
            db.stats.get(key).build_cost for key in result.created
        )
        overhead = (
            result.optimizer_calls * backend.optimizer_call_cost
        )
        assert result.creation_cost == pytest.approx(build_cost + overhead)

    def test_explicit_candidates_used(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(
            backend, _join_query(db), candidates=[StatKey.single(AGE)]
        )
        assert set(result.created) <= {StatKey.single(AGE)}

    def test_rerun_is_noop(self, db):
        """Second MNSA run over the same query creates nothing new."""
        backend = MemoryBackend(db, Optimizer(db))
        query = _join_query(db)
        mnsa_for_query(backend, query)
        second = mnsa_for_query(backend, query)
        assert second.created == []


class TestMnsaExtensions:
    def test_execution_tree_mode_valid(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsa_for_query(
            backend,
            _join_query(db),
            config=MnsaConfig(equivalence="execution_tree"),
        )
        assert result.stop_reason in (
            "insensitive",
            "no_missing_variables",
            "exhausted",
        )

    def test_execution_tree_builds_at_least_as_many(self, db):
        """Execution-tree equivalence is the strictest criterion, so it
        never stops earlier than a loose t-cost criterion."""
        from tests.util import simple_db

        db_tree = simple_db()
        db_cost = simple_db()
        tree = mnsa_for_query(
            MemoryBackend(db_tree, Optimizer(db_tree)),
            _join_query(db_tree),
            config=MnsaConfig(equivalence="execution_tree"),
        )
        loose = mnsa_for_query(
            MemoryBackend(db_cost, Optimizer(db_cost)),
            _join_query(db_cost),
            config=MnsaConfig(t_percent=1e9),
        )
        assert len(tree.created) >= len(loose.created)

    def test_invalid_equivalence_rejected(self):
        with pytest.raises(ValueError):
            MnsaConfig(equivalence="banana")

    def test_invalid_cost_fraction_rejected(self):
        with pytest.raises(ValueError):
            MnsaConfig(min_query_cost_fraction=1.5)

    def test_cost_fraction_skips_cheap_queries(self, db):
        """Sec 6: only analyze queries carrying real workload cost."""
        backend = MemoryBackend(db, Optimizer(db))
        expensive = _join_query(db)
        cheap = QueryBuilder(db.schema).table("dept").build()
        config = MnsaConfig(min_query_cost_fraction=0.2)
        result = mnsa_for_workload(
            backend, [expensive, cheap], config=config
        )
        # the cheap dept-only query contributed no candidates
        assert all(key.table != "dept" or key.columns != ("id",)
                   for key in result.created) or result.created

    def test_cost_fraction_zero_keeps_all(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        q1 = _join_query(db)
        result = mnsa_for_workload(
            backend, [q1], config=MnsaConfig(min_query_cost_fraction=0.0)
        )
        assert result.iterations >= 1


class TestMnsaForWorkload:
    def test_merges_results(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        q1 = _join_query(db)
        q2 = QueryBuilder(db.schema).where("emp.salary", ">", 1.0).build()
        result = mnsa_for_workload(backend, [q1, q2])
        assert result.stop_reason == "workload"
        assert result.iterations >= 2

    def test_no_duplicate_creations(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        q1 = _join_query(db)
        q2 = _join_query(db)
        result = mnsa_for_workload(backend, [q1, q2])
        assert len(result.created) == len(set(result.created))


class TestMnsaResultMerge:
    def test_merge_accumulates(self):
        a = MnsaResult(
            created=[StatKey("t", ("a",))],
            iterations=2,
            optimizer_calls=5,
            creation_cost=10.0,
        )
        b = MnsaResult(
            created=[StatKey("t", ("b",))],
            skipped=[StatKey("t", ("c",))],
            iterations=1,
            optimizer_calls=3,
            creation_cost=4.0,
        )
        a.merge(b)
        assert len(a.created) == 2
        assert a.iterations == 3
        assert a.optimizer_calls == 8
        assert a.creation_cost == 14.0

    def test_merge_drops_skipped_that_were_created(self):
        a = MnsaResult(created=[StatKey("t", ("a",))])
        b = MnsaResult(skipped=[StatKey("t", ("a",))])
        a.merge(b)
        assert a.skipped == []


# ----------------------------------------------------------------------
# merge() against the list-scanning versions it replaced
# ----------------------------------------------------------------------


def _scan_merge_mnsa(total: MnsaResult, other: MnsaResult) -> None:
    for key in other.created:
        if key not in total.created:
            total.created.append(key)
    for key in other.skipped:
        if key not in total.skipped and key not in total.created:
            total.skipped.append(key)


def _scan_merge_mnsad(total, other) -> None:
    for name in ("created", "retained", "dropped"):
        ours = getattr(total, name)
        for key in getattr(other, name):
            if key not in ours:
                ours.append(key)
    total.dropped = [k for k in total.dropped if k not in total.retained]


_MERGE_KEYS = [StatKey("t", (name,)) for name in "abcdefgh"]
_key_lists = st.lists(st.sampled_from(_MERGE_KEYS), max_size=5, unique=True)


class TestMergeOrder:
    @given(st.lists(st.tuples(_key_lists, _key_lists), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_mnsa_merge_equals_list_scan(self, parts):
        merged, scanned = MnsaResult(), MnsaResult()
        for created, skipped in parts:
            merged.merge(MnsaResult(created=created, skipped=skipped))
            _scan_merge_mnsa(
                scanned, MnsaResult(created=created, skipped=skipped)
            )
            assert merged.created == scanned.created
            assert merged.skipped == scanned.skipped

    @given(
        st.lists(st.tuples(_key_lists, _key_lists, _key_lists), max_size=12)
    )
    @settings(max_examples=200, deadline=None)
    def test_mnsad_merge_equals_list_scan(self, parts):
        merged, scanned = MnsadResult(), MnsadResult()
        for created, retained, dropped in parts:
            lists = dict(created=created, retained=retained, dropped=dropped)
            merged.merge(MnsadResult(**lists))
            _scan_merge_mnsad(scanned, MnsadResult(**lists))
            assert merged.created == scanned.created
            assert merged.retained == scanned.retained
            assert merged.dropped == scanned.dropped

    def test_merge_into_a_result_whose_lists_were_appended_to(self):
        """A per-query result is filled by ``list.append``; using it as
        the accumulator afterwards must still see those keys."""
        a, b = _MERGE_KEYS[:2]
        total = MnsaResult()
        total.merge(MnsaResult(created=[a]))
        total.created.append(b)
        total.merge(MnsaResult(created=[b, a], skipped=[b]))
        assert total.created == [a, b]
        assert total.skipped == []

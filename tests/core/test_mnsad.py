"""Tests for repro.core.mnsad (Sec 5.1)."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.backends.memory import MemoryBackend
from repro.catalog import ColumnRef
from repro.core import mnsa
from repro.core.candidates import candidate_statistics
from repro.core.mnsa import MnsaConfig, MnsaResult, mnsa_for_workload
from repro.core.mnsad import mnsad_for_query, mnsad_for_workload
from repro.core.next_stat import find_next_stat_to_build
from repro.datagen import make_tpcd_database
from repro.optimizer import Optimizer
from repro.sql.builder import QueryBuilder
from repro.workload import generate_workload

from tests.util import plan_fingerprint, simple_db


def _join_query(db):
    return (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "=", 30)
        .build()
    )


class TestMnsadForQuery:
    def test_partitions_created(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsad_for_query(backend, _join_query(db))
        assert set(result.retained) | set(result.dropped) == set(
            result.created
        )
        assert not (set(result.retained) & set(result.dropped))

    def test_dropped_statistics_on_drop_list(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsad_for_query(backend, _join_query(db))
        for key in result.dropped:
            assert db.stats.is_droppable(key)
            assert not db.stats.is_visible(key)

    def test_retained_statistics_visible(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsad_for_query(backend, _join_query(db))
        for key in result.retained:
            assert db.stats.is_visible(key)

    def test_huge_t_creates_nothing(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        result = mnsad_for_query(
            backend, _join_query(db), config=MnsaConfig(t_percent=1e9)
        )
        assert result.created == []

    def test_drops_plan_preserving_statistics(self, db):
        """With tiny t, MNSA/D builds every candidate; the ones that never
        changed the plan must be on the drop-list."""
        backend = MemoryBackend(db, Optimizer(db))
        query = _join_query(db)
        result = mnsad_for_query(
            backend, query, config=MnsaConfig(t_percent=1e-9)
        )
        assert result.created
        # MNSA/D keeps only plan-changing statistics
        assert len(result.retained) <= len(result.created)


class TestDropCriterion:
    def test_invalid_criterion_rejected(self):
        with pytest.raises(ValueError):
            MnsaConfig(mnsad_drop_equivalence="banana")

    def test_t_cost_criterion_produces_valid_partition(self, fresh_tpcd_db):
        """The coarser t_cost criterion still yields a consistent
        retained/dropped partition (drop *counts* are not comparable
        across criteria per-run, because early drops change the
        trajectory of later queries)."""
        from repro.workload import generate_workload

        db = fresh_tpcd_db()
        queries = generate_workload(db, "U0-S-100").queries()[:10]
        result = mnsad_for_workload(
            MemoryBackend(db, Optimizer(db)),
            queries,
            config=MnsaConfig(mnsad_drop_equivalence="t_cost"),
        )
        assert set(result.retained) | set(result.dropped) == set(
            result.created
        )
        for key in result.dropped:
            assert db.stats.is_droppable(key)


class TestMnsadForWorkload:
    def test_retained_never_marked_droppable(self, db):
        backend = MemoryBackend(db, Optimizer(db))
        q1 = _join_query(db)
        q2 = QueryBuilder(db.schema).where("emp.age", "=", 30).build()
        result = mnsad_for_workload(backend, [q1, q2])
        for key in result.retained:
            assert not db.stats.is_droppable(key)

    def test_update_cost_not_higher_than_mnsa(self, db, fresh_tpcd_db):
        """The Table 1 claim in miniature: MNSA/D's retained set costs no
        more to keep updated than MNSA's set."""
        from repro.workload import generate_workload

        db_a = fresh_tpcd_db(scale=0.002, z=2.0)
        db_b = fresh_tpcd_db(scale=0.002, z=2.0)
        queries = generate_workload(db_a, "U0-S-100").queries()[:15]
        mnsa_for_workload(MemoryBackend(db_a, Optimizer(db_a)), queries)
        mnsad_for_workload(MemoryBackend(db_b, Optimizer(db_b)), queries)
        cost_mnsa = db_a.stats.update_cost_of_keys(db_a.stats.visible_keys())
        cost_mnsad = db_b.stats.update_cost_of_keys(
            db_b.stats.visible_keys()
        )
        assert cost_mnsad <= cost_mnsa

    def test_rerun_execution_cost_bounded(self, fresh_tpcd_db):
        """Dropping non-essential statistics must not blow up the
        workload's execution cost (paper: <= 6%; we allow slack)."""
        from repro.executor import Executor
        from repro.workload import generate_workload

        db = fresh_tpcd_db(scale=0.002, z=2.0)
        backend = MemoryBackend(db, Optimizer(db))
        exe = Executor(db)
        queries = generate_workload(db, "U0-S-100").queries()[:10]

        mnsa_cost = 0.0
        mnsad_cost = 0.0
        # arm 1: MNSA keeps everything
        from repro.core.mnsa import mnsa_for_workload as run_mnsa

        opt = backend.optimizer
        run_mnsa(backend, queries)
        for query in queries:
            mnsa_cost += exe.execute(
                opt.optimize(query).plan, query
            ).actual_cost

        # arm 2: MNSA/D on a fresh copy
        db2 = fresh_tpcd_db(scale=0.002, z=2.0)
        opt2, exe2 = Optimizer(db2), Executor(db2)
        mnsad_for_workload(MemoryBackend(db2, opt2), queries)
        for query in queries:
            mnsad_cost += exe2.execute(
                opt2.optimize(query).plan, query
            ).actual_cost

        assert mnsad_cost <= mnsa_cost * 1.5


# ----------------------------------------------------------------------
# MNSA/D honours every MnsaConfig knob MNSA does
# ----------------------------------------------------------------------


def _u25_c_30():
    database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
    return database, generate_workload(database, "U25-C-30", seed=7).queries()


class ProbeRecorder:
    """Delegates to ``backend`` and keeps the last probe's answer."""

    def __init__(self, backend):
        self._backend = backend
        self.last = None

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def probe(self, query, epsilon):
        self.last = self._backend.probe(query, epsilon)
        return self.last


class TestConfigHonoured:
    def test_execution_tree_equivalence(self):
        """Under execution-tree equivalence t plays no part: with t so
        large that every P_low / P_high pair is cost-equivalent, MNSA/D
        still builds until the two are one execution tree."""
        database, queries = _u25_c_30()
        recorder = ProbeRecorder(MemoryBackend(database))
        config = MnsaConfig(equivalence="execution_tree", t_percent=1e9)
        created = 0
        for query in queries:
            result = mnsad_for_query(recorder, query, config=config)
            created += len(result.created)
            if result.stop_reason == "insensitive":
                _missing, low, high = recorder.last
                assert low.signature == high.signature
        assert created > 0

    @pytest.mark.parametrize(
        "tune", [mnsa_for_workload, mnsad_for_workload], ids=["mnsa", "mnsad"]
    )
    def test_min_query_cost_fraction(self, tune):
        """Sec 6's filter: tuning with ``min_query_cost_fraction=0.2``
        decides what tuning only the queries carrying at least a fifth
        of the estimated workload cost does."""
        database, queries = _u25_c_30()
        filtered = tune(
            MemoryBackend(database),
            queries,
            config=MnsaConfig(min_query_cost_fraction=0.2),
        )
        database, queries = _u25_c_30()
        backend = MemoryBackend(database)
        costs = [backend.optimize_query(query).cost for query in queries]
        kept = [
            query
            for query, cost in zip(queries, costs)
            if cost >= 0.2 * sum(costs)
        ]
        assert 0 < len(kept) < len(queries)
        explicit = tune(backend, kept)
        assert filtered == explicit


# ----------------------------------------------------------------------
# the probe reused after a drop-listed group
# ----------------------------------------------------------------------


def _always_probe_mnsad_for_query(
    backend,
    query,
    candidates=None,
    config=MnsaConfig(),
    feedback=None,
):
    """The oracle: ``mnsad_for_query`` as it was when every iteration
    probed, kept verbatim."""
    result = MnsaResult()
    criterion = config.cost_criterion()
    drop_criterion = config.drop_criterion()
    calls_before = backend.optimizer_calls
    build_cost_before = backend.creation_cost_total

    if candidates is None:
        candidates = candidate_statistics(query, config.candidate_mode)
    remaining = [
        key for key in candidates if not backend.is_stat_visible(key)
    ]

    if config.min_table_rows > 0:
        for key in list(remaining):
            if backend.row_count(key.table) < config.min_table_rows:
                backend.create_stats(key)
                result.created.append(key)
                result.retained.append(key)
                remaining.remove(key)

    plan = backend.optimize_query(query)
    max_iterations = len(remaining) + 1
    for _ in range(max_iterations):
        result.iterations += 1
        missing, low, high = backend.probe(query, config.epsilon)
        if not missing:
            result.stop_reason = "no_missing_variables"
            break
        if criterion.costs_equivalent(low.cost, high.cost):
            result.stop_reason = "insensitive"
            break
        group = find_next_stat_to_build(
            plan.plan, query, remaining, feedback=feedback
        )
        if not group:
            result.stop_reason = "exhausted"
            break
        for key in group:
            backend.create_stats(key)
            result.created.append(key)
            remaining.remove(key)
        new_plan = backend.optimize_query(query)
        if drop_criterion.equivalent(new_plan, plan):
            # the new statistics changed nothing: heuristically non-essential
            for key in group:
                backend.mark_stat_droppable(key)
                result.dropped.append(key)
        else:
            result.retained.extend(group)
        plan = new_plan
    else:
        result.stop_reason = "iteration_limit"

    result.optimizer_calls = backend.optimizer_calls - calls_before
    build_cost = backend.creation_cost_total - build_cost_before
    result.creation_cost = build_cost + (
        result.optimizer_calls * backend.optimizer_call_cost
    )
    return result


class ReprobingSpy:
    """Delegates to ``backend`` and runs a real probe wherever MNSA/D
    reuses its last one.

    A reuse is the iteration after a drop-listed group.  It shows as the
    group's drop-listing followed by the next ``create_stats`` or, when
    that iteration finds nothing to build, by the end of the query
    (:meth:`query_ended`).  The real probe must answer exactly what the
    reused one did; the optimizer calls it spends are hidden from
    ``optimizer_calls``.
    """

    def __init__(self, backend):
        self._backend = backend
        self._probed = None  # (query, epsilon, answer) of the last probe
        self._drop_listed = False  # a group was drop-listed since then
        self._own_calls = 0
        self.reused = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    @property
    def optimizer_calls(self):
        return self._backend.optimizer_calls - self._own_calls

    def probe(self, query, epsilon):
        assert not self._drop_listed, "re-probed after a drop-listed group"
        answer = self._backend.probe(query, epsilon)
        self._probed = (query, epsilon, answer)
        return answer

    def mark_stat_droppable(self, key):
        self._backend.mark_stat_droppable(key)
        self._drop_listed = True

    def create_stats(self, key):
        self._check_reused_probe()
        self._backend.create_stats(key)

    def query_ended(self, result):
        if self._drop_listed:
            assert result.stop_reason == "exhausted"
            self._check_reused_probe()
        self._probed = None

    def _check_reused_probe(self):
        if not self._drop_listed:
            return
        self._drop_listed = False
        query, epsilon, (missing, low, high) = self._probed
        before = self._backend.optimizer_calls
        real_missing, real_low, real_high = self._backend.probe(
            query, epsilon
        )
        self._own_calls += self._backend.optimizer_calls - before
        assert real_missing == missing  # same variables, same order
        assert plan_fingerprint(real_low) == plan_fingerprint(low)
        assert plan_fingerprint(real_high) == plan_fingerprint(high)
        self.reused += 1


def assert_reused_probes_exact(backend_of, workload, run=mnsad_for_query):
    """Run ``run`` (MNSA/D) through a :class:`ReprobingSpy` and the
    always-probe oracle side by side, query by query, over ``workload``
    on two fresh scale-0.002 TPC-D databases wrapped by
    ``backend_of(database)``.  Returns how many probes ``run`` reused.

    Every reused probe equals a real one, and each query's decisions
    equal the oracle's at two optimizer calls fewer per reused probe.
    The online advisor gets the same guarantee: an ``AdvisorWorker``
    analysis holds the statement locks of the query's tables throughout,
    so no DML or statistics change lands between a probe and its reuse,
    and it reads the learned-correction version once, for its verdict
    key.  A reused probe is consistent with that key.
    """
    oracle_database, database = (
        make_tpcd_database(scale=0.002, z=2.0, seed=42) for _ in range(2)
    )
    queries = generate_workload(database, workload, seed=7).queries()
    oracle, spy = backend_of(oracle_database), ReprobingSpy(
        backend_of(database)
    )
    for query in queries:
        want = _always_probe_mnsad_for_query(oracle, query)
        reused_before = spy.reused
        got = run(spy, query)
        spy.query_ended(got)
        assert got.created == want.created
        assert got.retained == want.retained
        assert got.dropped == want.dropped
        assert got.iterations == want.iterations
        assert got.stop_reason == want.stop_reason
        saved = 2 * (spy.reused - reused_before)
        assert got.optimizer_calls == want.optimizer_calls - saved
    return spy.reused


class TestReusedProbe:
    @pytest.mark.parametrize("workload", ["U25-S-100", "U25-C-30"])
    def test_reused_probe_equals_a_real_one(self, workload):
        assert assert_reused_probes_exact(MemoryBackend, workload) > 0

    def test_skipping_after_a_retained_group_is_caught(
        self, tmp_path, monkeypatch
    ):
        """Delete-the-guard: with the probe also skipped after a
        retained group, the oracle comparison fails.  The guard lives in
        the one Figure 1 loop, :func:`repro.core.mnsa.figure1`."""
        source = Path(mnsa.__file__).read_text()
        guard = "result.retained.extend(group)\n            reprobe = True"
        assert guard in source, "guard vanished from mnsa.py"
        mutated = tmp_path / "mnsa_without_guard.py"
        mutated.write_text(
            source.replace(
                guard,
                "result.retained.extend(group)\n            reprobe = False",
                1,
            )
        )
        spec = importlib.util.spec_from_file_location(
            "mnsa_without_guard", str(mutated)
        )
        module = importlib.util.module_from_spec(spec)
        # its dataclass resolves annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        with pytest.raises(AssertionError):
            assert_reused_probes_exact(
                MemoryBackend,
                "U25-C-30",
                run=functools.partial(module.figure1, drop=True),
            )

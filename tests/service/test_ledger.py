"""Tests for the advisor's verdict ledger (repro.service.ledger).

An MNSA/D analysis that leaves a query's visible statistics where it
found them is recorded; the next capture event with the same key — the
query, its tables' visible ``(StatKey, Statistic)`` pairs and data
versions — is settled without analysis.  The invalidation tests pin what
must re-open a verdict, and the convergence property pins what the
ledger is for: replaying an unchanged workload reaches a pass that
analyses, creates and drop-lists nothing.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.service import ServiceRequest
from repro.service.events import QueryEvent
from repro.service.ledger import (
    LEDGER_CAPACITY,
    Verdict,
    VerdictLedger,
    verdict_key,
)
from repro.sql.binder import parse_and_bind
from repro.stats.statistic import StatKey
from tests.util import assert_replay_converges, make_service

#: MNSA/D builds emp.salary for it, sees the same plan, drop-lists it
SETTLES = "SELECT COUNT(*) FROM emp WHERE salary > 100000"
#: MNSA/D builds emp.age for it and keeps it: the join order changes
RETAINS_ON_EMP = (
    "SELECT e.name FROM emp e, dept d "
    "WHERE e.dept_id = d.id AND e.age > 60"
)
SALARY = StatKey("emp", ("salary",))
HIRED = StatKey("emp", ("hired",))


def run(service, sql):
    """Lock-step: submit one statement and let the advisor finish."""
    statement = parse_and_bind(sql, service.database.schema)
    service.submit(ServiceRequest(statement))
    assert service.drain(timeout=30.0)
    return statement


def counts(service):
    metrics = service.metrics
    return {
        name: metrics.counter(f"advisor.{name}")
        for name in ("events", "settled", "stats_created", "stats_drop_listed")
    }


@pytest.fixture
def service(db):
    # a visible statistic on emp, for the refresh / rebuild cases
    db.stats.create(HIRED)
    with make_service(db) as running:
        yield running
    assert running.worker_errors() == []


def settle(service):
    """Analyse SETTLES once, then see its next event settled."""
    run(service, SETTLES)
    query = run(service, SETTLES)
    assert counts(service) == {
        "events": 1,
        "settled": 1,
        "stats_created": 1,
        "stats_drop_listed": 1,
    }
    return query


class TestSettling:
    def test_repeated_query_is_settled_not_reanalyzed(self, service):
        settle(service)
        epoch = service.database.stats.epoch
        calls = service.metrics.counter("advisor.optimizer_calls")
        revalidations = service.plan_cache.revalidation_count
        run(service, SETTLES)
        assert counts(service)["events"] == 1
        assert counts(service)["settled"] == 2
        # no optimizer call, no create_stats, so nothing to revalidate
        assert service.metrics.counter("advisor.optimizer_calls") == calls
        assert service.database.stats.epoch == epoch
        assert service.plan_cache.revalidation_count == revalidations

    def test_the_verdict_names_what_was_decided(self, service):
        query = settle(service)
        verdict = service.ledger.settled(
            verdict_key(service.database, query)
        )
        assert verdict == Verdict(
            stop_reason=verdict.stop_reason,
            created=(SALARY,),
            dropped=(SALARY,),
        )
        assert verdict.stop_reason in ("exhausted", "insensitive")
        assert len(service.ledger) == 1

    def test_a_retained_statistic_is_not_recorded(self, service):
        run(service, RETAINS_ON_EMP)
        assert service.database.stats.is_visible(StatKey("emp", ("age",)))
        assert len(service.ledger) == 0

    def test_the_key_ignores_the_epoch(self, service):
        query = settle(service)
        key = verdict_key(service.database, query)
        service.database.stats.note_data_change("emp")
        assert verdict_key(service.database, query) == key


def _dml_on_the_table(service):
    run(service, "UPDATE emp SET age = 44 WHERE id = 1")


def _refresh_table(service):
    service.database.stats.refresh_table("emp")


def _rebuild(service):
    service.database.stats.rebuild(HIRED)


def _retain_on_the_table(service):
    before = counts(service)
    run(service, RETAINS_ON_EMP)
    after = counts(service)
    assert after["stats_created"] > after["stats_drop_listed"]
    assert after["events"] == before["events"] + 1


def _dml_elsewhere(service):
    run(service, "UPDATE dept SET budget = 1.0 WHERE id = 1")


def _refresh_elsewhere(service):
    service.database.stats.create(StatKey("dept", ("budget",)))
    service.database.stats.refresh_table("dept")


class TestInvalidation:
    @pytest.mark.parametrize(
        "change",
        [_dml_on_the_table, _refresh_table, _rebuild, _retain_on_the_table],
        ids=["dml", "refresh_table", "rebuild", "retained"],
    )
    def test_change_on_the_query_tables_reopens_the_verdict(
        self, service, change
    ):
        settle(service)
        change(service)
        events = counts(service)["events"]
        settled = counts(service)["settled"]
        run(service, SETTLES)
        assert counts(service)["events"] == events + 1
        assert counts(service)["settled"] == settled

    @pytest.mark.parametrize(
        "change",
        [_dml_elsewhere, _refresh_elsewhere],
        ids=["dml", "refresh_table"],
    )
    def test_change_on_another_table_keeps_the_verdict(self, service, change):
        settle(service)
        epoch = service.database.stats.epoch
        change(service)
        assert service.database.stats.epoch > epoch
        run(service, SETTLES)
        assert counts(service)["events"] == 1
        assert counts(service)["settled"] == 2

    def test_retune_event_bypasses_the_ledger(self, service):
        query = settle(service)

        def replay(retune):
            event = QueryEvent(
                seq=1000,
                query=query,
                estimated_cost=1.0,
                magic_variable_count=1,
                tables=query.tables,
                retune=retune,
            )
            service.shards[0].log.append(event)
            assert service.drain(timeout=30.0)

        replay(retune=True)
        assert counts(service)["events"] == 2
        assert counts(service)["settled"] == 1
        replay(retune=False)
        assert counts(service)["events"] == 2
        assert counts(service)["settled"] == 2

    def test_the_key_is_the_query_value_not_the_bound_object(self, db):
        first = parse_and_bind(SETTLES, db.schema)
        ledger = VerdictLedger()
        ledger.record(verdict_key(db, first), Verdict("exhausted"))
        second = parse_and_bind(SETTLES, db.schema)
        assert ledger.settled(verdict_key(db, second)) == Verdict("exhausted")
        # the ledger keeps no bound Query (and its planner caches) alive
        dead = weakref.ref(first)
        del first
        gc.collect()
        assert dead() is None

    def test_learned_version_is_part_of_the_key(self, db):
        query = parse_and_bind(SETTLES, db.schema)
        assert verdict_key(db, query, 1) != verdict_key(db, query, 2)
        assert verdict_key(db, query, 1) == verdict_key(db, query, 1)


class TestVerdictLedger:
    def test_service_ledger_is_bounded_by_the_constant(self, db):
        assert make_service(db).ledger.capacity == LEDGER_CAPACITY

    def test_lru_bound_evicts_the_oldest_entry(self):
        ledger = VerdictLedger(capacity=2)
        for key in ("a", "b", "c"):
            ledger.record(key, Verdict(key))
        assert len(ledger) == 2
        assert ledger.settled("a") is None
        assert ledger.settled("b") == Verdict("b")
        assert ledger.settled("c") == Verdict("c")

    def test_a_settled_lookup_keeps_the_entry_young(self):
        ledger = VerdictLedger(capacity=2)
        ledger.record("a", Verdict("a"))
        ledger.record("b", Verdict("b"))
        assert ledger.settled("a") is not None
        ledger.record("c", Verdict("c"))
        assert ledger.settled("a") == Verdict("a")
        assert ledger.settled("b") is None

    def test_workers_sharing_a_ledger_lose_no_entry(self):
        """More threads than cores record and look up through one small
        ledger: an unlocked evict-while-touching would raise, overfill
        the bound, or hand a thread another key's verdict."""
        ledger = VerdictLedger(capacity=16)
        mixed = []
        errors = []

        def hammer(worker):
            try:
                for i in range(2000):
                    key = (worker, i)
                    ledger.record(key, Verdict(str(key)))
                    verdict = ledger.settled(key)
                    if verdict is not None and verdict.stop_reason != str(key):
                        mixed.append((key, verdict))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mixed == []
        assert len(ledger) == 16


class TestConvergence:
    def test_replay_converges_on_the_memory_backend(self, fresh_tpcd_db):
        assert_replay_converges(
            fresh_tpcd_db(), backend="memory", advisor_workers=2
        )

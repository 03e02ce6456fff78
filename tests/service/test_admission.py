"""Tests for admission control: queue backpressure and rate limits."""

import threading
import time

import pytest

from repro.config import ServiceConfig
from repro.errors import ServiceError, ServiceRejectedError
from repro.service import ServiceRequest, StatsService
from repro.service.admission import AdmissionQueue, TokenBucket
from repro.sql.binder import parse_and_bind


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_reject_with_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        bucket.acquire()
        bucket.acquire()
        with pytest.raises(ServiceRejectedError) as exc:
            bucket.acquire()
        assert exc.value.reason == "rate_limited"
        assert exc.value.retry_after > 0

    def test_waiting_out_the_retry_after_restores_a_token(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        bucket.acquire()
        with pytest.raises(ServiceRejectedError) as exc:
            bucket.acquire()
        clock.advance(exc.value.retry_after)
        bucket.acquire()  # must not raise

    def test_retry_after_respects_the_floor(self):
        clock = FakeClock()
        bucket = TokenBucket(
            rate=1000.0, burst=1, retry_after_floor=0.5, clock=clock
        )
        bucket.acquire()
        with pytest.raises(ServiceRejectedError) as exc:
            bucket.acquire()
        assert exc.value.retry_after >= 0.5


class TestAdmissionQueue:
    def test_high_water_rejects_with_retry_after(self):
        queue = AdmissionQueue(capacity=4, high_water=2, retry_after=0.25)
        queue.admit("a")
        queue.admit("b")
        with pytest.raises(ServiceRejectedError) as exc:
            queue.admit("c")
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after == 0.25
        assert queue.rejected == 1
        assert queue.depth == 2

    def test_fifo_within_one_priority_class(self):
        queue = AdmissionQueue(capacity=8)
        for name in ("a", "b", "c"):
            queue.admit(name)
        assert [queue.take().request for _ in range(3)] == ["a", "b", "c"]

    def test_higher_priority_class_drains_first_fifo_within(self):
        queue = AdmissionQueue(capacity=8)
        queue.admit("low-1", priority=0)
        queue.admit("high-1", priority=5)
        queue.admit("low-2", priority=0)
        queue.admit("high-2", priority=5)
        order = [queue.take().request for _ in range(4)]
        assert order == ["high-1", "high-2", "low-1", "low-2"]

    def test_backpressure_releases_once_workers_catch_up(self):
        queue = AdmissionQueue(capacity=2, high_water=1)
        queue.admit("a")
        with pytest.raises(ServiceRejectedError):
            queue.admit("b")
        queue.take()
        queue.admit("b")  # below the high-water mark again

    def test_close_strands_pending_tickets_and_stops_admissions(self):
        queue = AdmissionQueue(capacity=4)
        queue.admit("a")
        queue.admit("b")
        stranded = queue.close()
        assert [t.request for t in stranded] == ["a", "b"]
        assert queue.depth == 0
        with pytest.raises(ServiceError):
            queue.admit("c")


def make_service(db, **overrides) -> StatsService:
    defaults = dict(advisor_workers=0, staleness_poll_seconds=5.0)
    defaults.update(overrides)
    return StatsService(db, ServiceConfig(**defaults))


def request(db, sql) -> ServiceRequest:
    return ServiceRequest(parse_and_bind(sql, db.schema))


class TestAsyncSubmitPath:
    def test_queued_requests_complete_with_wait_accounting(self, db):
        with make_service(
            db, service_workers=2, queue_capacity=16
        ) as service:
            responses = [
                service.submit(
                    request(db, "SELECT COUNT(*) FROM emp WHERE age > 30")
                )
                for _ in range(8)
            ]
            assert all(r.result.actual_cost > 0 for r in responses)
            assert all(r.queue_wait_seconds >= 0.0 for r in responses)
        assert service.metrics.counter("service.queue.admitted") == 8
        assert service.metrics.counter("service.queue.rejected") == 0

    def test_many_client_threads_drain_through_the_pool(self, db):
        with make_service(
            db, service_workers=2, queue_capacity=64
        ) as service:
            results, errors = [], []

            def client():
                try:
                    response = service.submit(
                        request(
                            db, "SELECT COUNT(*) FROM emp WHERE age > 30"
                        )
                    )
                    results.append(response.result.actual_cost)
                except BaseException as exc:  # surface in the assertion
                    errors.append(exc)

            threads = [
                threading.Thread(target=client) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert errors == []
            assert len(results) == 8

    def test_worker_errors_propagate_to_the_submitter(self, db):
        with make_service(
            db, service_workers=1, queue_capacity=4
        ) as service:
            # a statement type the dispatcher cannot serve
            bad = ServiceRequest(
                parse_and_bind("SELECT COUNT(*) FROM emp", db.schema)
            )
            object.__setattr__(bad, "statement", object())
            with pytest.raises(AttributeError):
                service.submit(bad)

    def test_stop_fails_every_request_still_queued(self, db, monkeypatch):
        """``stop`` settles the tickets its queue close strands: each
        submitter still waiting gets a ServiceError instead of blocking
        forever on a response no worker will produce."""
        service = make_service(db, service_workers=1, queue_capacity=16)
        service.start()
        busy, release = threading.Event(), threading.Event()
        dispatch = service._dispatch

        def blocking_dispatch(req, queue_wait):
            busy.set()
            release.wait(30.0)
            return dispatch(req, queue_wait)

        # the one request worker blocks, so every later request queues
        monkeypatch.setattr(service, "_dispatch", blocking_dispatch)
        outcomes = []

        def client():
            try:
                service.submit(request(db, "SELECT COUNT(*) FROM emp"))
                outcomes.append("served")
            except ServiceError as exc:
                outcomes.append(exc)

        clients = [
            threading.Thread(target=client, daemon=True) for _ in range(4)
        ]
        try:
            clients[0].start()
            assert busy.wait(10.0)
            for thread in clients[1:]:
                thread.start()
            deadline = time.monotonic() + 10.0
            while service.queue_depth < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.queue_depth == 3
            stopper = threading.Thread(target=service.stop, daemon=True)
            stopper.start()
            # the stranded three fail while the worker is still blocked
            deadline = time.monotonic() + 10.0
            for thread in clients[1:]:
                thread.join(max(0.0, deadline - time.monotonic()))
            stranded = list(outcomes)
            release.set()
            stopper.join(30.0)
            clients[0].join(30.0)
        finally:
            release.set()
            service.stop()
        assert len(stranded) == 3, "stranded submitters still blocked"
        assert all(isinstance(error, ServiceError) for error in stranded)
        assert all("stopped" in str(error) for error in stranded)
        assert outcomes[3:] == ["served"]
        assert not stopper.is_alive()
        assert not any(thread.is_alive() for thread in clients)


class TestSessionRateLimits:
    def test_session_over_its_rate_limit_is_rejected(self, db):
        with make_service(
            db, session_rate_limit=0.001, session_rate_burst=2
        ) as service:
            session = service.session()
            session.submit("SELECT COUNT(*) FROM emp WHERE age > 30")
            session.submit("SELECT COUNT(*) FROM dept WHERE budget > 0")
            with pytest.raises(ServiceRejectedError) as exc:
                session.submit("SELECT COUNT(*) FROM emp")
            assert exc.value.reason == "rate_limited"
            assert exc.value.retry_after > 0
            assert service.metrics.counter("service.rate_limited") == 1

    def test_sessions_are_limited_independently(self, db):
        with make_service(
            db, session_rate_limit=0.001, session_rate_burst=1
        ) as service:
            a, b = service.session(), service.session()
            a.submit("SELECT COUNT(*) FROM emp WHERE age > 30")
            # a is out of tokens, b is untouched
            with pytest.raises(ServiceRejectedError):
                a.submit("SELECT COUNT(*) FROM emp")
            b.submit("SELECT COUNT(*) FROM dept WHERE budget > 0")

    def test_no_limit_configured_means_no_rejections(self, db):
        with make_service(db) as service:
            session = service.session()
            for _ in range(5):
                session.submit("SELECT COUNT(*) FROM emp WHERE age > 30")
            assert service.metrics.counter("service.rate_limited") == 0

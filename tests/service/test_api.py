"""Tests for the typed service surface (repro.service.api)."""

import dataclasses

import pytest

from repro.config import ServiceConfig
from repro.errors import ServiceError
from repro.optimizer.cache import OptimizationRequest
from repro.service import ServiceRequest, ServiceResponse, StatsService
from repro.sql.binder import parse_and_bind


def make_service(db, **overrides) -> StatsService:
    defaults = dict(advisor_workers=0, staleness_poll_seconds=5.0)
    defaults.update(overrides)
    return StatsService(db, ServiceConfig(**defaults))


def bind(db, sql):
    return parse_and_bind(sql, db.schema)


class TestServiceRequest:
    def test_query_is_wrapped_into_an_optimization_request(self, db):
        query = bind(db, "SELECT COUNT(*) FROM emp WHERE age > 30")
        request = ServiceRequest(query)
        assert isinstance(request.statement, OptimizationRequest)
        assert request.statement.query is query
        assert request.is_query

    def test_dml_statement_passes_through(self, db):
        statement = bind(db, "DELETE FROM emp WHERE age = 30")
        request = ServiceRequest(statement)
        assert request.statement is statement
        assert not request.is_query

    def test_raw_sql_text_is_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRequest("SELECT COUNT(*) FROM emp")

    def test_requests_are_frozen(self, db):
        request = ServiceRequest(bind(db, "SELECT COUNT(*) FROM emp"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.priority = 3


class TestTypedSubmit:
    def test_query_response_carries_routing_facts(self, db):
        with make_service(db) as service:
            request = ServiceRequest(
                bind(db, "SELECT COUNT(*) FROM emp WHERE age > 30")
            )
            response = service.submit(request)
            assert isinstance(response, ServiceResponse)
            assert response.result.actual_cost > 0
            assert response.shard_ids == (
                service.router.shard_of("emp"),
            )
            assert not response.degraded
            assert response.queue_wait_seconds == 0.0

    def test_dml_response_carries_row_count(self, db):
        with make_service(db) as service:
            response = service.submit(
                ServiceRequest(bind(db, "DELETE FROM emp WHERE age = 30"))
            )
            assert response.result > 0
            assert len(response.shard_ids) == 1

    def test_submit_rejects_untyped_arguments(self, db):
        with make_service(db) as service:
            with pytest.raises(ServiceError):
                service.submit(42)

    def test_responses_are_frozen(self, db):
        with make_service(db) as service:
            response = service.submit(
                ServiceRequest(bind(db, "SELECT COUNT(*) FROM emp"))
            )
            with pytest.raises(dataclasses.FrozenInstanceError):
                response.degraded = True


class TestSessionSurface:
    def test_session_stamps_id_and_tenant(self, db):
        with make_service(db) as service:
            session = service.session(tenant="acme")
            response = session.submit_request(
                bind(db, "SELECT COUNT(*) FROM emp WHERE age > 30")
            )
            assert response.session_id == session.session_id
            assert response.tenant == "acme"

    def test_session_counters_stay_per_session(self, db):
        with make_service(db) as service:
            a, b = service.session(), service.session()
            a.submit("SELECT COUNT(*) FROM emp WHERE age > 30")
            a.submit("DELETE FROM emp WHERE age = 21")
            b.submit("SELECT COUNT(*) FROM dept WHERE budget > 0")
            assert (a.statements, a.queries, a.dml) == (2, 1, 1)
            assert (b.statements, b.queries, b.dml) == (1, 1, 0)


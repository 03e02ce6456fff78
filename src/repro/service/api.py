"""Typed request/response surface of the statistics-management service.

:class:`ServiceRequest` / :class:`ServiceResponse` are the currency of
:meth:`~repro.service.service.StatsService.submit`.  Callers build a
request explicitly — usually through :meth:`Session.submit`, which fills
in the session id — and get back a response that says *how* the service
handled it: which shards were locked, whether the plan was degraded, and
how long the request waited in the admission queue.

Both types are frozen: a request can be retried verbatim after a
:class:`~repro.errors.ServiceRejectedError`, and a response can be
shared across threads without copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.errors import ServiceError
from repro.optimizer.cache import OptimizationRequest
from repro.sql.query import DmlStatement, Query


@dataclass(frozen=True)
class ServiceRequest:
    """One unit of work submitted to the service.

    Attributes:
        statement: what to run — an
            :class:`~repro.optimizer.cache.OptimizationRequest` (a bound
            :class:`~repro.sql.query.Query` is accepted and wrapped) or
            a :class:`~repro.sql.query.DmlStatement`.
        session_id: id of the submitting session, for per-session rate
            limiting and bookkeeping; ``None`` means "no session"
            (service-level submission, never rate limited).
        tenant: opaque tenant label carried through to the response;
            the service does not interpret it.
        priority: admission-queue priority class.  Higher drains first;
            within a class the queue is FIFO.
    """

    statement: Union[OptimizationRequest, DmlStatement]
    session_id: Optional[int] = None
    tenant: Optional[str] = None
    priority: int = 0

    def __post_init__(self) -> None:
        statement = self.statement
        if isinstance(statement, Query):
            statement = OptimizationRequest(statement)
            object.__setattr__(self, "statement", statement)
        if not isinstance(statement, (OptimizationRequest, DmlStatement)):
            raise ServiceError(
                "ServiceRequest.statement must be an OptimizationRequest, "
                f"Query, or DmlStatement, got {type(statement).__name__}"
            )

    @property
    def is_query(self) -> bool:
        """True when the statement is a query (vs. DML)."""
        return isinstance(self.statement, OptimizationRequest)


@dataclass(frozen=True)
class ServiceResponse:
    """The outcome of one :class:`ServiceRequest`.

    Attributes:
        result: the :class:`~repro.executor.executor.ExecutionResult`
            (executing service), :class:`OptimizationResult`
            (plan-only service), or rows-modified count (DML).
        shard_ids: ids of the service shards whose statement locks the
            request held, ascending.  A single-element tuple is the
            single-shard fast path.
        degraded: the plan was produced with magic-number selectivities
            only because the advisor backlog crossed the degradation
            threshold (always ``False`` for DML).
        queue_wait_seconds: time spent in the admission queue before a
            worker picked the request up; ``0.0`` on the synchronous
            path.
        session_id: echoed from the request.
        tenant: echoed from the request.
    """

    result: object
    shard_ids: Tuple[int, ...] = ()
    degraded: bool = False
    queue_wait_seconds: float = 0.0
    session_id: Optional[int] = None
    tenant: Optional[str] = field(default=None, compare=False)

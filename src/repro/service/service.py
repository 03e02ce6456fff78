"""The long-running statistics-management service.

:class:`StatsService` runs the paper's Sec 6 online regime
*asynchronously* — where the paper (and SQL Server 7.0) make every query
pay for its own statistics decisions before it executes:

* many client threads call :meth:`StatsService.submit` with a typed
  :class:`~repro.service.api.ServiceRequest` (or open a
  :class:`Session`); queries execute immediately with whatever statistics
  are currently visible;
* every query leaves a :class:`~repro.service.events.QueryEvent` in its
  shard's bounded capture log;
* background :class:`~repro.service.worker.AdvisorWorker` threads drain
  the logs through the per-query advisor step (aging, then the
  syntactic, MNSA or MNSA/D creation policy), skipping the analyses a
  shared :class:`~repro.service.ledger.VerdictLedger` has settled;
* per-shard :class:`~repro.service.monitor.StalenessMonitor` threads
  run the maintenance pass: refresh on the modification counter under a
  cost budget, then the purge and drop rules;
* a :class:`~repro.service.metrics.MetricsRegistry` counts everything.

:class:`~repro.service.lockstep.LockStepAdvisor` runs the same step and
pass inline, in statement order — the paper's own schedule.

Concurrency model: the service is **sharded by table**.  Each
:class:`ServiceShard` owns a statement lock, a capture-log segment, its
advisor workers, and a staleness monitor for the tables the shared
:class:`~repro.stats.router.ShardRouter` routes to it.  A request
touching tables of a single shard takes only that shard's statement lock
(the fast path) — statements on disjoint shards never serialize against
each other.  A cross-shard request takes every involved shard's
statement lock in the router's canonical ascending order, the one order
every multi-shard path in the system uses, so no acquisition cycle (and
hence no deadlock) is possible.  ``shards=1`` collapses to the historic
single-database-lock model exactly.

Admission control (``service_workers > 0``) puts a bounded priority
queue in front of execution: submitters enqueue, a request-worker pool
drains, and past the high-water mark new requests are rejected with
:class:`~repro.errors.ServiceRejectedError` carrying a retry-after hint
instead of queueing without bound.  Per-session token buckets
(``session_rate_limit``) reject a noisy session's overflow before it
reaches the shared queue.  Under advisor backlog
(``degraded_backlog_high``) the service degrades gracefully: queries are
planned with magic-number selectivities only — no statistics locks, no
new capture events — until the backlog recedes past the low-water mark.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple, Union

from repro.backends.base import Backend, backend_from_name
from repro.concurrency import guarded_by
from repro.config import ServiceConfig
from repro.core.mnsa import MnsaConfig
from repro.core.policy import AgingPolicy
from repro.errors import ServiceError, ServiceRejectedError
from repro.executor.dml import apply_dml
from repro.executor.executor import ExecutionResult, Executor
from repro.feedback import FeedbackPolicy, FeedbackStore, worst_plan_q_error
from repro.optimizer.cache import OptimizationRequest, PlanCache
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.service.admission import (
    RETRY_AFTER_SECONDS,
    AdmissionQueue,
    TokenBucket,
)
from repro.service.api import ServiceRequest, ServiceResponse
from repro.service.events import CaptureLog, QueryEvent
from repro.service.ledger import VerdictLedger
from repro.service.metrics import MetricsRegistry
from repro.service.monitor import StalenessMonitor
from repro.service.worker import AdvisorWorker
from repro.sql.binder import parse_and_bind
from repro.sql.query import DmlStatement
from repro.stats.statistic import StatKey


class Session:
    """One client connection to a :class:`StatsService`.

    Sessions are cheap handles: they parse SQL against the service's
    schema, stamp their id (and tenant) onto the
    :class:`~repro.service.api.ServiceRequest` they build, and keep
    per-session counters.  Any number of sessions may submit
    concurrently from their own threads; the counters take the
    session's own lock, so two tenants' sessions never contend on
    shared state.
    """

    _statements = guarded_by("_lock")
    _queries = guarded_by("_lock")
    _dml = guarded_by("_lock")

    def __init__(
        self,
        service: "StatsService",
        session_id: int,
        rate_limiter: Optional[TokenBucket] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self._service = service
        self.session_id = session_id
        self.tenant = tenant
        self.limiter = rate_limiter
        self._lock = threading.Lock()
        self._statements = 0
        self._queries = 0
        self._dml = 0

    @property
    def statements(self) -> int:
        with self._lock:
            return self._statements

    @property
    def queries(self) -> int:
        with self._lock:
            return self._queries

    @property
    def dml(self) -> int:
        with self._lock:
            return self._dml

    def submit(self, sql: str):
        """Parse, bind, and execute one SQL statement (returns the result)."""
        statement = parse_and_bind(sql, self._service.database.schema)
        return self.submit_statement(statement)

    def submit_statement(self, statement):
        """Execute an already-bound statement through the service."""
        return self.submit_request(statement).result

    def submit_request(
        self, statement, priority: int = 0
    ) -> ServiceResponse:
        """Submit a statement and return the full typed response.

        ``statement`` may be a bound :class:`~repro.sql.query.Query`, an
        :class:`~repro.optimizer.cache.OptimizationRequest`, or a
        :class:`~repro.sql.query.DmlStatement`; the session stamps its
        id and tenant onto the request.
        """
        request = ServiceRequest(
            statement,
            session_id=self.session_id,
            tenant=self.tenant,
            priority=priority,
        )
        response = self._service.submit(request)
        with self._lock:
            self._statements += 1
            if request.is_query:
                self._queries += 1
            else:
                self._dml += 1
        return response

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(id={self.session_id}, statements={self.statements})"
        )


class _SessionSlot:
    """One bucket of the sharded session registry.

    The registry exists for per-session admission state (the rate
    limiter); sharding it into slots keyed by ``session_id % slots``
    means concurrent submitters from different sessions almost never
    touch the same lock.
    """

    _sessions = guarded_by("_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: Dict[int, Session] = {}

    def register(self, session: Session) -> None:
        with self._lock:
            self._sessions[session.session_id] = session

    def get(self, session_id: int) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)


class ServiceShard:
    """One service shard: the unit of statement-level isolation.

    A shard owns the statement lock, capture-log segment, advisor
    workers, and staleness monitor for the tables the router assigns to
    it.  The lock is created eagerly (requests may route before
    ``start``); the log and threads are created when the service starts.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.statement_lock = threading.RLock()
        self.log: Optional[CaptureLog] = None
        self.workers: List[AdvisorWorker] = []
        self.monitor: Optional[StalenessMonitor] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        depth = 0 if self.log is None else len(self.log)
        return (
            f"ServiceShard(id={self.shard_id}, "
            f"workers={len(self.workers)}, backlog={depth})"
        )


class _RequestWorker(threading.Thread):
    """One request-worker thread draining the admission queue."""

    def __init__(
        self, index: int, service: "StatsService", queue: AdmissionQueue
    ) -> None:
        super().__init__(name=f"stats-request-{index}", daemon=True)
        self._service = service
        self._queue = queue

    def run(self) -> None:
        while True:
            ticket = self._queue.take(timeout=0.05)
            if ticket is None:
                if self._queue.closed and self._queue.depth == 0:
                    return
                continue
            wait = time.perf_counter() - ticket.enqueued_at
            try:
                response = self._service._dispatch(
                    ticket.request, queue_wait=wait
                )
            except BaseException as exc:  # propagate to the submitter
                ticket.fail(exc)
            else:
                ticket.resolve(response)


class StatsService:
    """A concurrent, self-tuning statistics-management daemon.

    Args:
        database: the database to serve and manage statistics for.
        config: service knobs (see :class:`repro.config.ServiceConfig`).
        mnsa_config: analysis knobs handed to the advisor workers.
    """

    _created_off_path = guarded_by("_created_lock")
    _started = guarded_by("_state_lock")
    _degraded = guarded_by("_degraded_lock")

    def __init__(
        self,
        database,
        config: Optional[ServiceConfig] = None,
        mnsa_config: Optional[MnsaConfig] = None,
    ) -> None:
        self.database = database
        self.config = config or ServiceConfig()
        self.mnsa_config = mnsa_config or MnsaConfig()
        self.metrics = MetricsRegistry()
        # Partition the statistics state to match the service shards:
        # every layer answers "the shard of table T" from this router.
        database.stats.reshard(self.config.shards)
        self._router = database.stats.router
        self._shards = [
            ServiceShard(shard_id) for shard_id in range(self.config.shards)
        ]
        #: shared statistics-aware plan cache (sessions + advisor workers);
        #: None when ``plan_cache_size`` is 0
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(self.config.plan_cache_size, metrics=self.metrics)
            if self.config.plan_cache_size > 0
            else None
        )
        #: execution-feedback store + policy; None unless
        #: ``config.feedback_enabled`` (the default keeps the service
        #: byte-identical to its pre-feedback behaviour)
        self.feedback: Optional[FeedbackStore] = None
        self.feedback_policy: Optional[FeedbackPolicy] = None
        if self.config.feedback_enabled:
            self.feedback = FeedbackStore(
                metrics=self.metrics,
                corrections=self.config.learned_enabled,
            )
            self.feedback_policy = FeedbackPolicy(
                self.feedback,
                refresh_policy=self.config.refresh_policy,
                refresh_threshold=self.config.qerror_refresh_threshold,
                retune_threshold=self.config.qerror_retune_threshold,
            )
        #: the correction view the service optimizers read: the feedback
        #: store when ``config.learned_enabled``, else None
        self.corrections: Optional[FeedbackStore] = (
            self.feedback if self.config.learned_enabled else None
        )
        self._optimizer = Optimizer(
            database, cache=self.plan_cache, corrections=self.corrections
        )
        self._executor = Executor(database)
        #: the engine advisor analyses run against.  ``None`` for the
        #: default ``"memory"`` backend (each worker builds its own
        #: MemoryBackend so optimizer call counts attribute per worker);
        #: otherwise one shared foreign engine — analyses are serialized
        #: by the statement locks, DML is replayed into it on the DML
        #: path, and workers mirror its decisions into ``database.stats``.
        self._analysis_backend: Optional[Backend] = None
        if self.config.backend != "memory":
            self._analysis_backend = backend_from_name(
                self.config.backend, database
            )
        #: verdicts of settled analyses, shared by every advisor worker
        self.ledger = VerdictLedger()
        #: damps re-creation of what the maintenance pass dropped; None
        #: unless ``config.aging_window`` is positive
        self.aging: Optional[AgingPolicy] = None
        if self.config.aging_window > 0:
            self.aging = AgingPolicy(
                self.config.aging_window,
                self.config.aging_expensive_query_cost,
            )
        self._seq = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._session_slots: Tuple[_SessionSlot, ...] = tuple(
            _SessionSlot() for _ in range(self.config.shards)
        )
        self._created_lock = threading.Lock()
        self._created_off_path: List[StatKey] = []
        self._queue: Optional[AdmissionQueue] = None
        self._request_workers: List[_RequestWorker] = []
        #: guards the degradation hysteresis flag only
        self._degraded_lock = threading.Lock()
        self._degraded = False
        #: guards the started flag only; never held across thread
        #: starts/joins or any other lock
        self._state_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "StatsService":
        """Start the capture logs, worker threads, and monitors."""
        with self._state_lock:
            if self._started:
                raise ServiceError("service already started")
            self._started = True
        try:
            self._start_components()
        except BaseException:
            with self._state_lock:
                self._started = False
            raise
        return self

    def maintenance(self, shard: ServiceShard) -> StalenessMonitor:
        """A new staleness monitor of ``shard``: the service starts
        one per shard, the lock-step driver calls the pass of an
        unstarted one."""
        cfg = self.config
        return StalenessMonitor(
            self.database,
            self.metrics,
            shard.statement_lock,
            fraction=cfg.staleness_fraction,
            poll_seconds=cfg.staleness_poll_seconds,
            budget_per_cycle=cfg.refresh_budget_per_cycle,
            purge_drop_list=cfg.purge_drop_list_before_refresh,
            policy=self.feedback_policy,
            router=self._router,
            shard_id=shard.shard_id,
            drop_after_refreshes=cfg.drop_after_refreshes,
            drop_list_only=cfg.drop_list_only,
            aging=self.aging,
            backend=self._analysis_backend,
        )

    def _start_components(self) -> None:
        cfg = self.config
        for shard in self._shards:
            shard.log = CaptureLog(cfg.capture_capacity)
            shard.workers = [
                AdvisorWorker(self, shard, index, shard.log)
                for index in range(cfg.advisor_workers)
            ]
            shard.monitor = self.maintenance(shard)
        for shard in self._shards:
            for worker in shard.workers:
                worker.start()
            shard.monitor.start()
        if cfg.service_workers > 0:
            self._queue = AdmissionQueue(cfg.queue_capacity)
            self._request_workers = [
                _RequestWorker(index, self, self._queue)
                for index in range(cfg.service_workers)
            ]
            for worker in self._request_workers:
                worker.start()
        self.metrics.gauge("service.shards", len(self._shards))
        self.metrics.gauge(
            "service.workers",
            sum(len(shard.workers) for shard in self._shards),
        )
        self.metrics.gauge(
            "service.request_workers", len(self._request_workers)
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every captured event has been processed.

        Returns True when every shard's capture log fully drained, False
        if ``timeout`` expired first.  With no advisor workers configured
        (capture-only mode) nothing will ever drain the logs, so this
        returns True immediately instead of blocking forever.
        """
        self._require_started()
        drained = True
        for shard in self._shards:
            if not shard.workers:
                continue
            drained = shard.log.join(timeout) and drained
        return drained

    def stop(
        self, drain: bool = True, timeout: Optional[float] = 30.0
    ) -> None:
        """Shut the service down.

        The admission queue closes first — stranded submitters get a
        :class:`~repro.errors.ServiceError` instead of blocking forever.
        With ``drain=True`` (the default) waits for the advisor backlog
        to empty and runs one final staleness pass per shard, so counters
        accumulated late in the workload still trigger their refresh;
        with ``drain=False`` pending capture events are abandoned.
        """
        with self._state_lock:
            if not self._started:
                return
            self._started = False
        if self._queue is not None:
            for ticket in self._queue.close():
                ticket.fail(
                    ServiceError("service stopped before the request ran")
                )
            for worker in self._request_workers:
                worker.join(timeout)
        drained = True
        if drain:
            for shard in self._shards:
                if shard.workers and shard.log is not None:
                    drained = shard.log.join(timeout) and drained
        for shard in self._shards:
            if shard.log is not None:
                shard.log.close()
        for shard in self._shards:
            for worker in shard.workers:
                worker.join(timeout)
            if shard.monitor is not None:
                shard.monitor.stop(timeout)
        if drain and drained:
            for shard in self._shards:
                if shard.monitor is not None:
                    shard.monitor.run_once()
        self._refresh_gauges()

    def __enter__(self) -> "StatsService":
        if not self.started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    @property
    def started(self) -> bool:
        with self._state_lock:
            return self._started

    # ------------------------------------------------------------------
    # the submit path
    # ------------------------------------------------------------------

    def session(self, tenant: Optional[str] = None) -> Session:
        """Open a new client session (optionally tagged with a tenant)."""
        self._require_started()
        limiter = None
        if self.config.session_rate_limit is not None:
            limiter = TokenBucket(
                self.config.session_rate_limit,
                self.config.session_rate_burst,
                retry_after_floor=RETRY_AFTER_SECONDS,
            )
        session = Session(
            self, next(self._session_ids), rate_limiter=limiter,
            tenant=tenant,
        )
        slot = self._session_slots[
            session.session_id % len(self._session_slots)
        ]
        slot.register(session)
        self.metrics.inc("service.sessions")
        return session

    def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Submit one :class:`~repro.service.api.ServiceRequest`.

        The canonical entry point: routes the request to its shard(s),
        applies admission control (queueing, rate limits, degradation),
        and returns a :class:`~repro.service.api.ServiceResponse`.
        To submit SQL text, open a :class:`Session`.

        Raises:
            ServiceRejectedError: the admission queue is past its
                high-water mark, or the session exceeded its rate limit;
                retry after ``exc.retry_after`` seconds.
        """
        self._require_started()
        if not isinstance(request, ServiceRequest):
            raise ServiceError(
                "StatsService.submit takes a ServiceRequest, got "
                f"{type(request).__name__} (wrap bound statements in a "
                "ServiceRequest, or use Session.submit_statement)"
            )
        if request.session_id is not None:
            self._rate_check(request.session_id)
        if self._queue is not None:
            try:
                ticket = self._queue.admit(request, request.priority)
            except ServiceRejectedError:
                self.metrics.inc("service.queue.rejected")
                self.metrics.gauge("service.queue.depth", self._queue.depth)
                raise
            self.metrics.inc("service.queue.admitted")
            self.metrics.gauge("service.queue.depth", self._queue.depth)
            return ticket.wait()
        return self._dispatch(request, queue_wait=0.0)

    # ------------------------------------------------------------------
    # request execution (called by submit or by a request worker)
    # ------------------------------------------------------------------

    def _rate_check(self, session_id: int) -> None:
        slot = self._session_slots[session_id % len(self._session_slots)]
        session = slot.get(session_id)
        if session is None or session.limiter is None:
            return
        try:
            session.limiter.acquire()
        except ServiceRejectedError:
            self.metrics.inc("service.rate_limited")
            raise

    def _dispatch(
        self, request: ServiceRequest, queue_wait: float
    ) -> ServiceResponse:
        if queue_wait:
            self.metrics.inc("service.queue.wait_seconds", queue_wait)
        self.tick()
        if request.is_query:
            return self._serve_query(request, queue_wait)
        return self._serve_dml(request, queue_wait)

    def tick(self) -> None:
        """One statement arrived: advance the aging clock."""
        if self.aging is not None:
            self.aging.tick()

    def plan_event(self, query) -> QueryEvent:
        """The capture event of planning ``query`` now, without running
        it: what the lock-step driver hands the advisor step before the
        query is planned and executed for real."""
        optimized, missing = self._optimizer.optimize_with_missing(
            OptimizationRequest(query)
        )
        return QueryEvent(
            seq=next(self._seq),
            query=query,
            estimated_cost=optimized.cost,
            magic_variable_count=len(missing),
            tables=tuple(query.tables),
        )

    def _serve_query(
        self, request: ServiceRequest, queue_wait: float
    ) -> ServiceResponse:
        response, event = self._run_query(request, queue_wait)
        if event is not None:
            log = self._shards[response.shard_ids[0]].log
            accepted = log.append(event)
            self.metrics.inc("capture.events")
            if not accepted:
                self.metrics.inc("capture.evicted")
            self.metrics.gauge("capture.depth", self._capture_backlog())
        return response

    def _run_query(
        self, request: ServiceRequest, queue_wait: float
    ) -> Tuple[ServiceResponse, Optional[QueryEvent]]:
        """Plan and execute a query request; returns its response and
        its capture event (``None`` when degraded)."""
        opt_request: OptimizationRequest = request.statement
        query = opt_request.query
        if not opt_request.degraded and self._degradation_active():
            opt_request = OptimizationRequest(
                query,
                opt_request.overrides,
                opt_request.ignore,
                learned=opt_request.learned,
                degraded=True,
            )
        degraded = opt_request.degraded
        shard_ids = self._router.shard_ids_for(query.tables)
        with self.metrics.timer("service.query"):
            # Canonical ascending shard order (see ShardRouter): the
            # only multi-lock acquisition order in the system.
            with ExitStack() as stack:
                for shard_id in shard_ids:
                    stack.enter_context(
                        self._shards[shard_id].statement_lock
                    )
                optimized, missing = self._optimizer.optimize_with_missing(
                    opt_request
                )
                executed = None
                if self.config.execute_queries:
                    # a degraded plan's estimates came from magic
                    # numbers: its errors say nothing about statistics
                    executed = self._executor.execute(
                        optimized.plan,
                        query,
                        feedback=None if degraded else self.feedback,
                    )
                versions = self.database.stats.versions_for(query.tables)
        if len(shard_ids) == 1:
            self.metrics.inc("service.shard.single")
        else:
            self.metrics.inc("service.shard.multi")
        retune = False
        worst = 1.0
        if (
            not degraded
            and executed is not None
            and self.feedback_policy is not None
        ):
            worst = worst_plan_q_error(executed.operator_observations)
            retune = self.feedback_policy.should_retune(
                worst, optimized.signature, versions
            )
            if retune:
                self.metrics.inc("feedback.retunes_requested")
        event = None
        if degraded:
            # A degraded plan consulted no statistics, so it carries no
            # signal for the advisor — and feeding the backlog is
            # exactly what degradation is avoiding.
            self.metrics.inc("service.degraded")
        else:
            event = QueryEvent(
                seq=next(self._seq),
                query=query,
                estimated_cost=optimized.cost,
                magic_variable_count=len(missing),
                tables=tuple(query.tables),
                retune=retune,
                worst_q_error=worst,
            )
        self.metrics.inc("service.queries")
        result: Union[ExecutionResult, OptimizationResult] = optimized
        if executed is not None:
            self.metrics.inc("service.execution_cost", executed.actual_cost)
            result = executed
        response = ServiceResponse(
            result=result,
            shard_ids=shard_ids,
            degraded=degraded,
            queue_wait_seconds=queue_wait,
            session_id=request.session_id,
            tenant=request.tenant,
        )
        return response, event

    def _serve_dml(
        self, request: ServiceRequest, queue_wait: float
    ) -> ServiceResponse:
        """Apply a DML request, replay it into a foreign analysis
        engine, and with ``incremental_maintenance`` fold inserted rows
        into the histograms (paper ref [8])."""
        statement: DmlStatement = request.statement
        shard_id = self._router.shard_of(statement.table)
        with self.metrics.timer("service.dml"):
            with self._shards[shard_id].statement_lock:
                rows_before = self.database.row_count(statement.table)
                affected = apply_dml(self.database, statement)
                if self._analysis_backend is not None:
                    # keep the foreign analysis engine's data in step
                    self._analysis_backend.execute(statement)
                if (
                    affected
                    and statement.kind == "insert"
                    and self.config.incremental_maintenance
                ):
                    self._maintain_inserts(
                        statement.table, rows_before, affected
                    )
        self.metrics.inc("service.dml_statements")
        self.metrics.inc("service.rows_modified", affected)
        return ServiceResponse(
            result=affected,
            shard_ids=(shard_id,),
            degraded=False,
            queue_wait_seconds=queue_wait,
            session_id=request.session_id,
            tenant=request.tenant,
        )

    def _maintain_inserts(
        self, name: str, rows_before: int, inserted: int
    ) -> None:
        """Fold the rows of table ``name`` past ``rows_before`` into its
        histograms and rebuild the ones that degraded; the caller holds
        the table's statement lock."""
        stats = self.database.stats
        table = self.database.table(name)
        cost = stats.apply_incremental_inserts(
            name,
            {
                column: table.column_array(column)[rows_before:]
                for column in table.schema.column_names()
            },
        )
        for key in stats.keys_needing_rebuild(name):
            cost += stats.rebuild(key)
            self.metrics.inc("service.incremental_rebuilds")
        self.metrics.inc("service.incremental_cost", cost)
        # the histograms cover these rows: no refresh for them
        table.credit_modifications(inserted)

    def _capture_backlog(self) -> int:
        return sum(
            len(shard.log)
            for shard in self._shards
            if shard.log is not None
        )

    def _degradation_active(self) -> bool:
        """Hysteresis: engage at the high water, release at the low."""
        high = self.config.degraded_backlog_high
        if high is None:
            return False
        backlog = self._capture_backlog()
        with self._degraded_lock:
            if self._degraded:
                if backlog <= self.config.degraded_backlog_low:
                    self._degraded = False
            elif backlog >= high:
                self._degraded = True
            active = self._degraded
        self.metrics.gauge("service.degraded_active", 1 if active else 0)
        return active

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> Tuple[ServiceShard, ...]:
        """The service shards (the list itself is immutable)."""
        return tuple(self._shards)

    @property
    def router(self):
        """The shared table -> shard router."""
        return self._router

    @property
    def analysis_backend(self) -> Optional[Backend]:
        """The shared foreign analysis engine (None for ``"memory"``)."""
        return self._analysis_backend

    @property
    def queue_depth(self) -> int:
        """Current admission-queue depth (0 on the synchronous path)."""
        return 0 if self._queue is None else self._queue.depth

    @property
    def created_off_path(self) -> List[StatKey]:
        """Statistics created by the background advisor workers."""
        with self._created_lock:
            return list(self._created_off_path)

    def worker_errors(self) -> List[BaseException]:
        """Exceptions swallowed by workers/monitors to stay alive."""
        errors: List[BaseException] = []
        for shard in self._shards:
            for worker in shard.workers:
                errors.extend(worker.errors)
            if shard.monitor is not None:
                errors.extend(shard.monitor.errors)
        return errors

    def metrics_text(self) -> str:
        """The final metrics dump (refreshes gauges first)."""
        self._refresh_gauges()
        return self.metrics.render()

    # ------------------------------------------------------------------

    def note_created(self, keys: List[StatKey]) -> None:
        """Record statistics an advisor worker created."""
        with self._created_lock:
            for key in keys:
                if key not in self._created_off_path:
                    self._created_off_path.append(key)

    def _refresh_gauges(self) -> None:
        stats = self.database.stats
        self.metrics.gauge("stats.visible", len(stats.visible_keys()))
        self.metrics.gauge("stats.drop_listed", len(stats.drop_list()))
        self.metrics.gauge("stats.physical", len(stats.keys()))
        if any(shard.log is not None for shard in self._shards):
            self.metrics.gauge("capture.depth", self._capture_backlog())
            self.metrics.gauge(
                "capture.dropped",
                sum(
                    shard.log.dropped
                    for shard in self._shards
                    if shard.log is not None
                ),
            )

    def _require_started(self) -> None:
        if not self.started:
            raise ServiceError(
                "service is not running; call start() first "
                "(or use it as a context manager)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.started else "stopped"
        workers = sum(len(shard.workers) for shard in self._shards)
        return (
            f"StatsService({self.database.name!r}, {state}, "
            f"shards={len(self._shards)}, workers={workers})"
        )

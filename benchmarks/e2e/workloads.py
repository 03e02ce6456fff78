"""The four benchmark workloads.

Every workload runs in *repetitions*.  One repetition builds its inputs
from scratch (``setup``, timed as one ``setup_s`` sample), runs a fixed
amount of work (``measure``) and is torn down again, so the count metrics
of a repetition repeat exactly and a run can report the timings of its
least disturbed repetition (README.md, "Noise").  See README.md for why
these four.

Load model: one process, one client thread, closed loop.  The serving
workloads run in lock-step — the client drains the advisor after every
statement and runs the staleness monitors itself every
``MONITOR_EVERY`` statements — so no timer and no scheduling decision
changes what the program does from one run to the next.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.config import ServiceConfig
from repro.core import mnsad
from repro.core.mnsa import MnsaConfig
from repro.datagen import make_tpcd_database
from repro.executor import Executor
from repro.executor.dml import apply_dml
from repro.optimizer import Optimizer
from repro.optimizer.cache import OptimizationRequest
from repro.service import ServiceRequest, StatsService
from repro.sql import binder
from repro.sql.query import Query
from repro.sql.render import render_statement
from repro.workload import generate_workload

from benchmarks.e2e.trace import Tracer

#: TPC-D skew and data seed shared by every workload (the paper's TPCD_2)
Z = 2.0
DATA_SEED = 42
#: the client runs every shard's staleness monitor after this many statements
MONITOR_EVERY = 50
#: a poll interval the monitor's own timer never reaches within a run
NEVER = 1.0e6

_perf = time.perf_counter


@dataclass
class Rep:
    """What one repetition measured."""

    #: start and end of the phase the traced run accounts for
    window: tuple = (0.0, 0.0)
    #: request latency of each query / each DML statement
    query_ms: List[float] = field(default_factory=list)
    dml_ms: List[float] = field(default_factory=list)
    queue_wait_ms: List[float] = field(default_factory=list)
    #: wall of the serving phase (requests, drains, monitors) and the
    #: statements it completed
    serve_s: float = 0.0
    statements: int = 0
    #: time spent tuning: the pass of ``tune_*``, else the client's waits
    #: for the advisor after each statement
    tune_s: float = 0.0
    #: wall of the timed phases, counted against ``--seconds``
    measured_s: float = 0.0
    stats_creation_cost: float = 0.0
    retained_update_cost: float = 0.0
    workload_exec_cost: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: first traceback of a statement that raised, for the report
    error: Optional[str] = None
    #: the program's own public counters over ``window``, by per-layer name
    counters: Dict[str, float] = field(default_factory=dict)
    #: what the output check compares (workload-specific)
    evidence: object = None

    def fail(self) -> None:
        self.failed += 1
        if self.error is None:
            self.error = traceback.format_exc()


def _database(scale: float):
    return make_tpcd_database(scale=scale, z=Z, seed=DATA_SEED)


class _Phase:
    """Times the code inside it; in the traced run, records its spans."""

    def __init__(self, tracer: Optional[Tracer], name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.t0 = self.t1 = 0.0

    def __enter__(self) -> "_Phase":
        gc.collect()
        self.t0 = _perf()
        if self._tracer is not None:
            self._tracer.enabled = True
            self._sid = self._tracer.open(
                self._tracer.kind_id("bench", self._name)
            )
        return self

    def __exit__(self, *exc) -> None:
        if self._tracer is not None:
            self._tracer.close(self._sid)
            self._tracer.enabled = False
        self.t1 = _perf()

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


# ----------------------------------------------------------------------
# cold tuning
# ----------------------------------------------------------------------


class Tune:
    """Cold MNSA/D over a workload, then the workload on the tuned database.

    The traced window is the tuning pass alone.  The second pass
    optimizes (no plan cache) and executes every query once with the
    retained statistics: it yields the paper's workload execution cost,
    and the latency a user of the tuned database sees.
    """

    def __init__(self, name: str, rags: str, scale: float) -> None:
        self.name = name
        self._rags = rags
        self._scale = scale

    def setup(self, rags_seed: int):
        database = _database(self._scale)
        workload = generate_workload(database, self._rags, seed=rags_seed)
        return database, workload.queries()

    def measure(self, state, tracer: Optional[Tracer]) -> Rep:
        database, queries = state
        rep = Rep(attempted=2 * len(queries))
        backend = MemoryBackend(database, Optimizer(database))
        epoch = database.stats.epoch
        with _Phase(tracer, "tune") as phase:
            result = mnsad.mnsad_for_workload(
                backend, queries, config=MnsaConfig()
            )
        rep.window = (phase.t0, phase.t1)
        rep.tune_s = phase.seconds
        rep.stats_creation_cost = result.creation_cost
        rep.counters["stats.epoch_bumps"] = database.stats.epoch - epoch

        stats = database.stats
        leaked = set(stats.visible_keys()) & set(stats.drop_list())
        stats.purge_drop_list()
        missing = [k for k in result.retained if not stats.is_visible(k)]
        rep.failed += len(leaked) + len(missing) + len(stats.drop_list())
        rep.retained_update_cost = stats.update_cost_of_keys(
            stats.visible_keys()
        )
        rep.evidence = (
            tuple(result.created),
            tuple(result.retained),
            tuple(result.dropped),
            result.iterations,
            result.optimizer_calls,
            result.stop_reason,
            result.creation_cost,
        )

        optimizer = Optimizer(database)
        executor = Executor(database)
        with _Phase(None, "serve") as phase:
            for query in queries:
                began = _perf()
                try:
                    plan = optimizer.optimize_request(
                        OptimizationRequest(query)
                    ).plan
                    cost = executor.execute(plan, query).actual_cost
                except Exception:
                    rep.fail()
                    continue
                rep.query_ms.append((_perf() - began) * 1e3)
                rep.workload_exec_cost += cost
        rep.serve_s = phase.seconds
        rep.statements = len(rep.query_ms)
        rep.measured_s = rep.tune_s + rep.serve_s
        return rep

    def teardown(self, state) -> None:
        pass

    def verify(self, state, rep: Rep, first: Rep) -> int:
        """The result key is identical in every repetition."""
        return 0 if rep.evidence == first.evidence else 1


# ----------------------------------------------------------------------
# steady-state serving
# ----------------------------------------------------------------------

#: per-layer metric name -> the ``MetricsRegistry`` counter behind it
_REGISTRY_COUNTERS = {
    "service.worker.events": "advisor.events",
    "service.worker.skipped": "advisor.skipped",
    "service.worker.optimizer_calls": "advisor.optimizer_calls",
    "service.worker.stats_created": "advisor.stats_created",
    "service.worker.stats_drop_listed": "advisor.stats_drop_listed",
    "service.admission.admitted": "service.queue.admitted",
    "service.admission.rejected": "service.queue.rejected",
    "service.monitor.refreshes": "monitor.refreshes",
    "service.monitor.refresh_cost": "monitor.refresh_cost",
    "feedback.observations": "feedback.observations",
    "feedback.retunes_requested": "feedback.retunes_requested",
}
_CACHE_COUNTERS = ("hits", "misses", "revalidations", "evictions")
#: every name a repetition's ``counters`` may carry
COUNTER_NAMES = (
    tuple(_REGISTRY_COUNTERS)
    + tuple(f"optimizer.cache.{name}" for name in _CACHE_COUNTERS)
    + ("stats.epoch_bumps",)
)


class _Serve:
    """Shared lock-step client of the two serving workloads."""

    name: str
    config: ServiceConfig

    def _start(self, database) -> StatsService:
        service = StatsService(database, self.config)
        service.start()
        return service

    @staticmethod
    def _counters(service: StatsService) -> Dict[str, float]:
        snapshot = service.metrics.snapshot()
        values = {
            ours: snapshot.get(theirs, 0.0)
            for ours, theirs in _REGISTRY_COUNTERS.items()
        }
        cache = service.plan_cache.counters()
        for name in _CACHE_COUNTERS:
            values[f"optimizer.cache.{name}"] = cache[name]
        values["stats.epoch_bumps"] = service.database.stats.epoch
        values["advisor.creation_cost"] = snapshot.get(
            "advisor.creation_cost", 0.0
        )
        values["service.execution_cost"] = snapshot.get(
            "service.execution_cost", 0.0
        )
        return values

    @staticmethod
    def _after_statement(service: StatsService, done: int) -> float:
        """Lock-step: let the advisor finish, run the monitors on cadence.
        Returns the seconds the client waited for the advisor."""
        began = _perf()
        service.drain()
        waited = _perf() - began
        if done % MONITOR_EVERY == 0:
            for shard in service.shards:
                shard.monitor.run_once()
        return waited

    def _finish(self, rep: Rep, service, before, phase: _Phase) -> None:
        after = self._counters(service)
        delta = {name: after[name] - before[name] for name in after}
        rep.window = (phase.t0, phase.t1)
        rep.serve_s = rep.measured_s = phase.seconds
        rep.statements = len(rep.query_ms) + len(rep.dml_ms)
        rep.stats_creation_cost = delta.pop("advisor.creation_cost")
        rep.workload_exec_cost = delta.pop("service.execution_cost")
        rep.counters = delta
        stats = service.database.stats
        rep.retained_update_cost = stats.update_cost_of_keys(
            stats.visible_keys()
        )
        rep.failed += len(service.worker_errors())

    def teardown(self, state) -> None:
        state[0].stop()


class ServeRepeat(_Serve):
    """Recurring reads whose working set fits the plan cache."""

    name = "serve_repeat"
    config = ServiceConfig(
        advisor_workers=1, shards=1, staleness_poll_seconds=NEVER
    )
    SCALE = 0.002

    def __init__(self, rags: str, warmup_rounds: int, rounds: int) -> None:
        self._rags = rags
        self._warmup_rounds = warmup_rounds
        self._rounds = rounds

    def setup(self, rags_seed: int):
        database = _database(self.SCALE)
        workload = generate_workload(database, self._rags, seed=rags_seed)
        queries = workload.queries()
        requests = [ServiceRequest(query) for query in queries]
        service = self._start(database)
        done = 0
        for _ in range(self._warmup_rounds):
            for request in requests:
                service.submit(request)
                done += 1
                self._after_statement(service, done)
        return service, requests, queries, done

    def measure(self, state, tracer: Optional[Tracer]) -> Rep:
        service, requests, _queries, done = state
        rounds = self._rounds
        rep = Rep(attempted=rounds * len(requests))
        row_counts: List[List[int]] = []
        before = self._counters(service)
        with _Phase(tracer, "serve") as phase:
            for _ in range(rounds):
                rows = []
                for request in requests:
                    if tracer is not None:
                        tracer.request_id += 1
                    began = _perf()
                    try:
                        response = service.submit(request)
                    except Exception:
                        rep.fail()
                        rows.append(-1)
                        continue
                    rep.query_ms.append((_perf() - began) * 1e3)
                    rows.append(response.result.row_count)
                    done += 1
                    rep.tune_s += self._after_statement(service, done)
                row_counts.append(rows)
        self._finish(rep, service, before, phase)
        rep.evidence = row_counts
        return rep

    def verify(self, state, rep: Rep, first: Rep) -> int:
        """Row counts equal SQLite's on the same data, in every round."""
        if rep is not first:
            return sum(a != b for a, b in zip(rep.evidence, first.evidence))
        service, _requests, queries, _done = state
        oracle = SqliteBackend(service.database)
        try:
            expected = [oracle.execute(q).row_count for q in queries]
        finally:
            oracle.close()
        return sum(
            got != want
            for rows in rep.evidence
            for got, want in zip(rows, expected)
        )


class ServeMixed(_Serve):
    """Writes beside mostly-distinct reads, through parse/bind and the
    admission queue, on a fresh service."""

    name = "serve_mixed"
    config = ServiceConfig(
        advisor_workers=1,
        service_workers=1,
        feedback_enabled=True,
        staleness_poll_seconds=NEVER,
    )
    SCALE = 0.002

    def __init__(self, rags: str) -> None:
        self._rags = rags

    def setup(self, rags_seed: int):
        database = _database(self.SCALE)
        texts = [
            (render_statement(s, database.schema), isinstance(s, Query))
            for s in generate_workload(database, self._rags, seed=rags_seed)
        ]
        service = self._start(database)
        return service, texts, service.session()

    def measure(self, state, tracer: Optional[Tracer]) -> Rep:
        service, texts, session = state
        schema = service.database.schema
        rep = Rep(attempted=len(texts))
        before = self._counters(service)
        with _Phase(tracer, "serve") as phase:
            for done, (text, is_query) in enumerate(texts, 1):
                if tracer is not None:
                    tracer.request_id += 1
                began = _perf()
                try:
                    statement = binder.parse_and_bind(text, schema)
                    response = session.submit_request(statement)
                except Exception:
                    rep.fail()
                    continue
                elapsed = (_perf() - began) * 1e3
                (rep.query_ms if is_query else rep.dml_ms).append(elapsed)
                rep.queue_wait_ms.append(response.queue_wait_seconds * 1e3)
                rep.tune_s += self._after_statement(service, done)
        self._finish(rep, service, before, phase)
        database = service.database
        rep.evidence = {
            table: database.row_count(table)
            for table in database.table_names()
        }
        return rep

    def verify(self, state, rep: Rep, first: Rep) -> int:
        """Final row counts equal a sequential replay of the DML."""
        if rep is not first:
            return 0 if rep.evidence == first.evidence else 1
        _service, texts, _session = state
        replay = _database(self.SCALE)
        for text, is_query in texts:
            if not is_query:
                apply_dml(replay, binder.parse_and_bind(text, replay.schema))
        return sum(
            replay.row_count(table) != rows
            for table, rows in rep.evidence.items()
        )


WORKLOADS = {
    w.name: w
    for w in (
        Tune("tune_complex", "U25-C-100", 0.002),
        Tune("tune_simple_large", "U25-S-1000", 0.01),
        ServeRepeat("U0-C-100", warmup_rounds=3, rounds=15),
        ServeMixed("U25-S-1000"),
    )
}

#: the same code paths at toy size (``--smoke``)
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Tune("tune_complex", "U25-C-30", 0.002),
        Tune("tune_simple_large", "U25-S-100", 0.01),
        ServeRepeat("U0-C-30", warmup_rounds=1, rounds=2),
        ServeMixed("U25-S-100"),
    )
}

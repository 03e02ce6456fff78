"""Online statistics management as a long-running concurrent service.

The paper's "usage in a server" discussion (Sec 6) assumes statistics
creation, refresh, and drop-listing happen *inside* a living server while
queries keep flowing.  This package provides that runtime:

* :class:`~repro.service.service.StatsService` — the daemon facade:
  concurrent sessions submit typed
  :class:`~repro.service.api.ServiceRequest` objects (or SQL through a
  :class:`~repro.service.service.Session`), queries run with whatever
  statistics are visible *now*, sharded by table across
  :class:`~repro.service.service.ServiceShard` instances;
* :class:`~repro.service.admission.AdmissionQueue` /
  :class:`~repro.service.admission.TokenBucket` — bounded admission
  queue with backpressure and per-session rate limiting;
* :class:`~repro.service.events.CaptureLog` /
  :class:`~repro.service.events.QueryEvent` — the bounded workload
  capture log between the query path and the advisor;
* :class:`~repro.service.worker.AdvisorWorker` — background threads
  draining the log through the per-query advisor step (aging, then the
  syntactic, MNSA or MNSA/D creation policy);
* :class:`~repro.service.monitor.StalenessMonitor` — the maintenance
  pass: counter-triggered refresh under a cost budget, and the purge
  and drop rules;
* :class:`~repro.service.lockstep.LockStepAdvisor` — the same step and
  pass run inline, statement by statement, with no threads;
* :class:`~repro.service.metrics.MetricsRegistry` — counters and gauges
  with a text dump.

See ``docs/service.md`` for the architecture walkthrough and the
``repro serve`` CLI subcommand for an end-to-end run.
"""

from repro.service.admission import AdmissionQueue, TokenBucket
from repro.service.api import ServiceRequest, ServiceResponse
from repro.service.events import CaptureLog, QueryEvent
from repro.service.lockstep import LockStepAdvisor, LockStepReport
from repro.service.metrics import MetricsRegistry
from repro.service.monitor import StalenessMonitor
from repro.service.service import ServiceShard, Session, StatsService
from repro.service.worker import AdvisorWorker

__all__ = [
    "AdmissionQueue",
    "AdvisorWorker",
    "CaptureLog",
    "LockStepAdvisor",
    "LockStepReport",
    "MetricsRegistry",
    "QueryEvent",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceShard",
    "Session",
    "StalenessMonitor",
    "StatsService",
    "TokenBucket",
]

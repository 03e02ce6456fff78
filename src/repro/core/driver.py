"""Parallel workload analysis driver (tentpole of the caching redesign).

``mnsa_for_workload`` / ``mnsad_for_workload`` walk a workload serially,
and each per-query pass is dominated by optimizer invocations: the default
plan, the ε / 1−ε sensitivity probes, and MNSA/D's drop-detection
re-optimizations.  Creation order is load-bearing (each query sees the
statistics its predecessors built), so the *mutating* pass cannot be
parallelized without changing the algorithm — but the **query-analysis
phase** can: before any statistic is created, the default plan and the
first round of ε / 1−ε probes of every query are independent, read-only
optimizations.

:class:`WorkloadDriver` exploits exactly that split.  ``run_mnsa`` /
``run_mnsad`` first *pre-warm* a shared
:class:`~repro.optimizer.cache.PlanCache` by running those read-only
probes over a ``ThreadPoolExecutor`` (one short-lived optimizer per
worker, all pointing at the same cache), then run the unchanged serial
algorithm on the primary optimizer.  The serial pass finds its initial
optimizations already cached, and the merge order is the serial
algorithm's own order — so results are byte-identical to the serial path
by construction, with ``parallelism=1`` degrading to a plain cached (or
uncached) serial run.

The driver runs against any :class:`~repro.backends.base.Backend`; the
pre-warm phase is a :class:`~repro.backends.memory.MemoryBackend`
optimization (other engines have no shared plan cache to warm) and
silently degrades to the serial path elsewhere.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional

from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.core.mnsa import MnsaConfig, MnsaResult, mnsa_for_workload
from repro.core.mnsad import MnsadResult, mnsad_for_workload
from repro.errors import PolicyError
from repro.optimizer.cache import OptimizationRequest, PlanCache
from repro.optimizer.optimizer import Optimizer
from repro.sql.query import Query


class WorkloadDriver:
    """Runs workload-level MNSA / MNSA/D with a shared plan cache.

    Args:
        backend: the engine to tune — any
            :class:`~repro.backends.base.Backend`.
        parallelism: worker threads for the read-only pre-warm phase;
            ``1`` disables the phase entirely.
        cache: the shared :class:`~repro.optimizer.cache.PlanCache`
            (memory backend only), attached to the backend's optimizer;
            if that optimizer already has a cache, they must agree (the
            pre-warm phase is useless against a cache the serial pass
            will not read).  The pre-warm optimizers mirror the
            primary's learned attachments so cache keys line up.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        parallelism: int = 1,
        cache: Optional[PlanCache] = None,
    ) -> None:
        if parallelism < 1:
            raise PolicyError(
                f"parallelism must be >= 1, got {parallelism}"
            )
        self.parallelism = int(parallelism)
        if cache is not None and isinstance(backend, MemoryBackend):
            backend.optimizer.attach_cache(cache)
        self._backend = backend
        if isinstance(backend, MemoryBackend):
            self._db = backend.database
            self._optimizer = backend.optimizer
            self._cache = backend.optimizer.cache
        else:
            self._db = None
            self._optimizer = None
            self._cache = None

    @property
    def backend(self) -> Backend:
        return self._backend

    @property
    def optimizer(self) -> Optional[Optimizer]:
        """The memory engine's optimizer; ``None`` for other backends."""
        return self._optimizer

    @property
    def cache(self) -> Optional[PlanCache]:
        return self._cache

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_mnsa(
        self,
        workload: Iterable,
        config: Optional[MnsaConfig] = None,
    ) -> MnsaResult:
        """MNSA over the workload; equals the serial path exactly."""
        config = config if config is not None else MnsaConfig()
        queries = self._queries(workload)
        self._prewarm(queries, config)
        return mnsa_for_workload(self._backend, queries, config=config)

    def run_mnsad(
        self,
        workload: Iterable,
        config: Optional[MnsaConfig] = None,
    ) -> MnsadResult:
        """MNSA/D over the workload; equals the serial path exactly."""
        config = config if config is not None else MnsaConfig()
        queries = self._queries(workload)
        self._prewarm(queries, config)
        return mnsad_for_workload(self._backend, queries, config=config)

    # ------------------------------------------------------------------
    # pre-warm phase
    # ------------------------------------------------------------------

    @staticmethod
    def _queries(workload: Iterable) -> List[Query]:
        return [q for q in workload if isinstance(q, Query)]

    def _prewarm(self, queries: List[Query], config: MnsaConfig) -> None:
        """Fill the shared cache with every query's read-only first round.

        Runs only optimizations the serial pass will re-issue verbatim:
        the default plan and, when the query has statistics-less
        variables, the ε / 1−ε pins over all of them.  No statistics are
        created, so the probes commute and thread scheduling cannot
        influence the cached values — each request's result is a pure
        function of the (unchanging) statistics state.
        """
        if self.parallelism <= 1 or self._cache is None or not queries:
            return
        with ThreadPoolExecutor(
            max_workers=self.parallelism,
            thread_name_prefix="workload-driver",
        ) as pool:
            list(
                pool.map(
                    lambda query: self._prewarm_query(query, config),
                    queries,
                )
            )

    def _prewarm_query(self, query: Query, config: MnsaConfig) -> None:
        # a private optimizer per task keeps call_count deltas of the
        # primary optimizer (MnsaResult.optimizer_calls) untouched
        optimizer = Optimizer(
            self._db,
            self._optimizer.config,
            cache=self._cache,
            corrections=self._optimizer.corrections,
            join_estimator=self._optimizer.join_estimator,
        )
        optimizer.optimize_request(OptimizationRequest(query))
        optimizer.probe(query, config.epsilon)

"""Tests for repro.core.driver (parallel workload analysis driver).

The load-bearing guarantee: a :class:`WorkloadDriver` run — at any
parallelism, with any cache — produces *exactly* the result of the plain
serial ``mnsa_for_workload`` / ``mnsad_for_workload`` path on a fresh
database.  The pre-warm phase may only shift work into the cache.
"""

import pytest

from repro.backends.memory import MemoryBackend
from repro.core import WorkloadDriver
from repro.core.mnsa import MnsaConfig, mnsa_for_workload
from repro.core.mnsad import mnsad_for_workload
from repro.errors import OptimizerError, PolicyError
from repro.optimizer import Optimizer, PlanCache


def _fresh_db():
    from repro.datagen import make_tpcd_database

    return make_tpcd_database(scale=0.002, z=2.0, seed=7)


@pytest.fixture(scope="module")
def figure4_queries():
    """The Figure 4 workload shape (U25-S-100), capped for test speed."""
    from repro.workload import generate_workload

    db = _fresh_db()
    return generate_workload(db, "U25-S-100").queries()[:20]


def _mnsa_snapshot(result):
    return (
        result.created,
        result.skipped,
        result.iterations,
        result.optimizer_calls,
        result.stop_reason,
        result.creation_cost,
    )


def _mnsad_snapshot(result):
    return (
        result.created,
        result.retained,
        result.dropped,
        result.iterations,
        result.optimizer_calls,
        result.stop_reason,
        result.creation_cost,
    )


class TestSerialParallelEquivalence:
    def test_mnsa_matches_serial(self, figure4_queries):
        serial_db = _fresh_db()
        serial = mnsa_for_workload(
            MemoryBackend(serial_db, Optimizer(serial_db)), figure4_queries
        )

        parallel_db = _fresh_db()
        driver = WorkloadDriver(
            MemoryBackend(parallel_db, Optimizer(parallel_db)),
            parallelism=4,
            cache=PlanCache(512),
        )
        parallel = driver.run_mnsa(figure4_queries)

        assert _mnsa_snapshot(parallel) == _mnsa_snapshot(serial)
        assert sorted(parallel_db.stats.keys()) == sorted(
            serial_db.stats.keys()
        )
        # the pre-warm phase actually primed the cache
        assert driver.cache.hit_count > 0

    def test_mnsad_matches_serial(self, figure4_queries):
        serial_db = _fresh_db()
        serial = mnsad_for_workload(
            MemoryBackend(serial_db, Optimizer(serial_db)), figure4_queries
        )

        parallel_db = _fresh_db()
        driver = WorkloadDriver(
            MemoryBackend(parallel_db, Optimizer(parallel_db)),
            parallelism=4,
            cache=PlanCache(512),
        )
        parallel = driver.run_mnsad(figure4_queries)

        assert _mnsad_snapshot(parallel) == _mnsad_snapshot(serial)
        assert sorted(parallel_db.stats.visible_keys()) == sorted(
            serial_db.stats.visible_keys()
        )

    def test_parallelism_one_matches_serial(self, figure4_queries):
        serial_db = _fresh_db()
        serial = mnsa_for_workload(
            MemoryBackend(serial_db, Optimizer(serial_db)),
            figure4_queries[:8],
        )
        db = _fresh_db()
        result = WorkloadDriver(
            MemoryBackend(db, Optimizer(db)), parallelism=1
        ).run_mnsa(figure4_queries[:8])
        assert _mnsa_snapshot(result) == _mnsa_snapshot(serial)

    def test_config_is_forwarded(self, figure4_queries):
        config = MnsaConfig(t_percent=60.0)
        serial_db = _fresh_db()
        serial = mnsa_for_workload(
            MemoryBackend(serial_db, Optimizer(serial_db)),
            figure4_queries[:8],
            config=config,
        )
        db = _fresh_db()
        result = WorkloadDriver(
            MemoryBackend(db, Optimizer(db)), parallelism=2
        ).run_mnsa(figure4_queries[:8], config=config)
        assert _mnsa_snapshot(result) == _mnsa_snapshot(serial)


class TestDriverConstruction:
    def test_parallelism_must_be_positive(self):
        with pytest.raises(PolicyError):
            WorkloadDriver(MemoryBackend(_fresh_db()), parallelism=0)

    def test_default_optimizer_gets_a_cache(self):
        # a backend built around a cache hands it to the driver
        cache = PlanCache(64)
        driver = WorkloadDriver(MemoryBackend(_fresh_db(), cache=cache))
        assert driver.cache is cache
        assert driver.optimizer.cache is driver.cache

    def test_existing_optimizer_adopts_cache(self):
        db = _fresh_db()
        optimizer = Optimizer(db)
        cache = PlanCache(64)
        driver = WorkloadDriver(MemoryBackend(db, optimizer), cache=cache)
        assert driver.optimizer is optimizer
        assert optimizer.cache is cache
        assert driver.cache is cache

    def test_conflicting_caches_rejected(self):
        db = _fresh_db()
        optimizer = Optimizer(db, cache=PlanCache(8))
        with pytest.raises(OptimizerError):
            WorkloadDriver(MemoryBackend(db, optimizer), cache=PlanCache(8))

    def test_dml_statements_are_skipped(self, figure4_queries):
        db = _fresh_db()
        driver = WorkloadDriver(
            MemoryBackend(db, Optimizer(db)), parallelism=2
        )
        mixed = list(figure4_queries[:5]) + ["not a query"]
        result = driver.run_mnsa(mixed)
        assert result.iterations > 0

"""MNSA/D's two-phase statistic builds (Sec 5.1 with a sampled step 10).

``figure1`` with ``drop=True`` builds each new statistic from a seeded
:data:`~repro.core.mnsa.MNSAD_SAMPLE_ROWS` sample and, when step 11 sees
the plan move, completes the group (rebuilds it in full, charged as
creation cost) and runs step 11 again.  These tests run MNSA/D over the
``golden_tuning.json`` workloads through a backend that records every
charge, and check what the two phases leave behind and what they cost.
"""

import functools
import json

import pytest

from repro.backends.memory import MemoryBackend
from repro.core import mnsa
from repro.core.mnsa import MNSAD_SAMPLE_ROWS, MnsaConfig, mnsa_for_workload
from repro.core.mnsad import mnsad_for_workload
from repro.optimizer.cache import statistics_fingerprint
from repro.stats.cost import statistic_build_cost

from tests.core.test_tuning_golden import (
    GOLDEN,
    WORKLOADS,
    _workload,
    tuning_outcome,
)


class ChargeRecorder(MemoryBackend):
    """A memory backend that records, in call order, each physical
    build (with the sample it asked for) and each completed statistic,
    and what a completion left of the update ledger."""

    def __init__(self, database):
        super().__init__(database)
        #: (key, sample_rows asked for; None for a completion)
        self.charges = []
        self.completed = set()
        #: (update counts before, after; update cost before, after)
        self.completion_ledgers = []

    def create_stats(self, key, sample_rows=None):
        built = not self.database.stats.has(key)
        super().create_stats(key, sample_rows)
        if built:
            self.charges.append((key, sample_rows))

    def complete_stats(self, keys):
        stats = self.database.stats
        counts = [stats.get(key).update_count for key in keys]
        update_cost = stats.update_cost_total
        completed = super().complete_stats(keys)
        self.charges.extend((key, None) for key in completed)
        self.completed.update(completed)
        self.completion_ledgers.append(
            (
                counts,
                [stats.get(key).update_count for key in keys],
                update_cost,
                stats.update_cost_total,
            )
        )
        return completed


@functools.lru_cache(maxsize=None)
def tuned(name):
    """MNSA/D over ``name`` through a :class:`ChargeRecorder`; shared by
    the tests below, which only read it."""
    database, queries = _workload(name)
    backend = ChargeRecorder(database)
    mnsad_for_workload(backend, queries, config=MnsaConfig())
    return database, backend


@pytest.fixture(params=sorted(WORKLOADS))
def run(request):
    return tuned(request.param)


def test_every_visible_statistic_is_a_full_build(run):
    database, backend = run
    visible = database.stats.visible_statistics()
    assert visible and backend.completed  # the second phase ran
    assert [s.key for s in visible if s.sample_rows is not None] == []


def test_drop_listed_statistics_stay_sampled(run):
    database, backend = run
    stats = database.stats
    never_completed = 0
    for key in stats.drop_list():
        sample_rows = stats.get(key).sample_rows
        if database.row_count(key.table) <= MNSAD_SAMPLE_ROWS:
            assert sample_rows is None, key  # built in full at once
        elif key in backend.completed:
            assert sample_rows is None, key
        else:
            assert sample_rows == MNSAD_SAMPLE_ROWS, key
            never_completed += 1
    assert never_completed > 0


def test_creation_cost_is_sampled_charges_plus_completed_full_charges(run):
    """Summed in the order the manager charged them, so to the bit."""
    database, backend = run
    expected = 0.0
    for key, sample_rows in backend.charges:
        rows = database.row_count(key.table)
        expected += statistic_build_cost(rows, key, sample_rows)
    assert {s for _, s in backend.charges} == {MNSAD_SAMPLE_ROWS, None}
    assert database.stats.creation_cost_total == expected


def test_a_completion_is_not_an_update(run):
    _, backend = run
    assert backend.completion_ledgers
    for counts, after, cost, cost_after in backend.completion_ledgers:
        assert after == counts
        assert cost_after == cost


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_with_no_table_above_the_sample_mnsad_is_the_full_build(
    name, monkeypatch
):
    """Every table within the sample: each statistic builds in full
    once and nothing is completed, so MNSA/D decides what it did before
    the two-phase build (the ``full-build`` golden entries are those
    entries; only their calls and creation cost moved since, when step
    2's default plan became lazy)."""
    golden = json.loads(GOLDEN.read_text())[f"full-build {name}"]
    monkeypatch.setattr(mnsa, "MNSAD_SAMPLE_ROWS", 10**9)
    assert tuning_outcome(name) == golden


def test_mnsa_builds_in_full_and_completes_nothing():
    """MNSA retains everything it creates, so a sample would pay twice;
    its ``mnsa`` golden entries pin what it decides."""
    name = "U25-C-30"
    database, queries = _workload(name)
    backend = ChargeRecorder(database)
    mnsa_for_workload(backend, queries, config=MnsaConfig())
    assert backend.charges
    assert {sample for _, sample in backend.charges} == {None}
    assert not backend.completion_ledgers
    assert all(s.sample_rows is None for s in database.stats.statistics())


def test_completing_a_statistic_changes_the_fingerprint():
    database, queries = _workload("U25-S-100")
    query = next(
        q
        for q in queries
        if any(
            ref.table == "lineitem" for ref in q.relevant_columns()
        )
    )
    ref = next(r for r in query.relevant_columns() if r.table == "lineitem")
    stats = database.stats
    key = stats.create(ref, sample_rows=MNSAD_SAMPLE_ROWS).key
    assert stats.get(key).sample_rows == MNSAD_SAMPLE_ROWS
    sampled = stats.get(key)
    before = statistics_fingerprint(database, query)
    assert stats.complete([key]) == [key]
    full = stats.get(key)
    assert (full.update_count, full.row_count) == (
        sampled.update_count,
        sampled.row_count,
    )
    assert statistics_fingerprint(database, query) != before
    # a second completion has nothing to rebuild and moves nothing
    epoch = stats.epoch
    assert stats.complete([key]) == []
    assert stats.epoch == epoch and stats.get(key) is full

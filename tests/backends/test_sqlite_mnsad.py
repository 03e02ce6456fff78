"""MNSA/D's reused probe on the SQLite analysis backend.

The same exactness check ``tests/core/test_mnsad.py`` runs on the memory
backend: after a drop-listed group MNSA/D reuses its last probe instead
of asking again, and a real probe at each reuse must answer the same.
On SQLite a drop-listed statistic also loses its index at the next
optimize, so SQLite's own planner then sees the indexes the probe's
plans were made with.
"""

import pytest

from repro.backends.sqlite import SqliteBackend

from tests.core.test_mnsad import assert_reused_probes_exact


@pytest.mark.parametrize("workload", ["U25-S-100", "U25-C-30"])
def test_reused_probe_equals_a_real_one_on_sqlite(workload):
    opened = []

    def backend_of(database):
        opened.append(SqliteBackend(database))
        return opened[-1]

    try:
        assert assert_reused_probes_exact(backend_of, workload) > 0
    finally:
        for backend in opened:
            backend.close()

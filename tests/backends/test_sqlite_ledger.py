"""The advisor's convergence property on the SQLite analysis backend.

The same property as ``tests/service/test_ledger.py`` pins for the
default memory backend: analyses run in SQLite and their decisions are
mirrored into the service's statistics manager, whose visible set keys
the verdict ledger.
"""

from tests.util import assert_replay_converges


def test_replay_converges_on_the_sqlite_backend(fresh_tpcd_db):
    assert_replay_converges(
        fresh_tpcd_db(), backend="sqlite", advisor_workers=1
    )

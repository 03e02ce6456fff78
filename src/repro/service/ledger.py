"""The advisor's verdict ledger: analyses already settled are not re-run.

MNSA/D (Sec 5.1) drop-lists a statistic whose creation left the plan
unchanged.  A drop-listed statistic is invisible to estimation, so the
next execution of the same query falls back to a magic number again and
its capture event asks the advisor the same question — which, on the
same statistics and data, gets the same answer: revive, same plan,
drop-list.  The ledger remembers those answers.

A verdict is keyed by what the analysis reads (:func:`verdict_key`): the
query, the correction-model version, the candidates aging withholds from
it, and what the optimizer can see of its tables —
:meth:`~repro.stats.manager.StatisticsManager.versions_for`: the serials
of their visible statistics (numbers, so the ledger keeps no superseded
histogram alive) and their data versions.  A refresh or rebuild misses,
as does any DML and any statistic another analysis retained on one of
the tables; a create followed by a drop-list does not.

Only analyses that left the visible set unchanged are recorded: a
deterministic analysis that went from state K back to K will do so from
K again, so skipping it changes nothing but the work.  See the "Verdict
ledger" section of ``docs/service.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Tuple

from repro.concurrency import guarded_by
from repro.sql.query import Query
from repro.stats.statistic import StatKey

#: verdicts kept; the least recently used beyond this are forgotten
LEDGER_CAPACITY = 1024

#: the fields a ``Query`` compares by, as a tuple.  A key holds these
#: rather than the bound ``Query``, whose planner caches (join graph,
#: enumeration schedules) would otherwise stay alive as long as its
#: verdict.
_query_value = attrgetter(*(f.name for f in fields(Query) if f.compare))


@dataclass(frozen=True)
class Verdict:
    """What one settled analysis decided.

    Attributes:
        stop_reason: the analysis's ``stop_reason``.
        created: statistics it created (each later drop-listed).
        dropped: statistics it drop-listed.
    """

    stop_reason: str
    created: Tuple[StatKey, ...] = ()
    dropped: Tuple[StatKey, ...] = ()


def verdict_key(
    database, query: Query, learned=None, suppressed: Tuple[StatKey, ...] = ()
) -> tuple:
    """The ledger key of analysing ``query`` against ``database`` now.

    ``learned`` is the correction-model version the analysing optimizer
    plans with (``None`` without learned corrections).  ``suppressed``
    are the candidates aging withheld from the analysis: once their
    window closes the same query and statistics key a different
    analysis.  Read both under the analysis locks, right before the
    analysis they key.
    """
    return (
        _query_value(query),
        learned,
        suppressed,
        database.stats.versions_for(query.tables),
    )


class VerdictLedger:
    """A bounded, thread-safe LRU map from :func:`verdict_key` to
    :class:`Verdict`, shared by every advisor worker of a service."""

    _entries = guarded_by("_lock")

    def __init__(self, capacity: int = LEDGER_CAPACITY) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Verdict]" = OrderedDict()

    def settled(self, key: tuple) -> Optional[Verdict]:
        """The verdict recorded under ``key``, or ``None``."""
        with self._lock:
            verdict = self._entries.get(key)
            if verdict is not None:
                self._entries.move_to_end(key)
            return verdict

    def record(self, key: tuple, verdict: Verdict) -> None:
        """Keep ``verdict`` under ``key``, evicting the oldest entries
        beyond the capacity."""
        with self._lock:
            self._entries[key] = verdict
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

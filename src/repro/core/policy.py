"""The aging policy of the online regime (paper Sec 6).

The regime itself — per-query creation, counter-driven refresh, the drop
rule — runs in :mod:`repro.service`.  :class:`AgingPolicy` dampens
re-creation of statistics it dropped, unless the blocked query is
expensive enough that plan quality must win over creation cost.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.concurrency import guarded_by
from repro.errors import PolicyError
from repro.stats.statistic import StatKey


class AgingPolicy:
    """Dampens immediate re-creation of recently dropped statistics.

    Time is a logical statement counter, advanced by :meth:`tick` once
    per served statement (queries and DML alike).  A statistic dropped
    at time T is suppressed from re-creation until ``T + window`` —
    unless the query asking for it has an estimated cost of at least
    ``expensive_query_cost``, in which case plan quality wins (Sec 6:
    "we need to ensure that optimization of significantly expensive
    queries are not adversely affected").

    One policy is shared by the advisor workers and maintenance passes
    of every service shard, so its state takes its own lock.
    """

    _now = guarded_by("_lock")
    _dropped_at = guarded_by("_lock")

    def __init__(
        self, window: int = 50, expensive_query_cost: float = float("inf")
    ) -> None:
        if window < 0:
            raise PolicyError(f"window must be >= 0, got {window}")
        self.window = window
        self.expensive_query_cost = expensive_query_cost
        self._lock = threading.Lock()
        self._now = 0
        self._dropped_at: Dict[StatKey, int] = {}

    def tick(self, statements: int = 1) -> int:
        """Advance the clock by ``statements``; returns the new time."""
        with self._lock:
            self._now += statements
            return self._now

    @property
    def now(self) -> int:
        with self._lock:
            return self._now

    def record_drop(self, key: StatKey) -> None:
        """``key`` was physically dropped now."""
        with self._lock:
            self._dropped_at[key] = self._now

    def suppresses(self, key: StatKey, query_estimated_cost: float) -> bool:
        """Should re-creation of ``key`` be suppressed right now?"""
        with self._lock:
            dropped_at = self._dropped_at.get(key)
            if dropped_at is None:
                return False
            if self._now - dropped_at >= self.window:
                del self._dropped_at[key]
                return False
        return query_estimated_cost < self.expensive_query_cost

    def recently_dropped(self) -> List[StatKey]:
        """Statistics still inside their damping window."""
        with self._lock:
            return sorted(
                key
                for key, when in self._dropped_at.items()
                if self._now - when < self.window
            )

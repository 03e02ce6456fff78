"""Deterministic table -> shard routing for sharded statistics state.

Production auto-administration services shard catalog state so one
tenant's churn cannot serialize every other tenant's optimizations.  The
:class:`ShardRouter` is the single source of truth for that partition:
both the sharded :class:`~repro.stats.manager.StatisticsManager` and the
service front-end (:mod:`repro.service`) route through the same router,
so "the shard of table T" means the same thing at every layer.

Routing is deterministic and insertion-ordered: tables known at
construction are assigned round-robin in sorted-name order (a database
with as many tables as shards gets a perfectly balanced one-table-per-
shard layout), and tables first seen later extend the same round-robin
sequence.  Determinism matters twice over — multi-shard operations
acquire shard locks in ascending shard-id order to stay deadlock-free,
and repeated runs of an experiment must place tables identically.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Tuple

from repro.concurrency import guarded_by
from repro.errors import ServiceError


class ShardRouter:
    """Deterministic, thread-safe table -> shard-id assignment.

    Args:
        shard_count: number of shards (>= 1).
        tables: table names known up front; assigned round-robin in
            sorted order so the layout is independent of call order.
    """

    _assignment = guarded_by("_lock")
    _next_shard = guarded_by("_lock")

    def __init__(self, shard_count: int, tables: Iterable[str] = ()) -> None:
        if shard_count < 1:
            raise ServiceError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        self._count = shard_count
        self._lock = threading.Lock()
        self._assignment: Dict[str, int] = {}
        self._next_shard = 0
        for name in sorted(tables):
            self._assign(name)

    def _assign(self, table: str) -> int:
        with self._lock:
            shard = self._assignment.get(table)
            if shard is None:
                shard = self._next_shard % self._count
                self._assignment[table] = shard
                self._next_shard += 1
            return shard

    @property
    def shard_count(self) -> int:
        return self._count

    def shard_of(self, table: str) -> int:
        """Shard id of ``table``; unseen tables are assigned on demand."""
        return self._assign(table)

    # repro-lint: ascending-source=returns sorted() distinct shard ids; canonical lock order
    def shard_ids_for(self, tables: Iterable[str]) -> Tuple[int, ...]:
        """Distinct shard ids of ``tables``, ascending.

        The ascending order is the canonical multi-shard lock-acquisition
        order: every caller that must hold several shards acquires them
        in exactly this sequence, so two cross-shard operations can never
        deadlock against each other.
        """
        return tuple(sorted({self._assign(t) for t in tables}))

    def assignment(self) -> Dict[str, int]:
        """The full table -> shard map (a copy)."""
        with self._lock:
            return dict(self._assignment)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ShardRouter(shards={self._count}, "
                f"tables={len(self._assignment)})"
            )

"""Online correction model for cardinality estimates.

A correction model maps a feedback target (a :class:`FeedbackKey` plus
an observation *kind*) to a multiplicative factor that the optimizer
applies to its own selectivity estimate before plan choice.  The model
is fed log-space estimate/actual ratios harvested from executed plans
and must stay cheap: the service folds one observation per plan
operator on the query path.

:class:`MultiplicativeCorrection` keeps one exponentially-decayed factor
per exact (table, column-set, kind) target.  It publishes factors with
hysteresis: the internally tracked estimate moves on every observation,
but the *published* factor (the one the optimizer reads) only moves once
the estimate has drifted far enough in log space.  The owning
:class:`~repro.learned.store.CorrectionStore` turns publishes into
version bumps, so hysteresis is what keeps the plan cache from
thrashing on observation noise.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.feedback.observation import FeedbackKey

__all__ = ["MultiplicativeCorrection"]

#: Observation kinds a model distinguishes; a join misestimate must never
#: bleed into filter corrections for the same columns.
KINDS = ("filter", "join", "group")

#: Default hysteresis band (log space) before a factor is re-published.
#: exp(0.22) ~ 1.25: the estimate must move ~25% to change plans.
DEFAULT_DRIFT = 0.22

#: A factor's identity: (table, kind, sorted column names).
_Slot = Tuple[str, str, Tuple[str, ...]]


class _EwmaFactor:
    """Debiased exponentially-weighted estimate of a log correction.

    ``log_raw`` is the running EWMA of observed log ratios and
    ``weight`` its bias correction (the EWMA of 1s), so the effective
    estimate ``log_raw / weight`` equals the first observation exactly
    instead of being shrunk toward zero.  ``log_published`` is the value
    readers see; it snaps to the effective estimate only when the two
    diverge by more than the drift band.
    """

    __slots__ = ("log_raw", "weight", "log_published", "count")

    def __init__(self) -> None:
        self.log_raw = 0.0
        self.weight = 0.0
        self.log_published = 0.0
        self.count = 0

    def absorb(self, log_ratio: float, decay: float, drift: float) -> bool:
        self.log_raw = decay * self.log_raw + (1.0 - decay) * log_ratio
        self.weight = decay * self.weight + (1.0 - decay)
        self.count += 1
        effective = self.log_raw / self.weight
        if abs(effective - self.log_published) > drift:
            self.log_published = effective
            return True
        return False


class MultiplicativeCorrection:
    """Exact per-(table, column-set, kind) decayed multiplicative factors,
    kept in an LRU map keyed ``(table, kind, columns)`` — the table comes
    first so per-table invalidation stays a linear sweep.

    Not thread-safe on its own; the
    :class:`~repro.learned.store.CorrectionStore` serializes access
    under its lock.
    """

    def __init__(
        self, decay: float = 0.8, drift: float = DEFAULT_DRIFT
    ) -> None:
        if not 0.0 < decay < 1.0:
            raise ServiceError(f"decay must be in (0, 1), got {decay}")
        if drift < 0.0:
            raise ServiceError(f"drift must be >= 0, got {drift}")
        self._decay = decay
        self._drift = drift
        self._entries: "OrderedDict[_Slot, _EwmaFactor]" = OrderedDict()

    def absorb(self, key: FeedbackKey, kind: str, log_ratio: float) -> bool:
        """Absorb one log(actual/estimated) ratio for ``key``.

        Returns ``True`` iff the *published* factor moved — the signal
        the store turns into a correction-model version bump.
        """
        slot = (key.table, kind, key.columns)
        state = self._entries.get(slot)
        if state is None:
            state = _EwmaFactor()
            self._entries[slot] = state
        else:
            self._entries.move_to_end(slot)
        return state.absorb(log_ratio, self._decay, self._drift)

    def factor(self, key: FeedbackKey, kind: str) -> Optional[float]:
        """The published multiplicative correction, or ``None`` if
        nothing was learned for ``key``."""
        state = self._entries.get((key.table, kind, key.columns))
        if state is None:
            return None
        return math.exp(state.log_published)

    def drop_table(self, table: str) -> int:
        """Drop every factor learned for ``table``; returns the count."""
        stale = [slot for slot in self._entries if slot[0] == table]
        for slot in stale:
            del self._entries[slot]
        return len(stale)

    def trim(self, capacity: int) -> int:
        """Evict least-recently-observed entries down to ``capacity``;
        returns the number evicted."""
        evicted = 0
        while len(self._entries) > capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def size(self) -> int:
        """Number of tracked factor entries."""
        return len(self._entries)

    def snapshot_rows(self) -> List[Tuple[str, str, Dict[str, float]]]:
        """``(target_label, kind, aggregates)`` rows, strongest first."""
        rows = [
            (
                str(FeedbackKey(table, columns)),
                kind,
                {
                    "factor": math.exp(state.log_published),
                    "count": float(state.count),
                },
            )
            for (table, kind, columns), state in self._entries.items()
        ]
        rows.sort(key=lambda row: abs(math.log(row[2]["factor"])), reverse=True)
        return rows

"""Thread-safe, bounded storage of execution feedback.

:class:`FeedbackStore` is the one store of what executed plans taught
the system, keyed by (table, column-set) :class:`FeedbackKey`.  Each
entry is a :class:`QErrorTracker`: streaming q-error aggregates and,
when the store learns corrections, one debiased EWMA correction factor
per operator kind.  The executor feeds it (one :meth:`record_all` per
executed plan) and two read views consume it:

* decayed q-error (:meth:`~FeedbackStore.q_error_for_columns`,
  :meth:`~FeedbackStore.tables_by_error`, ...) for the
  :class:`~repro.feedback.policy.FeedbackPolicy` and MNSA's next-stat
  choice;
* ``correct_filter`` / ``correct_join`` / ``correct_group`` plus a
  monotone :attr:`~FeedbackStore.version` for the selectivity
  estimator, the plan cache and the verdict ledger.

The store is sized like the capture log: per-target state is constant
size and the number of targets is capped with least-recently-observed
eviction.  Recording never blocks beyond a short mutex hold and never
fails the query path.

Versioning contract (what the plan cache depends on): the version moves
exactly when the correction view can answer differently — once per
observation whose published factor moved, on eviction of an entry that
held factors, and on every :meth:`~FeedbackStore.invalidate`.  Factors
publish with hysteresis: the tracked estimate moves on every
observation, the published factor only once it has drifted
:data:`DRIFT` in log space, so observation noise does not thrash the
plan cache.  Corrections are dropped when the table's statistics are
rebuilt or refreshed, *not* on DML — data churn between refreshes is
exactly when a correction earns its keep.
"""

from __future__ import annotations

import collections
import math
import threading
from typing import Deque, Dict, Iterable, List, Tuple

from repro.concurrency import guarded_by
from repro.errors import ServiceError
from repro.feedback.observation import (
    MIN_CARDINALITY,
    FeedbackKey,
    OperatorObservation,
)

#: per-tracker ring size backing the streaming p95 estimate
_SAMPLE_WINDOW = 64

#: Plan-operator kinds that train a correction factor, and the factor
#: kind each maps to: a join misestimate must never bleed into filter
#: corrections for the same columns.  ``having`` and ``sort`` operators
#: carry no targets.
_OPERATOR_KINDS = {
    "scan": "filter",
    "seek": "filter",
    "join": "join",
    "aggregate": "group",
}

#: Hysteresis band (log space) before a factor is re-published.
#: exp(0.22) ~ 1.25: the estimate must move ~25% to change plans.
DRIFT = 0.22


class _EwmaFactor:
    """Debiased exponentially-weighted estimate of a log correction.

    ``log_raw`` is the running EWMA of observed log ratios and
    ``weight`` its bias correction (the EWMA of 1s), so the effective
    estimate ``log_raw / weight`` equals the first observation exactly
    instead of being shrunk toward zero.  ``log_published`` is the value
    readers see; it snaps to the effective estimate only when the two
    diverge by more than :data:`DRIFT`.
    """

    __slots__ = ("log_raw", "weight", "log_published")

    def __init__(self) -> None:
        self.log_raw = 0.0
        self.weight = 0.0
        self.log_published = 0.0

    def absorb(self, log_ratio: float, decay: float) -> bool:
        """Fold one log ratio; ``True`` iff the published value moved."""
        self.log_raw = decay * self.log_raw + (1.0 - decay) * log_ratio
        self.weight = decay * self.weight + (1.0 - decay)
        effective = self.log_raw / self.weight
        if abs(effective - self.log_published) > DRIFT:
            self.log_published = effective
            return True
        return False


class QErrorTracker:
    """Everything the store keeps for one feedback target.

    Constant-space q-error aggregates: a running count, the all-time
    maximum, an exponentially decayed maximum (so a target that
    estimated badly long ago but has been accurate since fades below the
    refresh thresholds), and a bounded ring of recent errors backing a
    p95 estimate.  ``factors`` maps an operator kind to its correction
    factor; only a store that learns corrections fills it.

    Not individually locked — the owning :class:`FeedbackStore` guards
    all tracker access with its own lock.
    """

    __slots__ = (
        "count",
        "max_q_error",
        "decayed_q_error",
        "last_estimated",
        "last_actual",
        "factors",
        "_recent",
        "_decay",
    )

    def __init__(self, decay: float = 0.9) -> None:
        if not 0.0 < decay <= 1.0:
            raise ServiceError(f"decay must be in (0, 1], got {decay}")
        self.count = 0
        self.max_q_error = 1.0
        self.decayed_q_error = 1.0
        self.last_estimated = 0.0
        self.last_actual = 0
        self.factors: Dict[str, _EwmaFactor] = {}
        self._recent: Deque[float] = collections.deque(
            maxlen=_SAMPLE_WINDOW
        )
        self._decay = decay

    def absorb(self, observation: OperatorObservation) -> None:
        """Fold one observation into the q-error aggregates.

        Named distinctly from :meth:`FeedbackStore.record_all` on
        purpose: the store calls this under its lock, and the repo's
        lock-order lint resolves calls by method name.
        """
        q = observation.q_error
        self.count += 1
        self.max_q_error = max(self.max_q_error, q)
        # decay first, then absorb: one bad estimate dominates until
        # ~log(threshold)/log(1/decay) accurate observations wash it out
        self.decayed_q_error = max(q, self.decayed_q_error * self._decay)
        self.last_estimated = observation.estimated_rows
        self.last_actual = observation.actual_rows
        self._recent.append(q)

    def p95_q_error(self) -> float:
        """95th percentile over the recent-observation window."""
        if not self._recent:
            return 1.0
        ordered = sorted(self._recent)
        index = min(len(ordered) - 1, int(0.95 * len(ordered)))
        return ordered[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QErrorTracker(count={self.count}, "
            f"max={self.max_q_error:.2f}, "
            f"decayed={self.decayed_q_error:.2f})"
        )


def _clamp_unit(value: float) -> float:
    return min(1.0, max(0.0, value))


class FeedbackStore:
    """Bounded, thread-safe map of feedback targets to their trackers.

    Args:
        capacity: maximum number of distinct (table, column-set) targets
            tracked; beyond it the least-recently-observed target is
            evicted (counted in ``feedback.evicted``).
        decay: per-observation decay of each tracker's decayed maximum.
        metrics: optional metrics registry (duck-typed; anything with
            ``gauge``) mirrored as ``feedback.*`` and, when corrections
            are learned, ``correction.*``.
        corrections: learn per-kind correction factors from the
            observations (off: the correction view is the identity).
        correction_decay: EWMA decay of each factor, in (0, 1).
        max_factor: corrections are bounded to
            ``[1/max_factor, max_factor]`` both when absorbing ratios
            and when applied to an estimate.
    """

    # repro-lint: optimize-path
    # repro-lint: versioned-by=_trackers:_epoch

    _trackers = guarded_by("_lock")
    _epoch = guarded_by("_lock")
    observations_total = guarded_by("_lock")
    evicted_total = guarded_by("_lock")
    resets_total = guarded_by("_lock")
    hits_total = guarded_by("_lock")
    misses_total = guarded_by("_lock")
    invalidations_total = guarded_by("_lock")

    def __init__(
        self,
        capacity: int = 512,
        decay: float = 0.9,
        metrics=None,
        corrections: bool = False,
        correction_decay: float = 0.8,
        max_factor: float = 32.0,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < correction_decay < 1.0:
            raise ServiceError(
                f"correction_decay must be in (0, 1), got {correction_decay}"
            )
        if max_factor <= 1.0:
            raise ServiceError(f"max_factor must be > 1, got {max_factor}")
        self.capacity = capacity
        self.corrections = corrections
        self.max_factor = max_factor
        self._decay = decay
        self._correction_decay = correction_decay
        self._metrics = metrics
        self._lock = threading.Lock()
        #: insertion order == recency order (moved on every record)
        self._trackers: "collections.OrderedDict[FeedbackKey, QErrorTracker]" = (
            collections.OrderedDict()
        )
        self._epoch = 0
        self.observations_total = 0
        self.evicted_total = 0
        self.resets_total = 0
        self.hits_total = 0
        self.misses_total = 0
        self.invalidations_total = 0

    # ------------------------------------------------------------------
    # the feed
    # ------------------------------------------------------------------

    def record_all(
        self, observations: Iterable[OperatorObservation]
    ) -> None:
        # repro-lint: epoch-exempt=the version moves only when a published factor drifts or an entry holding factors is evicted; per-observation aggregate churn must not thrash the plan cache
        """Fold one executed plan's observations under one lock
        acquisition, and publish the gauges once."""
        folded = False
        cap = math.log(self.max_factor)
        with self._lock:
            for observation in observations:
                folded = True
                self.observations_total += 1
                kind = None
                if self.corrections:
                    kind = _OPERATOR_KINDS.get(observation.operator)
                if kind is not None:
                    estimated = max(
                        MIN_CARDINALITY, float(observation.estimated_rows)
                    )
                    actual = max(
                        MIN_CARDINALITY, float(observation.actual_rows)
                    )
                    log_ratio = max(
                        -cap, min(cap, math.log(actual / estimated))
                    )
                moved = False
                for key in observation.targets:
                    tracker = self._trackers.get(key)
                    if tracker is None:
                        tracker = QErrorTracker(self._decay)
                        self._trackers[key] = tracker
                        while len(self._trackers) > self.capacity:
                            _, evicted = self._trackers.popitem(last=False)
                            self.evicted_total += 1
                            moved = moved or bool(evicted.factors)
                    else:
                        self._trackers.move_to_end(key)
                    tracker.absorb(observation)
                    if kind is not None:
                        factor = tracker.factors.get(kind)
                        if factor is None:
                            factor = tracker.factors[kind] = _EwmaFactor()
                        if factor.absorb(log_ratio, self._correction_decay):
                            moved = True
                if moved:
                    self._epoch += 1
        if folded:
            self._publish_metrics()

    # ------------------------------------------------------------------
    # the q-error view
    # ------------------------------------------------------------------

    def worst_q_error(self) -> float:
        """Largest decayed q-error across every tracked target."""
        with self._lock:
            return max(
                (t.decayed_q_error for t in self._trackers.values()),
                default=1.0,
            )

    def q_error_for_columns(self, table: str, columns) -> float:
        """Largest decayed q-error on ``table`` whose tracked column set
        overlaps ``columns`` — how badly the optimizer has been
        misestimating predicates a statistic over ``columns`` would
        serve.  Returns 1.0 when nothing relevant was observed."""
        wanted = set(columns)
        with self._lock:
            worst = 1.0
            for key, tracker in self._trackers.items():
                if key.table == table and wanted & set(key.columns):
                    worst = max(worst, tracker.decayed_q_error)
            return worst

    def tables_by_error(self, threshold: float = 1.0) -> List[str]:
        """Tables whose decayed error reaches ``threshold``, worst first.

        Ties break on table name so the ordering is deterministic.
        """
        by_table: Dict[str, float] = {}
        with self._lock:
            for key, tracker in self._trackers.items():
                current = by_table.get(key.table, 1.0)
                by_table[key.table] = max(
                    current, tracker.decayed_q_error
                )
        due = [
            (error, table)
            for table, error in by_table.items()
            if error >= threshold
        ]
        return [table for error, table in sorted(due, key=lambda p: (-p[0], p[1]))]

    def snapshot(self) -> List[Tuple[FeedbackKey, dict]]:
        """All trackers as ``(key, aggregate dict)`` rows, worst first;
        ``factors`` maps each learned kind to its published factor."""
        with self._lock:
            rows = [
                (
                    key,
                    {
                        "count": tracker.count,
                        "max_q_error": tracker.max_q_error,
                        "decayed_q_error": tracker.decayed_q_error,
                        "p95_q_error": tracker.p95_q_error(),
                        "last_estimated": tracker.last_estimated,
                        "last_actual": tracker.last_actual,
                        "factors": {
                            kind: math.exp(factor.log_published)
                            for kind, factor in tracker.factors.items()
                        },
                    },
                )
                for key, tracker in self._trackers.items()
            ]
        return sorted(
            rows,
            key=lambda row: (-row[1]["decayed_q_error"], str(row[0])),
        )

    # ------------------------------------------------------------------
    # the correction view
    # ------------------------------------------------------------------

    def correct_filter(
        self, table: str, columns: Iterable[str], selectivity: float
    ) -> float:
        # repro-lint: epoch-exempt=hit/miss counters are observability, not planner-visible state
        """Corrected filter selectivity for predicates on ``columns``."""
        key = FeedbackKey.of(table, columns)
        if not key.columns:
            return _clamp_unit(selectivity)
        return self._apply(selectivity, self._factors("filter", (key,)))

    def correct_join(
        self,
        left_table: str,
        left_columns: Iterable[str],
        right_table: str,
        right_columns: Iterable[str],
        selectivity: float,
    ) -> float:
        # repro-lint: epoch-exempt=hit/miss counters are observability, not planner-visible state
        """Corrected join selectivity.

        The instrumenter records a join misestimate against *both* sides'
        keys, so the applied factor is the geometric mean of whatever the
        two sides have learned; a single known side is used alone.
        """
        factors = self._factors(
            "join",
            (
                FeedbackKey.of(left_table, left_columns),
                FeedbackKey.of(right_table, right_columns),
            ),
        )
        if len(factors) == 2:
            factors = [math.sqrt(factors[0] * factors[1])]
        return self._apply(selectivity, factors)

    def correct_group(
        self, table: str, columns: Iterable[str], fraction: float
    ) -> float:
        # repro-lint: epoch-exempt=hit/miss counters are observability, not planner-visible state
        """Corrected group-by distinct fraction."""
        key = FeedbackKey.of(table, columns)
        if not key.columns:
            return _clamp_unit(fraction)
        return self._apply(fraction, self._factors("group", (key,)))

    def _factors(self, kind: str, keys) -> List[float]:
        # repro-lint: epoch-exempt=hit/miss counters are observability, not planner-visible state
        """The published ``kind`` factors of ``keys`` (one hit or miss)."""
        with self._lock:
            found = []
            for key in keys:
                tracker = self._trackers.get(key)
                factor = None if tracker is None else tracker.factors.get(kind)
                if factor is not None:
                    found.append(math.exp(factor.log_published))
            if found:
                self.hits_total += 1
            else:
                self.misses_total += 1
        return found

    def _apply(self, value: float, factors: List[float]) -> float:
        if not factors:
            return _clamp_unit(value)
        factor = min(self.max_factor, max(1.0 / self.max_factor, factors[0]))
        return _clamp_unit(value * factor)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate(self, table: str, columns=None) -> int:
        """Forget what ``table``'s rebuilt statistics made stale.

        Resets the trackers of ``table``'s targets overlapping
        ``columns`` (every target of the table when ``None``: a refresh)
        and drops every correction factor of the table — a rebuilt
        histogram starts from trust-the-stats.  The version bump is
        unconditional, so any cached plan shaped by the dropped factors
        is re-optimized.  Returns the number of trackers reset.
        """
        wanted = None if columns is None else set(columns)
        with self._lock:
            reset = 0
            for key in [k for k in self._trackers if k.table == table]:
                tracker = self._trackers[key]
                self.invalidations_total += len(tracker.factors)
                if wanted is None or wanted & set(key.columns):
                    del self._trackers[key]
                    reset += 1
                else:
                    tracker.factors.clear()
            self.resets_total += reset
            self._epoch += 1
        self._publish_metrics()
        return reset

    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone correction version (plan-cache key component)."""
        with self._lock:
            return self._epoch

    def __len__(self) -> int:
        with self._lock:
            return len(self._trackers)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "observations": self.observations_total,
                "tracked": len(self._trackers),
                "evicted": self.evicted_total,
                "resets": self.resets_total,
                "hits": self.hits_total,
                "misses": self.misses_total,
                "invalidations": self.invalidations_total,
                "version": self._epoch,
            }

    def _publish_metrics(self) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        counters = self.counters()
        metrics.gauge("feedback.observations", counters["observations"])
        metrics.gauge("feedback.tracked_targets", counters["tracked"])
        metrics.gauge("feedback.evicted", counters["evicted"])
        metrics.gauge("feedback.worst_q_error", self.worst_q_error())
        if self.corrections:
            metrics.gauge("correction.hits", counters["hits"])
            metrics.gauge("correction.misses", counters["misses"])
            metrics.gauge(
                "correction.invalidations", counters["invalidations"]
            )
            metrics.gauge("correction.version", counters["version"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"FeedbackStore(tracked={len(self._trackers)}/"
                f"{self.capacity}, observations={self.observations_total})"
            )


def worst_plan_q_error(
    observations: Iterable[OperatorObservation],
) -> float:
    """The worst q-error across one executed plan's operators.

    Only operators with statistics targets count — a sort or HAVING
    node's cardinality error is not actionable feedback.
    """
    worst = 1.0
    for observation in observations:
        if observation.targets:
            worst = max(worst, observation.q_error)
    return worst

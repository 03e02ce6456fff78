"""Thread-safe, bounded storage of execution-feedback aggregates.

:class:`QErrorTracker` keeps streaming error aggregates for one
(table, column-set) target; :class:`FeedbackStore` owns a bounded map of
trackers shared by the executor (producer), the staleness monitor and
advisor workers (consumers), and the metrics dump.

The store is sized like the capture log: a hot production server sees an
unbounded stream of observations, so per-target aggregates are constant
size and the number of targets is capped with least-recently-observed
eviction.  Recording never blocks beyond a short mutex hold and never
fails the query path.
"""

from __future__ import annotations

import collections
import threading
from typing import Deque, Dict, Iterable, List, Tuple

from repro.concurrency import guarded_by
from repro.errors import ServiceError
from repro.feedback.observation import FeedbackKey, OperatorObservation

#: per-tracker ring size backing the streaming p95 estimate
_SAMPLE_WINDOW = 64


class QErrorTracker:
    """Streaming q-error aggregates for one feedback target.

    Constant-space: a running count, the all-time maximum, an
    exponentially decayed maximum (so a target that estimated badly long
    ago but has been accurate since fades below the refresh thresholds),
    and a bounded ring of recent errors backing a p95 estimate.

    Not individually locked — the owning :class:`FeedbackStore` guards
    all tracker access with its own lock.
    """

    __slots__ = (
        "count",
        "max_q_error",
        "decayed_q_error",
        "last_estimated",
        "last_actual",
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
        self._recent: Deque[float] = collections.deque(
            maxlen=_SAMPLE_WINDOW
        )
        self._decay = decay

    def absorb(self, observation: OperatorObservation) -> None:
        """Fold one observation into the aggregates.

        Named distinctly from :meth:`FeedbackStore.record` on purpose:
        the store calls this under its lock, and the repo's lock-order
        lint resolves calls by method name.
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


class FeedbackStore:
    """Bounded, thread-safe map of feedback targets to error trackers.

    Args:
        capacity: maximum number of distinct (table, column-set) targets
            tracked; beyond it the least-recently-observed target is
            evicted (counted in ``feedback.evicted``).
        decay: per-observation decay of each tracker's decayed maximum.
        metrics: optional metrics registry (duck-typed; anything with
            ``inc``/``gauge``) mirrored as ``feedback.*``.
    """

    _trackers = guarded_by("_lock")
    observations_total = guarded_by("_lock")
    evicted_total = guarded_by("_lock")
    resets_total = guarded_by("_lock")

    def __init__(
        self,
        capacity: int = 512,
        decay: float = 0.9,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._decay = decay
        self._metrics = metrics
        self._lock = threading.Lock()
        #: insertion order == recency order (moved on every record)
        self._trackers: "collections.OrderedDict[FeedbackKey, QErrorTracker]" = (
            collections.OrderedDict()
        )
        self.observations_total = 0
        self.evicted_total = 0
        self.resets_total = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    def record(self, observation: OperatorObservation) -> None:
        """Fold one operator observation into its targets' trackers."""
        self.record_all((observation,))

    def record_all(
        self, observations: Iterable[OperatorObservation]
    ) -> None:
        """Fold a batch — one executed plan's operators — under one lock
        acquisition, and publish the gauges once: they are last-write, so
        a reader after the batch sees what it would after n single
        :meth:`record` calls."""
        folded = False
        with self._lock:
            for observation in observations:
                folded = True
                self.observations_total += 1
                for key in observation.targets:
                    tracker = self._trackers.get(key)
                    if tracker is None:
                        tracker = QErrorTracker(self._decay)
                        self._trackers[key] = tracker
                        while len(self._trackers) > self.capacity:
                            self._trackers.popitem(last=False)
                            self.evicted_total += 1
                    else:
                        self._trackers.move_to_end(key)
                    tracker.absorb(observation)
        if folded:
            self._publish_metrics()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------

    def worst_q_error(self) -> float:
        """Largest decayed q-error across every tracked target."""
        with self._lock:
            if not self._trackers:
                return 1.0
            return max(
                t.decayed_q_error for t in self._trackers.values()
            )

    def table_q_error(self, table: str) -> float:
        """Largest decayed q-error attributed to ``table`` (1.0 if none)."""
        with self._lock:
            worst = 1.0
            for key, tracker in self._trackers.items():
                if key.table == table:
                    worst = max(worst, tracker.decayed_q_error)
            return worst

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
        """All trackers as ``(key, aggregate dict)`` rows, worst first."""
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
                    },
                )
                for key, tracker in self._trackers.items()
            ]
        return sorted(
            rows,
            key=lambda row: (-row[1]["decayed_q_error"], str(row[0])),
        )

    # ------------------------------------------------------------------
    # feedback-consumer resets
    # ------------------------------------------------------------------

    def reset_table(self, table: str) -> int:
        """Forget every aggregate attributed to ``table``.

        Called after the table's statistics were refreshed: the old
        errors described the *previous* statistics and must not keep the
        table looking due.  Returns the number of targets cleared.
        """
        with self._lock:
            stale = [k for k in self._trackers if k.table == table]
            for key in stale:
                del self._trackers[key]
            self.resets_total += len(stale)
        self._publish_metrics()
        return len(stale)

    def reset_columns(self, table: str, columns) -> int:
        """Forget aggregates on ``table`` overlapping ``columns``."""
        wanted = set(columns)
        with self._lock:
            stale = [
                k
                for k in self._trackers
                if k.table == table and wanted & set(k.columns)
            ]
            for key in stale:
                del self._trackers[key]
            self.resets_total += len(stale)
        self._publish_metrics()
        return len(stale)

    # ------------------------------------------------------------------

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
            }

    def _publish_metrics(self) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        with self._lock:
            observations = self.observations_total
            tracked = len(self._trackers)
            evicted = self.evicted_total
            worst = max(
                (t.decayed_q_error for t in self._trackers.values()),
                default=1.0,
            )
        metrics.gauge("feedback.observations", observations)
        metrics.gauge("feedback.tracked_targets", tracked)
        metrics.gauge("feedback.evicted", evicted)
        metrics.gauge("feedback.worst_q_error", worst)

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

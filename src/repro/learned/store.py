"""Thread-safe store of learned selectivity corrections.

The :class:`CorrectionStore` is the one learned-subsystem object shared
across threads: the service's query path folds
:class:`~repro.feedback.observation.OperatorObservation` records into it
after execution, every optimizer consults it during selectivity
estimation, and the staleness monitor / advisor workers invalidate table
slices when a statistics rebuild lands.

Versioning contract (what the plan cache depends on): ``version`` is a
monotone counter that moves exactly when the store's *visible* behavior
can change — a published factor moved, an entry was evicted, or a table
was invalidated.  :meth:`~repro.optimizer.optimizer.Optimizer` folds the
version into the plan-cache key, so a cached plan is only reused while
the corrections that shaped it still stand.  Observation churn that does
not move a published factor deliberately does not bump the version;
hysteresis in the model layer is what keeps the cache warm.

Invalidation semantics: corrections are dropped when the owning table's
statistics are rebuilt or refreshed (a rebuilt histogram starts from
trust-the-stats), *not* on DML — data churn between refreshes is exactly
when a learned correction earns its keep.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.concurrency import guarded_by
from repro.errors import ServiceError
from repro.feedback.observation import (
    MIN_CARDINALITY,
    FeedbackKey,
    OperatorObservation,
)
from repro.learned.model import MultiplicativeCorrection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.service.metrics import MetricsRegistry

__all__ = ["CorrectionStore"]

#: Plan-operator kinds that feed a correction model, and the model kind
#: each maps to.  ``having`` and ``sort`` operators carry no targets.
_OPERATOR_KINDS = {
    "scan": "filter",
    "seek": "filter",
    "join": "join",
    "aggregate": "group",
}


def _clamp_unit(value: float) -> float:
    return min(1.0, max(0.0, value))


class CorrectionStore:
    """Online per-(table, column-set) selectivity corrections.

    Parameters
    ----------
    capacity:
        Maximum tracked factor entries; least-recently-observed entries
        are evicted beyond it.
    decay:
        EWMA decay applied per observation (closer to 1 = slower).
    max_factor:
        Corrections are bounded to ``[1/max_factor, max_factor]`` both
        when absorbing ratios and when applied to an estimate.
    """

    # repro-lint: optimize-path
    # repro-lint: versioned-by=_model:_epoch

    _model = guarded_by("_lock")
    _epoch = guarded_by("_lock")
    observations_total = guarded_by("_lock")
    hits_total = guarded_by("_lock")
    misses_total = guarded_by("_lock")
    invalidations_total = guarded_by("_lock")
    evictions_total = guarded_by("_lock")

    def __init__(
        self,
        capacity: int = 512,
        decay: float = 0.8,
        max_factor: float = 32.0,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if max_factor <= 1.0:
            raise ServiceError(f"max_factor must be > 1, got {max_factor}")
        self.capacity = capacity
        self.decay = decay
        self.max_factor = max_factor
        self._metrics = metrics
        self._lock = threading.Lock()
        self._model = MultiplicativeCorrection(decay=decay)
        self._epoch = 0
        self.observations_total = 0
        self.hits_total = 0
        self.misses_total = 0
        self.invalidations_total = 0
        self.evictions_total = 0

    # -- feeding --------------------------------------------------------

    def observe(self, observation: OperatorObservation) -> bool:
        # repro-lint: epoch-exempt=the version moves only when a published factor drifts; per-observation counter churn must not thrash the plan cache
        """Fold one operator observation; returns ``True`` iff the
        correction-model version moved."""
        kind = _OPERATOR_KINDS.get(observation.operator)
        if kind is None or not observation.targets:
            return False
        estimated = max(MIN_CARDINALITY, float(observation.estimated_rows))
        actual = max(MIN_CARDINALITY, float(observation.actual_rows))
        cap = math.log(self.max_factor)
        log_ratio = max(-cap, min(cap, math.log(actual / estimated)))
        with self._lock:
            self.observations_total += 1
            published = False
            for key in observation.targets:
                published = self._model.absorb(key, kind, log_ratio) or published
            evicted = self._model.trim(self.capacity)
            if evicted:
                self.evictions_total += evicted
            if published or evicted:
                self._epoch += 1
            bumped = published or bool(evicted)
        self._publish_metrics()
        return bumped

    def observe_all(self, observations: Iterable[OperatorObservation]) -> int:
        """Fold a batch of observations; returns how many version bumps
        they caused."""
        return sum(1 for obs in observations if self.observe(obs))

    # -- correcting -----------------------------------------------------

    def correct_filter(
        self, table: str, columns: Iterable[str], selectivity: float
    ) -> float:
        # repro-lint: epoch-exempt=hit/miss counters are observability, not planner-visible state
        """Corrected filter selectivity for predicates on ``columns``."""
        key = FeedbackKey.of(table, columns)
        if not key.columns:
            return _clamp_unit(selectivity)
        with self._lock:
            factor = self._model.factor(key, "filter")
            if factor is None:
                self.misses_total += 1
            else:
                self.hits_total += 1
        return self._apply(selectivity, factor)

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
        left_key = FeedbackKey.of(left_table, left_columns)
        right_key = FeedbackKey.of(right_table, right_columns)
        with self._lock:
            left = self._model.factor(left_key, "join")
            right = self._model.factor(right_key, "join")
            if left is None and right is None:
                self.misses_total += 1
            else:
                self.hits_total += 1
        if left is None and right is None:
            return _clamp_unit(selectivity)
        if left is None:
            factor = right
        elif right is None:
            factor = left
        else:
            factor = math.sqrt(left * right)
        return self._apply(selectivity, factor)

    def correct_group(
        self, table: str, columns: Iterable[str], fraction: float
    ) -> float:
        # repro-lint: epoch-exempt=hit/miss counters are observability, not planner-visible state
        """Corrected group-by distinct fraction."""
        key = FeedbackKey.of(table, columns)
        if not key.columns:
            return _clamp_unit(fraction)
        with self._lock:
            factor = self._model.factor(key, "group")
            if factor is None:
                self.misses_total += 1
            else:
                self.hits_total += 1
        return self._apply(fraction, factor)

    def _apply(self, value: float, factor: Optional[float]) -> float:
        if factor is None:
            return _clamp_unit(value)
        factor = min(self.max_factor, max(1.0 / self.max_factor, factor))
        return _clamp_unit(value * factor)

    # -- invalidation ---------------------------------------------------

    def invalidate_table(self, table: str) -> int:
        """Drop every correction learned for ``table``.

        Called when the table's statistics are rebuilt or refreshed; the
        version bump is unconditional so any cached plan shaped by the
        dropped corrections is re-optimized.
        """
        with self._lock:
            dropped = self._model.drop_table(table)
            self.invalidations_total += dropped
            self._epoch += 1
        self._publish_metrics()
        return dropped

    def clear(self) -> None:
        """Forget everything (corrections and counters stay separate:
        lifetime counters are preserved)."""
        with self._lock:
            self._model = MultiplicativeCorrection(decay=self.decay)
            self._epoch += 1
        self._publish_metrics()

    # -- introspection --------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone correction-model version (plan-cache key component)."""
        with self._lock:
            return self._epoch

    def __len__(self) -> int:
        with self._lock:
            return self._model.size()

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "observations": self.observations_total,
                "hits": self.hits_total,
                "misses": self.misses_total,
                "invalidations": self.invalidations_total,
                "evictions": self.evictions_total,
                "tracked": self._model.size(),
                "version": self._epoch,
            }

    def snapshot(self) -> List[Tuple[str, str, Dict[str, float]]]:
        """``(target_label, kind, aggregates)`` rows, strongest first."""
        with self._lock:
            return self._model.snapshot_rows()

    def _publish_metrics(self) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        with self._lock:
            observations = self.observations_total
            hits = self.hits_total
            misses = self.misses_total
            invalidations = self.invalidations_total
            evictions = self.evictions_total
            tracked = self._model.size()
            version = self._epoch
        metrics.gauge("correction.observations", float(observations))
        metrics.gauge("correction.hits", float(hits))
        metrics.gauge("correction.misses", float(misses))
        metrics.gauge("correction.invalidations", float(invalidations))
        metrics.gauge("correction.evictions", float(evictions))
        metrics.gauge("correction.tracked_models", float(tracked))
        metrics.gauge("correction.version", float(version))

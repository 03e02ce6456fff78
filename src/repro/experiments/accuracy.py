"""Cardinality-estimation accuracy metrics (q-error).

Not a paper table, but the mechanism *behind* every paper table: better
statistics means estimated cardinalities closer to actual ones, which is
what flips plans.  The q-error of an estimate e against actual a is
``max(e, a) / min(e, a)`` (>= 1, 1 is perfect); we report the geometric
mean over a workload, the standard metric in the cardinality-estimation
literature.  The q-error itself is
:func:`repro.feedback.observation.q_error`, the one the feedback loop uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.executor import Executor
from repro.feedback.observation import q_error
from repro.optimizer import Optimizer
from repro.sql.query import Query


@dataclass
class AccuracyReport:
    """Cardinality accuracy of root-operator estimates over a workload.

    Attributes:
        q_errors: per-query q-error of the final operator's row estimate.
        geometric_mean: the headline number (1.0 = perfect).
        max_error: the worst query.
    """

    q_errors: List[float]

    @property
    def geometric_mean(self) -> float:
        if not self.q_errors:
            return 1.0
        return math.exp(
            sum(math.log(q) for q in self.q_errors) / len(self.q_errors)
        )

    @property
    def max_error(self) -> float:
        return max(self.q_errors) if self.q_errors else 1.0


def estimation_accuracy(
    database, queries: Iterable[Query]
) -> AccuracyReport:
    """Q-errors of root cardinality estimates under current statistics."""
    optimizer = Optimizer(database)
    executor = Executor(database)
    errors = []
    for query in queries:
        result = optimizer.optimize(query)
        executed = executor.execute(result.plan, query)
        errors.append(q_error(result.rows, executed.row_count))
    return AccuracyReport(q_errors=errors)

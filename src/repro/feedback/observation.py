"""Per-operator estimated-vs-actual cardinality observations.

The optimizer annotates every :class:`~repro.optimizer.plans.PlanNode`
with its estimated output cardinality (``node.rows``); the executor knows
the *actual* cardinality the moment each operator finishes.  This module
defines the value that closes the gap:

* :func:`q_error` — the standard multiplicative estimation-error metric,
  hardened against the zero-cardinality edge cases so no ``inf`` / NaN
  ever reaches an aggregate;
* :class:`OperatorObservation` — one operator's (estimate, actual,
  q-error) triple plus the statistics targets it attributes the error to;
* :class:`PlanInstrumenter` — extracts, *from the plan alone*, the
  estimate-side half of every observation: estimated rows, operator kind,
  and the (table, column-set) feedback targets each operator's estimate
  depended on.

The executor zips the instrumenter's annotations with observed row
counts (see :meth:`repro.executor.executor.Executor.execute`) and the
resulting observations flow into a
:class:`~repro.feedback.store.FeedbackStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.optimizer.plans import (
    AggregateNode,
    HavingNode,
    IndexSeekNode,
    JoinNode,
    PlanNode,
    ScanNode,
    SortNode,
)

#: Cardinalities below one row are clamped to one before forming the
#: q-error ratio.  This makes the metric total: empty relations, zero
#: estimates (the optimizer emits fractional estimates < 1), and empty
#: actual outputs all yield finite errors instead of division by zero.
MIN_CARDINALITY = 1.0


def q_error(estimated: float, actual: float) -> float:
    """The q-error of one cardinality estimate: ``max(e, a) / min(e, a)``.

    Both sides are clamped to :data:`MIN_CARDINALITY` first, so the
    result is always finite and >= 1:

    * ``actual == 0`` (empty operator output): the error is the estimate
      itself (an estimate of 1000 rows against an empty result is a
      1000x error, not an infinite one);
    * ``estimated == 0`` (or a fractional estimate < 1): symmetric — the
      error is the actual row count;
    * both zero (empty-relation plans): the estimate was as right as it
      could be, q-error 1.0.

    Negative or NaN inputs are treated as zero (clamped to 1).
    """
    e = estimated if estimated == estimated else 0.0  # NaN -> 0
    a = actual if actual == actual else 0.0
    e = max(MIN_CARDINALITY, float(e))
    a = max(MIN_CARDINALITY, float(a))
    return e / a if e >= a else a / e


@dataclass(frozen=True)
class FeedbackKey:
    """Identity of one feedback aggregate: a table and a column *set*.

    Unlike :class:`~repro.stats.statistic.StatKey`, column order does not
    matter — an observation on predicates over ``(b, a)`` should feed the
    same error aggregate that a candidate statistic on ``(a, b)`` will
    consult, so columns are stored sorted.
    """

    table: str
    columns: Tuple[str, ...]

    @classmethod
    def of(cls, table: str, columns) -> "FeedbackKey":
        return cls(table, tuple(sorted(set(columns))))

    def __str__(self) -> str:
        if len(self.columns) == 1:
            return f"{self.table}.{self.columns[0]}"
        return f"{self.table}.({', '.join(self.columns)})"


@dataclass(frozen=True)
class OperatorObservation:
    """One operator's estimated-vs-actual cardinality record.

    Attributes:
        operator: operator kind (``"scan"``, ``"seek"``, ``"join"``,
            ``"aggregate"``, ``"having"``, ``"sort"``).
        tables: base tables under the operator's subtree.
        targets: the (table, column-set) statistics targets whose
            estimates this operator's cardinality depended on — what the
            feedback loop attributes the error to.  Empty for operators
            whose cardinality carries no statistics signal (e.g. sorts).
        estimated_rows: the optimizer's estimate (``node.rows``).
        actual_rows: rows the operator actually produced.
        q_error: :func:`q_error` of the two.
    """

    operator: str
    tables: Tuple[str, ...]
    targets: Tuple[FeedbackKey, ...]
    estimated_rows: float
    actual_rows: int
    q_error: float


@dataclass(frozen=True)
class NodeAnnotation:
    """Estimate-side half of an observation, derived from the plan."""

    operator: str
    tables: Tuple[str, ...]
    targets: Tuple[FeedbackKey, ...]
    estimated_rows: float


class PlanInstrumenter:
    """Derives per-node feedback annotations from a physical plan.

    ``instrument(plan)`` walks the tree once and returns a mapping from
    node identity to :class:`NodeAnnotation`.  The annotation records the
    node's estimated cardinality *as chosen at optimization time* plus
    the statistics targets the estimate depended on:

    * scans / index seeks — the node's selection-predicate columns;
    * joins — the join-predicate columns of each side, one target per
      side (mirroring the Sec 4.2 dependency that statistics on both
      sides of a join are built as a pair);
    * aggregates — the grouping columns of each table;
    * having / sort — no targets (their cardinalities are derived from
      magic numbers or pass through unchanged).

    Plans are immutable and shared through the plan cache, so the map
    is derived once per plan and kept on its root; callers must treat it
    as read-only.  A re-optimized plan is a new tree and gets a new map.
    """

    def instrument(self, plan: PlanNode) -> Dict[int, NodeAnnotation]:
        annotations = plan.feedback_annotations
        if annotations is None:
            annotations = {}
            for node in plan.walk():
                annotations[id(node)] = NodeAnnotation(
                    operator=self._operator_kind(node),
                    tables=node.tables(),
                    targets=tuple(self._targets(node)),
                    estimated_rows=node.rows,
                )
            plan.feedback_annotations = annotations
        return annotations

    def observe(
        self,
        annotations: Dict[int, NodeAnnotation],
        node: PlanNode,
        actual_rows: int,
    ) -> OperatorObservation:
        """Zip one node's annotation with its observed cardinality."""
        annotation = annotations[id(node)]
        return OperatorObservation(
            operator=annotation.operator,
            tables=annotation.tables,
            targets=annotation.targets,
            estimated_rows=annotation.estimated_rows,
            actual_rows=int(actual_rows),
            q_error=q_error(annotation.estimated_rows, actual_rows),
        )

    # ------------------------------------------------------------------

    # repro-lint: dispatch=PlanNode
    @staticmethod
    def _operator_kind(node: PlanNode) -> str:
        if isinstance(node, ScanNode):
            return "scan"
        if isinstance(node, IndexSeekNode):
            return "seek"
        if isinstance(node, JoinNode):
            return "join"
        if isinstance(node, AggregateNode):
            return "aggregate"
        if isinstance(node, HavingNode):
            return "having"
        if isinstance(node, SortNode):
            return "sort"
        return type(node).__name__.lower()

    def _targets(self, node: PlanNode) -> List[FeedbackKey]:
        if isinstance(node, (ScanNode, IndexSeekNode)):
            columns = {
                ref.column
                for predicate in node.predicates
                for ref in predicate.columns()
            }
            if not columns:
                return []
            return [FeedbackKey.of(node.tables()[0], columns)]
        if isinstance(node, JoinNode):
            by_table: Dict[str, set] = {}
            for predicate in node.join_predicates:
                for ref in predicate.columns():
                    by_table.setdefault(ref.table, set()).add(ref.column)
            return [
                FeedbackKey.of(table, columns)
                for table, columns in sorted(by_table.items())
            ]
        if isinstance(node, AggregateNode):
            by_table = {}
            for ref in node.group_by:
                by_table.setdefault(ref.table, set()).add(ref.column)
            return [
                FeedbackKey.of(table, columns)
                for table, columns in sorted(by_table.items())
            ]
        return []

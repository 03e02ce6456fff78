"""Physical plan trees.

Every node carries its estimated output ``rows`` and cumulative estimated
``cost``, plus enough logical information for three consumers:

* the **executor**, which compiles the tree once and runs it over stored
  data;
* **FindNextStatToBuild** (paper Sec 4.2), which needs each node's *local*
  cost (``cost - Σ cost(children)``) and the predicates/columns the node
  touches, to propose statistics for the most expensive operator;
* **plan_signature**, the basis of Execution-Tree equivalence (Sec 3.2):
  two plans are the same execution tree iff their signatures are equal.
  Signatures deliberately exclude estimated rows and costs.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.catalog import ColumnRef
from repro.sql.predicates import JoinPredicate, Predicate


class JoinAlgorithm(enum.Enum):
    NESTED_LOOP_INDEX = "nl_index"
    NESTED_LOOP_SCAN = "nl_scan"
    HASH = "hash"
    MERGE = "merge"


class PlanNode:
    """Base physical operator; immutable once built."""

    _signature: Optional[tuple] = None
    _signature_key: Optional[str] = None
    _tables: Optional[Tuple[str, ...]] = None
    #: on a plan root, the per-node annotation map of
    #: :class:`repro.feedback.observation.PlanInstrumenter`
    feedback_annotations: Optional[dict] = None
    #: on a plan root, the :class:`repro.executor.executor.PlanLayout` its
    #: first execution compiled
    execution_layout = None

    def __init__(self, children: Tuple["PlanNode", ...], rows: float, cost: float):
        self.children = children
        self.rows = float(rows)
        self.cost = float(cost)

    @property
    def local_cost(self) -> float:
        """Sec 4.2's node weight: cost(subtree) - Σ cost(children)."""
        return self.cost - sum(child.cost for child in self.children)

    def tables(self) -> Tuple[str, ...]:
        """Base tables covered by this subtree (left-to-right order),
        computed once."""
        if self._tables is None:
            self._tables = tuple(
                dict.fromkeys(
                    name for child in self.children for name in child.tables()
                )
            )
        return self._tables

    def signature(self) -> tuple:
        """Execution-tree identity of the subtree, computed once."""
        if self._signature is None:
            self._signature = self._build_signature()
        return self._signature

    def _build_signature(self) -> tuple:
        raise NotImplementedError

    def signature_key(self) -> str:
        """``str(self.signature())``, computed once: the tie-break key
        of :func:`better`."""
        if self._signature_key is None:
            self._signature_key = str(self.signature())
        return self._signature_key

    def walk(self):
        """Yield every node of the subtree, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    # ------------------------------------------------------------------

    def _label(self) -> str:
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        """Readable multi-line rendering of the plan."""
        lines = [
            "  " * indent
            + f"{self._label()}  [rows={self.rows:.0f} cost={self.cost:.1f}]"
        ]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self._label()} rows={self.rows:.0f} cost={self.cost:.1f}>"


class ScanNode(PlanNode):
    """Full table scan with all the table's selection predicates applied."""

    def __init__(
        self,
        table: str,
        predicates: Tuple[Predicate, ...],
        rows: float,
        cost: float,
    ) -> None:
        super().__init__((), rows, cost)
        self.table = table
        self.predicates = tuple(predicates)

    def tables(self) -> Tuple[str, ...]:
        return (self.table,)

    def _build_signature(self) -> tuple:
        return (
            "scan",
            self.table,
            tuple(sorted(str(p) for p in self.predicates)),
        )

    def _label(self) -> str:
        preds = " AND ".join(str(p) for p in self.predicates)
        suffix = f" WHERE {preds}" if preds else ""
        return f"Scan({self.table}){suffix}"


class IndexSeekNode(PlanNode):
    """Index seek on one predicate; remaining predicates applied residually."""

    def __init__(
        self,
        table: str,
        index_name: str,
        seek_predicate: Predicate,
        residual_predicates: Tuple[Predicate, ...],
        rows: float,
        cost: float,
    ) -> None:
        super().__init__((), rows, cost)
        self.table = table
        self.index_name = index_name
        self.seek_predicate = seek_predicate
        self.residual_predicates = tuple(residual_predicates)

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """All predicates applied at this node (seek + residual)."""
        return (self.seek_predicate,) + self.residual_predicates

    def tables(self) -> Tuple[str, ...]:
        return (self.table,)

    def _build_signature(self) -> tuple:
        return (
            "seek",
            self.table,
            self.index_name,
            str(self.seek_predicate),
            tuple(sorted(str(p) for p in self.residual_predicates)),
        )

    def _label(self) -> str:
        return (
            f"IndexSeek({self.table}.{self.index_name} "
            f"ON {self.seek_predicate})"
        )


class JoinNode(PlanNode):
    """Binary join; ``right`` is the inner side for nested-loop variants."""

    def __init__(
        self,
        algorithm: JoinAlgorithm,
        left: PlanNode,
        right: PlanNode,
        join_predicates: Tuple[JoinPredicate, ...],
        rows: float,
        cost: float,
        inner_index: Optional[str] = None,
        build_side: str = "right",
        predicates_key: Optional[str] = None,
    ) -> None:
        """``predicates_key``, when the caller has it cached, is ``repr``
        of the sorted strings of ``join_predicates`` (the predicate
        element of :meth:`signature_key`)."""
        super().__init__((left, right), rows, cost)
        self.algorithm = algorithm
        self.join_predicates = tuple(join_predicates)
        self.inner_index = inner_index
        self.build_side = build_side
        self._predicates_key = predicates_key

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def _build_signature(self) -> tuple:
        return (
            "join",
            self.algorithm.value,
            self.inner_index,
            self.build_side if self.algorithm == JoinAlgorithm.HASH else None,
            tuple(sorted(str(p) for p in self.join_predicates)),
            self.left.signature(),
            self.right.signature(),
        )

    def signature_key(self) -> str:
        """``str(self.signature())`` composed from the children's cached
        keys (:func:`join_signature_key`), without building the nested
        signature tuple."""
        if self._signature_key is None:
            predicates = self._predicates_key
            if predicates is None:
                predicates = repr(
                    tuple(sorted(str(p) for p in self.join_predicates))
                )
            self._signature_key = join_signature_key(
                join_key_parts(
                    self.algorithm,
                    self.inner_index,
                    self.build_side,
                    predicates,
                    self.left.signature_key(),
                    self.right.signature_key(),
                )
            )
        return self._signature_key

    def _label(self) -> str:
        preds = " AND ".join(str(p) for p in self.join_predicates)
        extra = f" via {self.inner_index}" if self.inner_index else ""
        return f"{self.algorithm.value.upper()}Join({preds}){extra}"


class AggregateNode(PlanNode):
    """Aggregation over optional grouping columns.

    ``method`` is ``"hash"`` (build a hash table of groups) or
    ``"stream"`` (sort the input, aggregate in one pass; output arrives
    sorted on the grouping columns).
    """

    def __init__(
        self,
        child: PlanNode,
        group_by: Tuple[ColumnRef, ...],
        aggregates: tuple,
        rows: float,
        cost: float,
        method: str = "hash",
    ) -> None:
        super().__init__((child,), rows, cost)
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        if method not in ("hash", "stream"):
            raise ValueError(f"unknown aggregate method {method!r}")
        self.method = method

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _build_signature(self) -> tuple:
        return (
            "aggregate",
            self.method,
            tuple(str(c) for c in self.group_by),
            tuple(str(a) for a in self.aggregates),
            self.child.signature(),
        )

    def _label(self) -> str:
        keys = ", ".join(str(c) for c in self.group_by) or "<all>"
        kind = "Hash" if self.method == "hash" else "Stream"
        return f"{kind}Aggregate(by {keys})"


class HavingNode(PlanNode):
    """Post-aggregation group filter (HAVING clause)."""

    def __init__(
        self, child: PlanNode, predicates: tuple, rows: float, cost: float
    ) -> None:
        super().__init__((child,), rows, cost)
        self.predicates = tuple(predicates)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _build_signature(self) -> tuple:
        return (
            "having",
            tuple(sorted(str(p) for p in self.predicates)),
            self.child.signature(),
        )

    def _label(self) -> str:
        conds = " AND ".join(str(p) for p in self.predicates)
        return f"Having({conds})"


class SortNode(PlanNode):
    """Top-level ORDER BY sort."""

    def __init__(
        self, child: PlanNode, keys: Tuple[ColumnRef, ...], cost: float
    ) -> None:
        super().__init__((child,), child.rows, cost)
        self.keys = tuple(keys)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _build_signature(self) -> tuple:
        return (
            "sort",
            tuple(str(k) for k in self.keys),
            self.child.signature(),
        )

    def _label(self) -> str:
        return f"Sort(by {', '.join(str(k) for k in self.keys)})"


def join_key_parts(
    algorithm: JoinAlgorithm,
    inner_index: Optional[str],
    build_side: str,
    predicates_key: str,
    left_key: str,
    right_key: str,
) -> Tuple[str, ...]:
    """The elements of a join's signature string after ``'join'``, each
    rendered as in ``str(signature())``.

    Each element is a complete ``repr`` — a quoted string, ``None`` or a
    bracketed tuple — so none is a proper prefix of another, and
    comparing two joins' parts as tuples orders them as comparing their
    whole :func:`join_signature_key` strings does.  The join enumerator
    breaks exact cost ties that way, on the sub-plans' cached keys,
    without building a node.
    """
    return (
        repr(algorithm.value),
        repr(inner_index),
        repr(build_side if algorithm is JoinAlgorithm.HASH else None),
        predicates_key,
        left_key,
        right_key,
    )


def join_signature_key(parts: Tuple[str, ...]) -> str:
    """``str(signature())`` of the join with :func:`join_key_parts`
    ``parts``."""
    return f"('join', {', '.join(parts)})"


def better(a: PlanNode, b: PlanNode) -> bool:
    """Deterministic plan comparison: cost, then signature string."""
    if a.cost != b.cost:
        return a.cost < b.cost
    return a.signature_key() < b.signature_key()


def plan_signature(plan: PlanNode) -> tuple:
    """Execution-tree identity of a plan (Sec 3.2).

    Two sets of statistics are Execution-Tree equivalent for Q iff the
    optimizer produces plans with equal signatures under both.
    """
    return plan.signature()

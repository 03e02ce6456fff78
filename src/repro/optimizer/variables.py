"""Selectivity variables (paper Sec 4.1).

"The dependence of the optimizer on statistics can be conceptually
characterized by a set of selectivity variables, with one selectivity
variable corresponding to each predicate in Q."

Three variable kinds exist, one per way the optimizer consumes statistics:

* :class:`PredicateVariable` — a single-table selection predicate;
* :class:`JoinVariable` — a group of equijoin predicates between one pair
  of tables (composite joins form one variable, since their statistics
  must be created as a pair — Sec 4.2 "dependency among statistics");
* :class:`GroupByVariable` — the fraction of rows that are distinct in
  one table's GROUP BY columns (Sec 4.1's aggregation extension).

MNSA pins variables that *lack statistics* to ε or 1-ε via the
``overrides`` of an :class:`~repro.optimizer.cache.OptimizationRequest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sql.predicates import JoinPredicate, Predicate

#: The canonical ε pinning value (paper Sec 4.1): variables lacking
#: statistics are pinned to ε and 1−ε around their magic-number default.
#: This is the single source of truth — lint rule R005 flags any other
#: float literal equal to ε or 1−ε so pinning can never silently diverge.
EPSILON = 0.0005


class SelectivityVariable:
    """Marker base class; instances are hashable dict keys."""


@dataclass(frozen=True)
class PredicateVariable(SelectivityVariable):
    """Variable for one single-table selection predicate."""

    predicate: Predicate

    def __str__(self) -> str:
        return f"sel[{self.predicate}]"


@dataclass(frozen=True)
class JoinVariable(SelectivityVariable):
    """Variable for the join predicates between one pair of tables."""

    predicates: Tuple[JoinPredicate, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.predicates, key=str))
        object.__setattr__(self, "predicates", ordered)

    @property
    def tables(self) -> Tuple[str, ...]:
        return self.predicates[0].tables()

    def __str__(self) -> str:
        inner = " AND ".join(str(p) for p in self.predicates)
        return f"sel[{inner}]"


@dataclass(frozen=True)
class GroupByVariable(SelectivityVariable):
    """Variable for the distinct-fraction of one table's grouping columns."""

    table: str
    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(sorted(self.columns)))

    def __str__(self) -> str:
        return f"ndv[{self.table}.({', '.join(self.columns)})]"


def join_variables_of(query) -> list:
    """A query's join predicates as per-table-pair variables, in sorted
    table-pair order."""
    return [JoinVariable(group) for group in query.join_graph.groups]

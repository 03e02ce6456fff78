"""Join-enumeration schedules: what the plan search does that depends
only on a query's join graph, compiled once instead of per request.

The dynamic programme of :mod:`repro.optimizer.optimizer` visits table
sets in ascending bitmask order and, for each, a fixed list of candidate
joins.  Which sets extend which, which predicates cross and in what
order is decided by the graph alone, in two layers:

* :class:`ShapeSchedule` — everything that follows from the *shape*
  ``(number of tables, neighbor masks)``: the candidate list of every
  table set and the edges (pairs of table sets) the candidates join
  across, each with its sorted pair-group ids.  Shared between all
  queries of one shape through a bounded cache.
* :class:`JoinSchedule` — one query's predicates laid over the shape's
  edges.  Kept on the query's :class:`~repro.sql.query.JoinGraph`, so
  MNSA's three or more optimizer calls per query compile it once.

The candidate order is part of the plan byte-identity contract (an exact
cost tie goes to the earlier candidate unless the later one has the
smaller signature string): left-deep extensions with the inner table in
sorted-name order, then — with ``enable_bushy_joins`` — the splits into
two sub-plans of at least two tables each, the lowest table staying on
the left, right sides in descending submask order.  A set with no join
edge inside gets the cross products of each member with the rest, and
only such a set does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.sql.query import JoinGraph

#: edge id of a cross product: no predicates, no pair groups, no inner table
CARTESIAN = 0


class ShapeSchedule:
    """The enumeration schedule of every join graph of one shape.

    Attributes:
        masks: every set of two or more tables, ascending.
        candidates: per entry of ``masks``, its candidate joins ``(left
            mask, right mask, edge id)``.
        edges: per edge id ``(left mask, right mask, inner)`` — ``inner``
            is the index of the base table on the right of a left-deep
            extension (``-1`` for a bushy split or a cross product).
        groups: per edge id, the ids of the crossing table pairs,
            ascending, i.e. in sorted table-pair order.
        holding: per table, the table masks that hold it, as a bitmap
            over masks (bit ``m`` set for each mask ``m`` with the
            table's bit).
        pair_holding: per table-pair id, the masks that hold both of its
            tables, as a bitmap over masks.
    """

    __slots__ = (
        "masks", "candidates", "edges", "groups", "holding", "pair_holding"
    )

    def __init__(self, neighbors: Tuple[int, ...], bushy: bool) -> None:
        tables = len(neighbors)
        pairs = [
            (i, j)
            for i in range(tables)
            for j in range(i + 1, tables)
            if neighbors[i] >> j & 1
        ]
        edges: List[tuple] = [(0, 0, -1)]
        groups: List[tuple] = [()]
        edge_ids: Dict[Tuple[int, int], int] = {}

        def edge(left: int, right: int, inner: int) -> int:
            found = edge_ids.get((left, right))
            if found is None:
                found = edge_ids[left, right] = len(edges)
                edges.append((left, right, inner))
                groups.append(
                    tuple(
                        g
                        for g, (i, j) in enumerate(pairs)
                        if (left >> i & 1 and right >> j & 1)
                        or (left >> j & 1 and right >> i & 1)
                    )
                )
            return found

        masks = []
        by_mask = []
        # ascending masks: every proper subset of a mask precedes it
        for mask in range(3, 1 << tables):
            if not mask & (mask - 1):
                continue
            members = [i for i in range(tables) if mask >> i & 1]
            candidates = []
            for i in members:
                rest = mask ^ (1 << i)
                connected = rest & neighbors[i]
                if connected:
                    candidates.append(
                        (rest, 1 << i, edge(connected, 1 << i, i))
                    )
            if bushy:
                # the lowest table stays on the left, which halves the work
                others = mask ^ (mask & -mask)
                right = others
                while right:
                    left = mask ^ right
                    if (
                        right & (right - 1)
                        and left & (left - 1)
                        and any(
                            neighbors[i] & right
                            for i in members
                            if left >> i & 1
                        )
                    ):
                        candidates.append((left, right, edge(left, right, -1)))
                    right = (right - 1) & others
            if not candidates:
                # no join edge inside this set: fall back to cross products
                candidates = [
                    (mask ^ (1 << i), 1 << i, CARTESIAN) for i in members
                ]
            masks.append(mask)
            by_mask.append(tuple(candidates))
        self.masks = tuple(masks)
        self.candidates = tuple(by_mask)
        self.edges = tuple(edges)
        self.groups = tuple(groups)
        self.holding = tuple(
            sum(1 << m for m in range(1 << tables) if m >> i & 1)
            for i in range(tables)
        )
        self.pair_holding = tuple(
            self.holding[i] & self.holding[j] for i, j in pairs
        )


@lru_cache(maxsize=128)
def shape_schedule(neighbors: Tuple[int, ...], bushy: bool) -> ShapeSchedule:
    """The shared :class:`ShapeSchedule` of a graph shape.  Immutable once
    built; the bounded cache is what the request thread and the advisor
    worker share."""
    return ShapeSchedule(neighbors, bushy)


class JoinSchedule:
    """One query's join predicates laid over its shape's schedule.

    Attributes:
        shape: the :class:`ShapeSchedule` of the query's graph.
        inner: per edge id, the name of the base table on the right of a
            left-deep extension (``None`` otherwise): where an index on
            a join column enables index nested loops.
        predicates: per edge id, the crossing join predicates in
            ``query.joins`` order.
    """

    __slots__ = ("shape", "inner", "predicates", "_predicate_keys")

    def __init__(self, graph: JoinGraph, shape: ShapeSchedule) -> None:
        self.shape = shape
        self.inner = [
            graph.tables[inner] if inner >= 0 else None
            for _, _, inner in shape.edges
        ]
        self.predicates = [
            tuple(edge.predicate for edge in graph.crossing(left, right))
            for left, right, _ in shape.edges
        ]
        self._predicate_keys: List[Optional[str]] = [None] * len(shape.edges)

    def predicates_key(self, e: int) -> str:
        """``repr`` of the sorted predicate strings of edge ``e`` — the
        predicate element of a join's signature string — rendered once,
        for the edges whose joins get built."""
        key = self._predicate_keys[e]
        if key is None:
            key = self._predicate_keys[e] = repr(
                tuple(sorted(str(p) for p in self.predicates[e]))
            )
        return key


def join_schedule(graph: JoinGraph, bushy: bool) -> JoinSchedule:
    """The :class:`JoinSchedule` of ``graph``, compiled on first use and
    kept on the graph."""
    schedule = graph.schedules.get(bushy)
    if schedule is None:
        shape = shape_schedule(tuple(graph.neighbors), bushy)
        # setdefault: two threads compiling at once agree on one object
        schedule = graph.schedules.setdefault(
            bushy, JoinSchedule(graph, shape)
        )
    return schedule

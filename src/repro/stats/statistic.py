"""Statistic identity (:class:`StatKey`) and contents (:class:`Statistic`).

A statistic over columns ``(a, b, c)`` of table ``T`` carries, mirroring
SQL Server 7.0 (paper Sec 7.1):

* a histogram over the leading column ``a``;
* densities over the leading prefixes ``(a)``, ``(a, b)``, ``(a, b, c)``,
  where density = 1 / (number of distinct prefix tuples).

Column order therefore matters: ``(a, b)`` and ``(b, a)`` are *different*
statistics.  The paper's notation ``{R1.a, (R2.c, R2.d)}`` maps to a set of
``StatKey`` values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.catalog import ColumnRef
from repro.errors import StatisticsError
from repro.stats.histogram import Histogram


@dataclass(frozen=True, order=True)
class StatKey:
    """Identity of a statistic: table plus ordered column names."""

    table: str
    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise StatisticsError("a statistic needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise StatisticsError(
                f"duplicate column in statistic key: {self.columns}"
            )

    @classmethod
    def of(cls, refs) -> "StatKey":
        """Build a key from an ordered iterable of :class:`ColumnRef`.

        Raises:
            StatisticsError: if the refs span multiple tables.
        """
        refs = list(refs)
        if not refs:
            raise StatisticsError("a statistic needs at least one column")
        tables = {ref.table for ref in refs}
        if len(tables) != 1:
            raise StatisticsError(
                f"a statistic must cover a single table, got {tables}"
            )
        return cls(refs[0].table, tuple(ref.column for ref in refs))

    @classmethod
    def single(cls, ref: ColumnRef) -> "StatKey":
        return cls(ref.table, (ref.column,))

    @property
    def is_multi_column(self) -> bool:
        return len(self.columns) > 1

    @property
    def leading_column(self) -> ColumnRef:
        return ColumnRef(self.table, self.columns[0])

    def column_refs(self) -> Tuple[ColumnRef, ...]:
        return tuple(ColumnRef(self.table, c) for c in self.columns)

    def prefixes(self) -> Tuple[Tuple[str, ...], ...]:
        """All leading prefixes, shortest first."""
        return tuple(
            self.columns[: i + 1] for i in range(len(self.columns))
        )

    def __str__(self) -> str:
        if self.is_multi_column:
            return f"{self.table}.({', '.join(self.columns)})"
        return f"{self.table}.{self.columns[0]}"


def as_stat_key(key_or_refs) -> StatKey:
    """Coerce a :class:`StatKey`, a single :class:`ColumnRef`, or an
    ordered iterable of refs into a :class:`StatKey`.

    This is the canonical identity conversion used by the statistics
    manager and by :class:`~repro.optimizer.cache.OptimizationRequest`,
    so the same statistic always hashes identically regardless of how a
    caller spelled it.
    """
    if isinstance(key_or_refs, StatKey):
        return key_or_refs
    if isinstance(key_or_refs, ColumnRef):
        return StatKey.single(key_or_refs)
    return StatKey.of(key_or_refs)


#: the source of :attr:`Statistic.serial`
_serials = itertools.count(1)


class Statistic:
    """A built statistic: leading-column histogram + prefix densities.

    Attributes:
        key: the :class:`StatKey`.
        histogram: histogram over the leading column.
        prefix_densities: tuple aligned with ``key.prefixes()``;
            ``prefix_densities[i] = 1 / ndv(prefix_{i+1})``.
        row_count: table rows at build time.
        build_cost: work units charged for the build (cost model).
        update_count: number of times this statistic has been refreshed
            (drives the SQL Server drop-after-N-updates policy, Sec 6).
        serial: unique to this object and never reused in the process —
            its identity without a reference to it.  A refresh or rebuild
            installs a new object, hence a new serial.
    """

    def __init__(
        self,
        key: StatKey,
        histogram: Histogram,
        prefix_densities: Tuple[float, ...],
        row_count: int,
        build_cost: float = 0.0,
        joint_histogram=None,
    ) -> None:
        if len(prefix_densities) != len(key.columns):
            raise StatisticsError(
                f"expected {len(key.columns)} prefix densities, "
                f"got {len(prefix_densities)}"
            )
        for density in prefix_densities:
            if not 0.0 <= density <= 1.0:
                raise StatisticsError(
                    f"density must be in [0, 1], got {density}"
                )
        self.key = key
        self.histogram = histogram
        self.prefix_densities = tuple(prefix_densities)
        self.row_count = int(row_count)
        self.build_cost = float(build_cost)
        self.update_count = 0
        self.serial = next(_serials)
        #: optional :class:`~repro.stats.multidim.JointHistogram` over the
        #: first two columns (built when ``enable_joint_histograms`` is on)
        self.joint_histogram = joint_histogram

    # ------------------------------------------------------------------
    # estimation accessors
    # ------------------------------------------------------------------

    def density_for_prefix(self, columns: Tuple[str, ...]) -> Optional[float]:
        """Density for an exact leading prefix, or None if not a prefix.

        The asymmetry of SQL Server statistics: a statistic on (a, b, c)
        answers for (a), (a, b), (a, b, c) but not (b) or (a, c).
        """
        for i, prefix in enumerate(self.key.prefixes()):
            if prefix == tuple(columns):
                return self.prefix_densities[i]
        return None

    def distinct_for_prefix(self, columns: Tuple[str, ...]) -> Optional[float]:
        """Estimated distinct prefix tuples (1 / density)."""
        density = self.density_for_prefix(columns)
        if density is None or density <= 0:
            return None
        return 1.0 / density

    @property
    def leading_distinct(self) -> float:
        """Distinct values of the leading column."""
        return self.histogram.distinct_count

    def covers_column(self, ref: ColumnRef) -> bool:
        """True if ``ref`` is the *leading* column (histogram applies)."""
        return self.key.leading_column == ref

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Statistic({self.key}, rows={self.row_count})"

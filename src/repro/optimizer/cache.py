"""Statistics-aware plan caching behind a canonical request identity.

Every advisor loop in this reproduction — MNSA's ε / 1−ε pinning (Sec 4),
MNSA/D's drop-detection re-optimizations (Sec 5.1), the Shrinking Set's
ignore-subset probes (Sec 5.2), and the essential-set search (Sec 3.3) —
re-invokes the optimizer on the same ``(query, overrides, ignore-set)``
combination over and over.  Memoizing those calls needs a canonical
identity for them.

:class:`OptimizationRequest` is that identity: a frozen, hashable value
object carrying the query, the override pins sorted by variable, and the
ignore-set sorted by :class:`~repro.stats.statistic.StatKey`.  Two
requests that mean the same optimization compare and hash equal no
matter how the caller spelled them.

:class:`PlanCache` memoizes ``request -> OptimizationResult`` with two
invalidation layers:

* **version fast path** — the optimizer keys each entry by
  :meth:`~repro.stats.manager.StatisticsManager.versions_for` of the
  query's own tables: per table, the serials of its visible statistics
  (every content change installs a new ``Statistic``, hence a new
  serial) and the data version moved by every load or DML.  An entry
  stored under the current versions is returned without further checks;
  a change to any other table, or one undone (a create then a drop-list,
  an ignore scope left), leaves them, and so the fast path, intact.
* **fingerprint revalidation** — on a version mismatch the entry is only
  reused if its :func:`statistics_fingerprint` still matches: per-table
  ``(row_count, rows_modified_since_stats)`` plus
  ``(update_count, row_count, sample_rows)`` of every *visible statistic
  relevant to the query* outside the request's ignore-set.  A mutation of
  the query's tables that cannot change its plan therefore costs one
  cheap fingerprint comparison, not a re-optimization; the matching entry
  is promoted to the current versions.

Both keys are content keys, not counters: a mutation and its undo (A →
B → A) return them to where they were, so nothing may mutate a table's
statistics between reading its versions and storing its plan.  Locking
excludes that: in the service every statistics mutation of a table runs
under its shard's ``statement_lock`` and planning holds the locks of
all the query's shards; cold tuning is single-threaded.

Sharing contract: a cache must only ever be shared between optimizers
with the same database *and* the same :class:`~repro.config.OptimizerConfig`,
and the physical index design must not change while the cache is
attached (the fingerprint covers statistics and data, not indexes).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.concurrency import guarded_by
from repro.errors import OptimizerError
from repro.optimizer.variables import SelectivityVariable
from repro.sql.query import Query
from repro.stats.statistic import StatKey, as_stat_key


def _canonical_overrides(
    overrides,
) -> Tuple[Tuple[SelectivityVariable, float], ...]:
    """Sort override pins by variable so identity ignores spelling order."""
    if not overrides:
        return ()
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = tuple(overrides)
    return tuple(
        sorted(
            ((variable, float(value)) for variable, value in items),
            key=lambda pair: str(pair[0]),
        )
    )


def _canonical_ignore(ignore) -> Tuple[StatKey, ...]:
    """Dedupe and sort the ignore-set (StatKey is totally ordered)."""
    if not ignore:
        return ()
    return tuple(sorted({as_stat_key(key) for key in ignore}))


class OptimizationRequest:
    """The canonical, hashable argument of one optimizer invocation.

    Attributes:
        query: the bound :class:`~repro.sql.query.Query`.
        overrides: selectivity pins as ``(variable, value)`` pairs,
            sorted by variable — MNSA's ε / 1−ε mechanism (Sec 7.2).
            Accepts a dict or any iterable of pairs at construction.
        ignore: statistics hidden for this call, sorted — the
            ``Ignore_Statistics_Subset`` extension.  Accepts keys,
            column refs, or ref iterables at construction.
        learned: opaque correction-model version component (any hashable,
            normally set via :meth:`with_learned_version` by an optimizer
            carrying learned corrections).  ``None`` means "planned
            without corrections"; a versioned request never compares
            equal to an unversioned one, so corrected and uncorrected
            plans can share a :class:`PlanCache` without aliasing.
        degraded: plan with magic-number selectivities only, consulting
            no statistics at all — the service's graceful-degradation
            mode under advisor backlog (Sec 6's always-on framing).  A
            degraded request is statistics-independent, so the optimizer
            caches it under empty versions and fingerprint: degraded
            plans hit the cache forever and never take a statistics
            lock.  Part of the request identity — a degraded plan can
            never alias a full one.
    """

    __slots__ = ("query", "overrides", "ignore", "learned", "degraded", "_hash")

    def __init__(
        self,
        query: Query,
        overrides=None,
        ignore=None,
        *,
        learned=None,
        degraded: bool = False,
    ) -> None:
        if not isinstance(query, Query):
            raise OptimizerError(
                f"OptimizationRequest needs a bound Query, "
                f"got {type(query).__name__}"
            )
        self.query = query
        self.overrides = _canonical_overrides(overrides)
        self.ignore = _canonical_ignore(ignore)
        self.learned = learned
        self.degraded = bool(degraded)
        #: computed by the first ``hash()``: hashing the whole bound query
        #: is wasted on a request that never meets a plan cache
        self._hash: Optional[int] = None

    def overrides_dict(self) -> Dict[SelectivityVariable, float]:
        return dict(self.overrides)

    def with_learned_version(self, version) -> "OptimizationRequest":
        """This request keyed under correction-model ``version``.

        Used by optimizers carrying learned corrections so cache entries
        are segregated by the (monotone) model version: a version bump
        makes previously cached plans unreachable rather than stale.
        """
        if version == self.learned:
            return self
        return OptimizationRequest(
            self.query,
            self.overrides,
            self.ignore,
            learned=version,
            degraded=self.degraded,
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (
                    self.query,
                    self.overrides,
                    self.ignore,
                    self.learned,
                    self.degraded,
                )
            )
        return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, OptimizationRequest):
            return NotImplemented
        return (
            self.query == other.query
            and self.overrides == other.overrides
            and self.ignore == other.ignore
            and self.learned == other.learned
            and self.degraded == other.degraded
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizationRequest(tables={self.query.tables}, "
            f"overrides={len(self.overrides)}, ignore={len(self.ignore)})"
        )


# ----------------------------------------------------------------------
# statistics fingerprint
# ----------------------------------------------------------------------


def statistics_fingerprint(
    database, query: Query, ignore: Iterable[StatKey] = ()
) -> tuple:
    """Hashable digest of every statistics-dependent input to one
    optimization of ``query``.

    Covers, for each table of the query, ``(row_count,
    rows_modified_since_stats)``; and, for each *visible* statistic
    relevant to the query and outside ``ignore``, ``(key, update_count,
    row_count, sample_rows)``.  Creating, dropping, drop-listing,
    refreshing, completing a sampled build of, or incrementally
    maintaining a relevant statistic — or running DML against a
    referenced table — all change the digest; mutations elsewhere in the
    database do not.
    """
    stats = database.stats
    hidden = set(ignore)
    # Same filter as Figure 2's step 4 (see :mod:`repro.core.shrinking`):
    # a plan depends only on the visible statistics over the query's own
    # relevant columns — read per table, from that table's visible view.
    relevant_columns: Dict[str, set] = {table: set() for table in query.tables}
    for ref in query.relevant_columns():
        if ref.table in relevant_columns:
            relevant_columns[ref.table].add(ref.column)
    tables = []
    relevant = []
    for name in sorted(query.tables):
        data = database.table(name)
        tables.append((name, data.row_count, data.rows_modified_since_stats))
        columns = relevant_columns[name]
        if not columns:
            continue
        for key, stat in stats.visible_on_table(name):
            if key in hidden or columns.isdisjoint(key.columns):
                continue
            relevant.append(
                (key, stat.update_count, stat.row_count, stat.sample_rows)
            )
    relevant.sort()
    return (tuple(tables), tuple(relevant))


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------


class _Entry:
    """One cached optimization: the versions and fingerprint it was
    computed under, the result, and — once asked for — the query's
    missing selectivity variables under that fingerprint."""

    __slots__ = ("versions", "fingerprint", "result", "missing")

    def __init__(self, versions: tuple, fingerprint: tuple, result) -> None:
        self.versions = versions
        self.fingerprint = fingerprint
        self.result = result
        #: ``None`` until :meth:`PlanCache.keep_missing`
        self.missing: Optional[tuple] = None


class PlanCache:
    """LRU-bounded, statistics-aware memo of optimizer results.

    Thread-safe: a single internal lock guards the entry map and the
    counters; the lock is never held across statistics access or metric
    emission, so it nests freely under the service's ``db_lock`` and the
    statistics manager's lock without creating ordering edges.

    Args:
        capacity: maximum retained entries; least-recently-used entries
            beyond it are evicted.
        metrics: optional :class:`~repro.service.metrics.MetricsRegistry`
            mirroring the hit/miss/eviction counters as
            ``plan_cache.*``.
    """

    # repro-lint: optimize-path
    # repro-lint: plan-state-exempt=_entries: entries are keyed by the full request (learned version included) and each carries the versions+fingerprint it was stored under, so mutation can never redirect an existing key to a different plan; an entry's missing-variable slot is reset by every store and is a pure function of that fingerprint, so it cannot redirect one either

    _entries = guarded_by("_lock")
    _hits = guarded_by("_lock")
    _misses = guarded_by("_lock")
    _evictions = guarded_by("_lock")
    _revalidations = guarded_by("_lock")

    def __init__(self, capacity: int = 256, metrics=None) -> None:
        if capacity < 1:
            raise OptimizerError(
                f"plan-cache capacity must be >= 1, got {capacity} "
                "(omit the cache entirely to disable caching)"
            )
        self.capacity = int(capacity)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[OptimizationRequest, _Entry]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._revalidations = 0

    # ----- lookup ------------------------------------------------------

    def get_fresh(self, request: OptimizationRequest, versions: tuple):
        """Version fast path: the entry's result iff it was stored (or
        last revalidated) under exactly ``versions``; ``None`` otherwise.

        A miss here is *not* counted — the caller is expected to follow
        up with :meth:`get_validated`, which settles the hit/miss verdict.
        """
        with self._lock:
            entry = self._entries.get(request)
            if entry is None or entry.versions != versions:
                return None
            self._entries.move_to_end(request)
            self._hits += 1
        self._note_counter("plan_cache.hits")
        return entry.result

    def get_validated(
        self, request: OptimizationRequest, versions: tuple, fingerprint: tuple
    ):
        """Fingerprint revalidation after a version mismatch.

        If the stored entry's fingerprint equals the freshly computed
        one, the statistics the request depends on are unchanged: the
        entry is promoted to ``versions`` and returned.  Otherwise the
        lookup is a miss and the caller must re-optimize.
        """
        with self._lock:
            entry = self._entries.get(request)
            if entry is not None and entry.fingerprint == fingerprint:
                entry.versions = versions
                self._entries.move_to_end(request)
                self._hits += 1
                self._revalidations += 1
                result = entry.result
            else:
                self._misses += 1
                result = None
        if result is not None:
            self._note_counter("plan_cache.hits")
            self._note_counter("plan_cache.revalidations")
        else:
            self._note_counter("plan_cache.misses")
        return result

    def store(
        self,
        request: OptimizationRequest,
        versions: tuple,
        fingerprint: tuple,
        result,
    ) -> None:
        """Insert (or replace) an entry, evicting LRU entries over
        capacity.  ``versions``/``fingerprint`` must be the values read
        *before* the optimization ran, under the locks the module
        docstring names."""
        evicted = 0
        with self._lock:
            self._entries[request] = _Entry(versions, fingerprint, result)
            self._entries.move_to_end(request)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
            size = len(self._entries)
        if evicted:
            self._note_counter("plan_cache.evictions", evicted)
        if self._metrics is not None:
            self._metrics.gauge("plan_cache.size", size)

    def missing_for(
        self, request: OptimizationRequest, versions: tuple
    ) -> Optional[tuple]:
        """The missing selectivity variables kept on ``request``'s entry,
        iff the entry is current at ``versions`` and has them."""
        with self._lock:
            entry = self._entries.get(request)
            if entry is None or entry.versions != versions:
                return None
            return entry.missing

    def keep_missing(
        self, request: OptimizationRequest, versions: tuple, missing: tuple
    ) -> None:
        """Keep ``missing`` — computed while the query's tables stood at
        ``versions`` — on ``request``'s entry, if it is current at those
        versions.  It lives and dies with the entry: a re-:meth:`store`
        resets it, revalidation keeps it (an equal fingerprint means the
        same visible statistics over the query's relevant columns, which
        is all the missing set reads)."""
        with self._lock:
            entry = self._entries.get(request)
            if entry is not None and entry.versions == versions:
                entry.missing = missing

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ----- introspection ----------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_count(self) -> int:
        with self._lock:
            return self._hits

    @property
    def miss_count(self) -> int:
        with self._lock:
            return self._misses

    @property
    def eviction_count(self) -> int:
        with self._lock:
            return self._evictions

    @property
    def revalidation_count(self) -> int:
        """Hits that needed a fingerprint comparison (versions had
        moved)."""
        with self._lock:
            return self._revalidations

    def counters(self) -> Dict[str, int]:
        """A consistent snapshot of all counters."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "revalidations": self._revalidations,
                "size": len(self._entries),
            }

    def requests(self) -> List[OptimizationRequest]:
        """Cached requests, least-recently-used first (tests only)."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------

    def _note_counter(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, amount)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.counters()
        return (
            f"PlanCache(size={snap['size']}/{self.capacity}, "
            f"hits={snap['hits']}, misses={snap['misses']})"
        )

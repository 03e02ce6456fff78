"""The statistics manager: lifecycle, drop-list, and the ignore interface.

One :class:`StatisticsManager` is attached to each database.  It provides:

* creation / physical drop / refresh of statistics, with a work-unit cost
  ledger (feeding Figures 3-4 and Table 1);
* the **drop-list** of Sec 5: statistics *marked* non-essential are hidden
  from the optimizer but kept physically, so a later query can revive them
  at zero cost instead of rebuilding;
* ``ignore_subset(...)`` — the paper's ``Ignore_Statistics_Subset`` server
  extension (Sec 7.2), as a context manager scoping the "connection
  specific buffer" the paper describes;
* lookups the selectivity estimator uses (leading-column histogram, prefix
  densities), honouring both the ignore set and the drop-list;
* the SQL Server 7.0 refresh trigger: a per-table row-modification counter
  compared against a fraction of the table size (Sec 2, Sec 6);
* one content key per table: :meth:`StatisticsManager.versions_for`
  pairs the serials of its visible statistics with its data version, and
  the plan cache, the probe memo, the re-tune guard and the verdict
  ledger key on those pairs — a change to one table never invalidates
  what was computed over other tables, and a change undone (a create
  then a drop-list, an ignore scope left) leaves the key as it was.

Thread safety and sharding: the manager partitions its state *by table*
into :class:`StatsShard` objects behind a
:class:`~repro.stats.router.ShardRouter`.  Every shard owns its own
reentrant lock and its own slice of the statistics / drop-list / ignore
state, so mutations against one table never contend with queries over
tables in other shards.  Aggregate views (``epoch``,
the count of statistics mutations, ``keys()``, the cost ledger) sum or
concatenate over shards in ascending shard-id order; single-table
operations route to exactly one shard.  The default is one shard — the
pre-sharding behaviour, byte-identical for every experiment — and the
service re-partitions via :meth:`StatisticsManager.reshard` before going
online.

``ignore_subset`` scopes are process-wide per shard, not per-thread —
callers that need connection-local ignore buffers must serialize their
optimizer calls for the affected shards (the service's per-shard
statement locks do exactly that).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterable, List, Optional, Set

from repro.catalog import ColumnRef
from repro.concurrency import guarded_by
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import StatisticsError
from repro.stats.builder import build_statistic, build_statistics
from repro.stats.cost import (
    STAT_INCREMENTAL_COST_PER_ROW,
    statistic_update_cost,
)
from repro.stats.histogram import HistogramKind
from repro.stats.router import ShardRouter
from repro.stats.statistic import StatKey, Statistic, as_stat_key


class StatsShard:
    """One shard of a :class:`StatisticsManager`: the statistics,
    drop-list, ignore buffer, mutation count and cost ledger of the
    tables routed to it.

    All state is guarded by the shard's own reentrant lock; every
    mutation that can alter an optimization outcome names the tables it
    changed to :meth:`_discard_views`, which drops their views, and with
    them their content keys (:meth:`visible_serials`).
    Shards never call into each other — cross-shard composition happens
    in the manager, and multi-shard readers tolerate per-shard (rather
    than global) snapshot consistency exactly like the plan cache's
    fingerprint revalidation does.
    """

    _statistics = guarded_by("_lock")
    _drop_list = guarded_by("_lock")
    _ignored = guarded_by("_lock")
    _epoch = guarded_by("_lock")
    _creation_cost = guarded_by("_lock")
    _update_cost = guarded_by("_lock")

    def __init__(self, shard_id: int, database, owner) -> None:
        self.shard_id = shard_id
        self._db = database
        self._owner = owner
        self._lock = threading.RLock()
        self._statistics: Dict[StatKey, Statistic] = {}
        self._drop_list: Set[StatKey] = set()
        self._ignored: Set[StatKey] = set()
        self._epoch = 0
        self._creation_cost = 0.0
        self._update_cost = 0.0
        # table -> its visible view, see _table_view(); and the visible
        # (key, statistic) pairs of the whole shard, see _visible_pairs().
        # Caches of the guarded state above, not versioned state of
        # their own, hence no guarded_by (R006 would want lookups to bump).
        self._views: Dict[str, tuple] = {}
        self._listing: Optional[list] = None

    @property
    def _config(self) -> OptimizerConfig:
        # live read: experiments reassign manager.config mid-run
        return self._owner.config

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """How many statistics mutations this shard has made."""
        with self._lock:
            return self._epoch

    def visible_serials(self, table: str) -> tuple:
        """The :attr:`~repro.stats.statistic.Statistic.serial` of each
        visible statistic of ``table``, in ``_statistics`` order."""
        return self._table_view(table)[2]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        key: StatKey,
        histogram_kind: HistogramKind,
        sample_rows: Optional[int] = None,
    ) -> Statistic:
        with self._lock:
            if key in self._statistics:
                if key in self._drop_list:
                    self._drop_list.discard(key)
                    self._discard_views((key.table,))
                    return self._statistics[key]
                raise StatisticsError(f"statistic {key} already exists")
            table = self._db.table(key.table)
            for column in key.columns:
                table.schema.column(column)  # validates
            statistic = build_statistic(
                table,
                key,
                self._config,
                histogram_kind=histogram_kind,
                sample_rows=sample_rows,
            )
            self._statistics[key] = statistic
            self._creation_cost += statistic.build_cost
            self._discard_views((key.table,))
            return statistic

    def complete(self, keys: Iterable[StatKey]) -> List[StatKey]:
        """Rebuild in full those of ``keys`` built from a sample; see
        :meth:`StatisticsManager.complete`."""
        with self._lock:
            sampled: Dict[str, List[StatKey]] = {}
            for key in keys:
                if self.get(key).sample_rows is not None:
                    sampled.setdefault(key.table, []).append(key)
            for table, table_keys in sampled.items():
                data = self._db.table(table)
                for key in table_keys:
                    old = self._statistics[key]
                    fresh = build_statistic(
                        data, key, self._config, old.histogram.kind
                    )
                    fresh.update_count = old.update_count
                    self._statistics[key] = fresh
                    self._creation_cost += fresh.build_cost
                self._discard_views((table,))
            return [key for keys in sampled.values() for key in keys]

    def drop(self, key: StatKey) -> None:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            del self._statistics[key]
            self._drop_list.discard(key)
            self._ignored.discard(key)
            self._discard_views((key.table,))

    def drop_all(self) -> None:
        with self._lock:
            tables = {key.table for key in self._statistics}
            self._statistics.clear()
            self._drop_list.clear()
            self._ignored.clear()
            self._discard_views(tables)

    def has(self, key: StatKey) -> bool:
        with self._lock:
            return key in self._statistics

    def get(self, key: StatKey) -> Statistic:
        with self._lock:
            try:
                return self._statistics[key]
            except KeyError:
                raise StatisticsError(f"no statistic {key}") from None

    def keys(self) -> List[StatKey]:
        with self._lock:
            return list(self._statistics)

    def statistics(self) -> List[Statistic]:
        with self._lock:
            return list(self._statistics.values())

    def keys_on_table(self, table: str) -> List[StatKey]:
        with self._lock:
            return [key for key in self._statistics if key.table == table]

    # ------------------------------------------------------------------
    # cost ledger
    # ------------------------------------------------------------------

    @property
    def creation_cost(self) -> float:
        with self._lock:
            return self._creation_cost

    @property
    def update_cost(self) -> float:
        with self._lock:
            return self._update_cost

    def set_cost_ledger(self, creation: float, update: float) -> None:
        # repro-lint: epoch-exempt=cost ledger totals are bookkeeping, not planner-visible statistics state
        with self._lock:
            self._creation_cost = creation
            self._update_cost = update

    # ------------------------------------------------------------------
    # drop-list (Sec 5)
    # ------------------------------------------------------------------

    def mark_droppable(self, key: StatKey) -> None:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            self._drop_list.add(key)
            self._discard_views((key.table,))

    def revive(self, key: StatKey) -> None:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            self._drop_list.discard(key)
            self._discard_views((key.table,))

    def drop_list(self) -> List[StatKey]:
        with self._lock:
            return sorted(self._drop_list)

    def is_droppable(self, key: StatKey) -> bool:
        with self._lock:
            return key in self._drop_list

    def purge_drop_list(self) -> List[StatKey]:
        with self._lock:
            purged = sorted(self._drop_list)
            for key in purged:
                del self._statistics[key]
            self._drop_list.clear()
            self._ignored.difference_update(purged)
            self._discard_views({key.table for key in purged})
            return purged

    # ------------------------------------------------------------------
    # ignore buffer (Sec 7.2)
    # ------------------------------------------------------------------

    def add_ignored(self, keys: Set[StatKey]) -> Set[StatKey]:
        """Hide ``keys``; returns those that were not hidden already."""
        with self._lock:
            hidden = keys - self._ignored
            self._ignored |= hidden
            self._discard_views({key.table for key in hidden})
            return hidden

    def remove_ignored(self, keys: Set[StatKey]) -> None:
        """Leave an ignore scope: show the keys it hid again.  Nothing is
        ever re-added here, so a statistic dropped or purged inside the
        scope stays forgotten."""
        with self._lock:
            shown = keys & self._ignored
            self._ignored -= shown
            self._discard_views({key.table for key in shown})

    def set_ignored(self, keys: Set[StatKey]) -> None:
        with self._lock:
            moved = self._ignored.symmetric_difference(keys)
            self._ignored = set(keys)
            self._discard_views({key.table for key in moved})

    def ignored(self) -> Set[StatKey]:
        with self._lock:
            return set(self._ignored)

    # ------------------------------------------------------------------
    # visibility and estimator lookups
    # ------------------------------------------------------------------

    def is_visible(self, key: StatKey) -> bool:
        with self._lock:
            return (
                key in self._statistics
                and key not in self._ignored
                and key not in self._drop_list
            )

    def visible_keys(self) -> List[StatKey]:
        return [key for key, _ in self._visible_pairs()]

    def visible_statistics(self) -> List[Statistic]:
        return [stat for _, stat in self._visible_pairs()]

    def visible_on_table(self, table: str) -> list:
        """The visible ``(key, statistic)`` pairs of ``table``, in
        ``_statistics`` order.  The list is shared: read it only."""
        return self._table_view(table)[1]

    def _visible_pairs(self) -> list:
        """The visible ``(key, statistic)`` pairs of the whole shard, in
        ``_statistics`` order (sums over ``visible_keys()`` are float
        sums, so the order is part of the contract).  Kept until a
        mutation discards it, never modified."""
        with self._lock:
            pairs = self._listing
            if pairs is None:
                pairs = self._listing = [
                    (key, stat)
                    for key, stat in self._statistics.items()
                    if self.is_visible(key)
                ]
            return pairs

    def _table_view(self, table: str) -> tuple:
        """``(histograms, pairs, serials)`` over the visible statistics
        of ``table``: the histogram serving each leading column name (a
        single-column statistic's if one is visible, else the first
        multi-column one's), the ``(key, statistic)`` pairs and their
        statistics' serials, all in ``_statistics`` order.

        Built on the first lookup after a mutation that can have changed
        it (:meth:`_discard_views`) and never modified afterwards, so a
        lookup is one lock acquisition plus reads of objects no one else
        writes — and a statistics-set change costs the next lookups one
        table's entry, not the shard's.
        """
        with self._lock:
            view = self._views.get(table)
            if view is None:
                histograms: Dict[str, object] = {}
                pairs = []
                for key, stat in self._statistics.items():
                    if key.table != table or not self.is_visible(key):
                        continue
                    pairs.append((key, stat))
                    leading = key.columns[0]
                    if key.is_multi_column:
                        histograms.setdefault(leading, stat.histogram)
                    else:
                        histograms[leading] = stat.histogram
                serials = tuple([stat.serial for _, stat in pairs])
                view = self._views[table] = (histograms, pairs, serials)
            return view

    def _discard_views(self, tables: Iterable[str]) -> None:
        """Count one mutation and forget the cached views (and so the
        content keys) it can have changed: those of ``tables`` and the
        shard listing.  Call next to the mutation itself, under the same
        lock hold, naming every table whose visible statistics it can
        have changed."""
        with self._lock:
            self._epoch += 1
            self._listing = None
            for table in tables:
                self._views.pop(table, None)

    def histogram_for(self, ref: ColumnRef):
        return self._table_view(ref.table)[0].get(ref.column)

    def density_for_columns(
        self, table: str, wanted: frozenset, size: int
    ) -> Optional[float]:
        best = None
        for key, stat in self._table_view(table)[1]:
            if len(key.columns) < size:
                continue
            if frozenset(key.columns[:size]) == wanted:
                density = stat.prefix_densities[size - 1]
                if best is None or density < best:
                    best = density
        return best

    def joint_for_columns(self, table: str, wanted: frozenset):
        for key, stat in self._table_view(table)[1]:
            if stat.joint_histogram is None:
                continue
            if frozenset(key.columns[:2]) == wanted:
                return stat.joint_histogram, key.columns[0], key.columns[1]
        return None

    # ------------------------------------------------------------------
    # refresh / incremental maintenance
    # ------------------------------------------------------------------

    def refresh_table(self, table_name: str) -> float:
        data = self._db.table(table_name)
        total = 0.0
        with self._lock:
            keys = self.keys_on_table(table_name)
            # with no statistic replaced, the view and its key stand
            if keys:
                rebuilt = build_statistics(data, keys, self._config)
                for key, fresh in zip(keys, rebuilt):
                    fresh.update_count = self._statistics[key].update_count + 1
                    self._statistics[key] = fresh
                    total += statistic_update_cost(
                        data.row_count, key, self._config.sample_rows
                    )
                self._update_cost += total
                self._discard_views((table_name,))
            data.reset_modification_counter()
        return total

    def apply_incremental_inserts(
        self, table_name: str, inserted: Dict[str, "object"]
    ) -> float:
        total = 0.0
        with self._lock:
            # copy-on-write: estimators read a statistic they fetched
            # earlier outside this lock
            fresh: Dict[StatKey, Statistic] = {}
            for key in self.keys_on_table(table_name):
                values = inserted.get(key.columns[0])
                if values is None:
                    continue
                fresh[key] = self._statistics[key].with_inserts(values)
                total += len(values) * STAT_INCREMENTAL_COST_PER_ROW
            if not fresh:
                return total  # no statistic covers the inserted columns
            self._statistics.update(fresh)
            self._update_cost += total
            self._discard_views((table_name,))
        return total

    def keys_needing_rebuild(
        self, table_name: str, divergence_threshold: float
    ) -> List[StatKey]:
        with self._lock:
            return [
                key
                for key in self.keys_on_table(table_name)
                if self._statistics[key].histogram.needs_rebuild(
                    divergence_threshold
                )
            ]

    def rebuild(self, key: StatKey) -> float:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            data = self._db.table(key.table)
            old = self._statistics[key]
            fresh = build_statistic(data, key, self._config)
            fresh.update_count = old.update_count + 1
            self._statistics[key] = fresh
            cost = statistic_update_cost(
                data.row_count, key, self._config.sample_rows
            )
            self._update_cost += cost
            self._discard_views((key.table,))
        return cost

    # ------------------------------------------------------------------
    # resharding support
    # ------------------------------------------------------------------

    def export_state(self):
        """Snapshot everything for redistribution (copies)."""
        with self._lock:
            return (
                dict(self._statistics),
                set(self._drop_list),
                set(self._ignored),
                self._creation_cost,
                self._update_cost,
                self._epoch,
            )

    def import_state(
        self,
        statistics: Dict[StatKey, Statistic],
        drop_list: Set[StatKey],
        ignored: Set[StatKey],
        mutations: int,
    ) -> None:
        """Install redistributed state into a new shard, which starts
        from ``mutations``."""
        with self._lock:
            self._statistics = dict(statistics)
            self._drop_list = set(drop_list)
            self._ignored = set(ignored)
            self._epoch = mutations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"StatsShard(id={self.shard_id}, "
                f"stats={len(self._statistics)}, epoch={self._epoch})"
            )


class StatisticsManager:
    """Owns all statistics of one :class:`~repro.storage.Database`,
    partitioned by table into :class:`StatsShard` objects.

    The public API is unchanged from the unsharded manager; ``shards=1``
    (the default) reproduces its behaviour exactly.  Multi-shard managers
    additionally expose :attr:`router`, :meth:`shard_of` and
    :meth:`reshard`.
    """

    def __init__(
        self,
        database,
        config: OptimizerConfig = DEFAULT_CONFIG,
        shards: int = 1,
    ) -> None:
        self._db = database
        self.config = config
        self._router = ShardRouter(shards, database.table_names())
        self._shards = [
            StatsShard(index, database, self) for index in range(shards)
        ]

    # ------------------------------------------------------------------
    # sharding surface
    # ------------------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        """The table -> shard router (shared with the service layer)."""
        return self._router

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, table: str) -> int:
        """Shard id owning ``table``'s statistics."""
        return self._router.shard_of(table)

    def shard(self, shard_id: int) -> StatsShard:
        """The shard object for ``shard_id`` (introspection and tests)."""
        return self._shards[shard_id]

    def reshard(self, shards: int) -> None:
        """Repartition the manager into ``shards`` shards.

        Not safe to run concurrently with other manager use — the service
        calls it during startup, before any worker thread exists.  Every
        table keeps its ``Statistic`` objects in their order, so no
        :meth:`versions_for` entry moves, and :attr:`epoch` keeps its
        count.
        """
        if shards == len(self._shards):
            return
        statistics: Dict[StatKey, Statistic] = {}
        drop_list: Set[StatKey] = set()
        ignored: Set[StatKey] = set()
        creation = 0.0
        update = 0.0
        mutations = 0
        for shard in self._shards:
            stats, drops, ign, c_cost, u_cost, epoch = shard.export_state()
            statistics.update(stats)
            drop_list |= drops
            ignored |= ign
            creation += c_cost
            update += u_cost
            mutations += epoch
        tables = set(self._db.table_names())
        tables.update(key.table for key in statistics)
        router = ShardRouter(shards, tables)
        new_shards = [
            StatsShard(index, self._db, self) for index in range(shards)
        ]
        for index, shard in enumerate(new_shards):
            owned = {
                key: stat
                for key, stat in statistics.items()
                if router.shard_of(key.table) == index
            }
            shard.import_state(
                owned,
                {k for k in drop_list if router.shard_of(k.table) == index},
                {k for k in ignored if router.shard_of(k.table) == index},
                mutations if index == 0 else 0,
            )
        new_shards[0].set_cost_ledger(creation, update)
        self._router = router
        self._shards = new_shards

    def _shard_for_key(self, key: StatKey) -> StatsShard:
        return self._shards[self._router.shard_of(key.table)]

    def _shard_for_table(self, table: str) -> StatsShard:
        return self._shards[self._router.shard_of(table)]

    # ------------------------------------------------------------------
    # versions (plan-cache invalidation)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """How many statistics mutations have been made: creation,
        physical drop, drop-list membership, refresh / rebuild,
        incremental maintenance and ignore-buffer changes, one each.
        DML is not counted.  A measure only; nothing is keyed on it."""
        return sum(shard.epoch for shard in self._shards)

    def versions_for(self, tables: Iterable[str]) -> tuple:
        """``(visible serials, data version)`` of each of ``tables``, in
        the order given: what the optimizer can see of them.

        Every change of a statistic's content installs a new
        ``Statistic``, hence a new serial, and the data version
        (:attr:`~repro.storage.table_data.TableData.version`) moves with
        every load or DML, so an equal tuple means nothing a plan over
        ``tables`` reads has changed.  The key is not monotone (a create
        then a drop-list returns it), so work keyed on it must hold off
        mutations of ``tables`` until it is stored (the statement locks).
        """
        return tuple(
            [
                (
                    self._shard_for_table(table).visible_serials(table),
                    self._db.table(table).version,
                )
                for table in tables
            ]
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        key_or_refs,
        histogram_kind: HistogramKind = HistogramKind.MAXDIFF,
        sample_rows: Optional[int] = None,
    ) -> Statistic:
        """Build and register a statistic.

        Accepts a :class:`StatKey`, a single :class:`ColumnRef`, or an
        ordered iterable of refs.  Creating an existing statistic is an
        error; creating one that sits on the drop-list revives it instead
        of rebuilding (paper Sec 5).  With ``sample_rows``, a table of
        more rows is built from a seeded sample of that many
        (:meth:`~repro.storage.table_data.TableData.sample_rows`' fixed
        ``default_rng(0)``) and charged the sampled build cost; a later
        :meth:`complete` pays for the full build.
        """
        key = self._as_key(key_or_refs)
        shard = self._shard_for_key(key)
        return shard.create(key, histogram_kind, sample_rows)

    def complete(self, keys: Iterable) -> List[StatKey]:
        """Rebuild in full each of ``keys`` that a sampled :meth:`create`
        built, keeping its histogram kind and ``update_count``, and charge
        the full build as creation cost: a completion finishes a first
        build, it is not a refresh.  Returns the keys rebuilt; the others
        (built in full, or revived full) stay as they are.
        """
        by_shard: Dict[int, List[StatKey]] = {}
        for key in map(self._as_key, keys):
            shard_id = self._router.shard_of(key.table)
            by_shard.setdefault(shard_id, []).append(key)
        completed: List[StatKey] = []
        for shard_id, shard_keys in sorted(by_shard.items()):
            completed.extend(self._shards[shard_id].complete(shard_keys))
        return completed

    def drop(self, key_or_refs) -> None:
        """Physically remove a statistic.

        Raises:
            StatisticsError: if the statistic does not exist.
        """
        key = self._as_key(key_or_refs)
        self._shard_for_key(key).drop(key)

    def drop_all(self) -> None:
        """Remove every statistic (used between experiment arms)."""
        for shard in self._shards:
            shard.drop_all()

    def reset_cost_ledger(self) -> None:
        for shard in self._shards:
            shard.set_cost_ledger(0.0, 0.0)

    @property
    def creation_cost_total(self) -> float:
        """Work units spent building statistics (sum over shards)."""
        return sum(shard.creation_cost for shard in self._shards)

    @creation_cost_total.setter
    def creation_cost_total(self, value: float) -> None:
        for shard in self._shards:
            shard.set_cost_ledger(0.0, shard.update_cost)
        self._shards[0].set_cost_ledger(value, self._shards[0].update_cost)

    @property
    def update_cost_total(self) -> float:
        """Work units spent refreshing statistics (sum over shards)."""
        return sum(shard.update_cost for shard in self._shards)

    @update_cost_total.setter
    def update_cost_total(self, value: float) -> None:
        for shard in self._shards:
            shard.set_cost_ledger(shard.creation_cost, 0.0)
        self._shards[0].set_cost_ledger(self._shards[0].creation_cost, value)

    def has(self, key_or_refs) -> bool:
        key = self._as_key(key_or_refs)
        return self._shard_for_key(key).has(key)

    def get(self, key_or_refs) -> Statistic:
        key = self._as_key(key_or_refs)
        return self._shard_for_key(key).get(key)

    def keys(self) -> List[StatKey]:
        """All physically present statistics (including drop-listed)."""
        found: List[StatKey] = []
        for shard in self._shards:
            found.extend(shard.keys())
        return found

    def statistics(self) -> List[Statistic]:
        found: List[Statistic] = []
        for shard in self._shards:
            found.extend(shard.statistics())
        return found

    def keys_on_table(self, table: str) -> List[StatKey]:
        return self._shard_for_table(table).keys_on_table(table)

    # ------------------------------------------------------------------
    # drop-list (Sec 5)
    # ------------------------------------------------------------------

    def mark_droppable(self, key_or_refs) -> None:
        """Put a statistic on the drop-list (hidden from the optimizer)."""
        key = self._as_key(key_or_refs)
        self._shard_for_key(key).mark_droppable(key)

    def revive(self, key_or_refs) -> None:
        """Remove a statistic from the drop-list, making it visible again."""
        key = self._as_key(key_or_refs)
        self._shard_for_key(key).revive(key)

    def drop_list(self) -> List[StatKey]:
        found: List[StatKey] = []
        for shard in self._shards:
            found.extend(shard.drop_list())
        return sorted(found)

    def is_droppable(self, key_or_refs) -> bool:
        key = self._as_key(key_or_refs)
        return self._shard_for_key(key).is_droppable(key)

    def purge_drop_list(self) -> List[StatKey]:
        """Physically delete every drop-listed statistic (a Sec 6 policy)."""
        purged: List[StatKey] = []
        for shard in self._shards:
            purged.extend(shard.purge_drop_list())
        return sorted(purged)

    # ------------------------------------------------------------------
    # Ignore_Statistics_Subset (Sec 7.2)
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def ignore_subset(self, keys: Iterable):
        """Hide a subset of statistics from the optimizer within a scope.

        This is the paper's ``Ignore_Statistics_Subset(db_id, stat_id_list)``
        server extension: the Shrinking Set algorithm needs ``Plan(Q, S')``
        for S' ⊂ S without physically dropping statistics.  Only the
        shards owning the keys' tables are touched, and only the tables
        of keys the scope hides move their :meth:`versions_for` entries
        — back to where they were when it exits.
        """
        added = {self._as_key(k) for k in keys}
        #: the keys this scope itself hid (not those hidden before it)
        hidden: Set[StatKey] = set()
        try:
            for shard_id, shard_keys in self._by_shard(added):
                hidden |= self._shards[shard_id].add_ignored(shard_keys)
            yield
        finally:
            # By key, through the router current *now*: a reshard inside
            # the scope moved the ignore buffers to other shards.  Every
            # shard owning one of ``added`` counts a mutation, hidden here
            # or not; only the tables of keys shown again rebuild views.
            for shard_id, shard_keys in self._by_shard(added):
                self._shards[shard_id].remove_ignored(shard_keys & hidden)

    def _by_shard(self, keys: Set[StatKey]):
        """``(shard id, its keys)`` for ``keys`` under the current
        router, in ascending shard-id order."""
        by_shard: Dict[int, Set[StatKey]] = {}
        for key in keys:
            by_shard.setdefault(self._router.shard_of(key.table), set()).add(
                key
            )
        return sorted(by_shard.items())

    def set_ignored(self, keys: Iterable) -> None:
        """Non-scoped variant used by long-running experiments."""
        wanted = {self._as_key(k) for k in keys}
        for index, shard in enumerate(self._shards):
            shard.set_ignored(
                {
                    k
                    for k in wanted
                    if self._router.shard_of(k.table) == index
                }
            )

    def clear_ignored(self) -> None:
        for shard in self._shards:
            shard.set_ignored(set())

    # ------------------------------------------------------------------
    # visibility and estimator lookups
    # ------------------------------------------------------------------

    def is_visible(self, key: StatKey) -> bool:
        return self._shard_for_key(key).is_visible(key)

    def visible_keys(self) -> List[StatKey]:
        found: List[StatKey] = []
        for shard in self._shards:
            found.extend(shard.visible_keys())
        return found

    def visible_statistics(self) -> List[Statistic]:
        found: List[Statistic] = []
        for shard in self._shards:
            found.extend(shard.visible_statistics())
        return found

    def visible_on_table(self, table: str) -> list:
        """The visible ``(key, statistic)`` pairs of one table — one lock
        acquisition, the statistics already in hand.  Read only."""
        return self._shard_for_table(table).visible_on_table(table)

    def histogram_for(self, ref: ColumnRef):
        """Histogram usable for predicates on ``ref``, or None.

        Prefers a single-column statistic; falls back to any visible
        multi-column statistic whose *leading* column is ``ref`` (SQL
        Server's asymmetric multi-column statistics, Sec 7.1).
        """
        return self._shard_for_table(ref.table).histogram_for(ref)

    def density_for_columns(
        self, table: str, columns: Iterable[str]
    ) -> Optional[float]:
        """Density for a *set* of columns of one table, if any visible
        statistic's leading prefix covers exactly that set (any order)."""
        wanted = frozenset(columns)
        size = len(wanted)
        if size == 0:
            return None
        return self._shard_for_table(table).density_for_columns(
            table, wanted, size
        )

    def distinct_for_columns(
        self, table: str, columns: Iterable[str]
    ) -> Optional[float]:
        """Estimated distinct tuples over a column set (1 / density)."""
        density = self.density_for_columns(table, columns)
        if density is None or density <= 0:
            return None
        return 1.0 / density

    def joint_for_columns(self, table: str, columns):
        """A joint histogram over exactly the given two columns, if any.

        Returns ``(joint_histogram, x_column, y_column)`` — the x/y names
        give the histogram's dimension orientation — or ``None``.
        """
        wanted = frozenset(columns)
        if len(wanted) != 2:
            return None
        return self._shard_for_table(table).joint_for_columns(table, wanted)

    # ------------------------------------------------------------------
    # refresh (SQL Server 7.0 trigger, Sec 2 / Sec 6)
    # ------------------------------------------------------------------

    def tables_needing_refresh(self, fraction: float = 0.2) -> List[str]:
        """Tables whose modification counter has *reached* the trigger.

        A table is due once ``rows_modified_since_stats >=
        max(1, fraction * row_count)`` — the boundary case where the
        counter equals exactly ``fraction * rows`` counts as due — and at
        least one statistic is physically present on the table.
        """
        due = []
        for name in self._db.table_names():
            data = self._db.table(name)
            threshold = max(1.0, fraction * data.row_count)
            if data.rows_modified_since_stats >= threshold and (
                self.keys_on_table(name)
            ):
                due.append(name)
        return due

    def refresh_table(self, table_name: str) -> float:
        """Rebuild every statistic on a table; returns the update cost.

        Refreshing includes drop-listed statistics (they are physically
        present) — that is exactly the update overhead the drop-list is
        meant to eliminate, so policies should purge before refreshing.
        """
        return self._shard_for_table(table_name).refresh_table(table_name)

    def apply_incremental_inserts(
        self, table_name: str, inserted: Dict[str, "object"]
    ) -> float:
        """Fold freshly inserted rows into existing histograms.

        ``inserted`` maps column name -> encoded value array for the new
        rows.  Every physically present statistic on the table whose
        leading column is covered is replaced by a copy with them folded
        in, at ``stat_incremental_cost_per_row`` per row — the cheap alternative
        to a counter-triggered full refresh (paper ref [8]).  Returns the
        charged cost.  Densities are not maintained; call
        :meth:`keys_needing_rebuild` to find degraded statistics.
        """
        return self._shard_for_table(table_name).apply_incremental_inserts(
            table_name, inserted
        )

    def keys_needing_rebuild(
        self, table_name: str, divergence_threshold: float = 0.15
    ) -> List[StatKey]:
        """Statistics whose incrementally maintained histograms degraded."""
        return self._shard_for_table(table_name).keys_needing_rebuild(
            table_name, divergence_threshold
        )

    def rebuild(self, key_or_refs) -> float:
        """Fully rebuild one statistic; returns the update cost charged."""
        key = self._as_key(key_or_refs)
        return self._shard_for_key(key).rebuild(key)

    def update_cost_of_keys(self, keys: Iterable) -> float:
        """Work units to refresh the given statistics once (no side effects).

        This is the Table 1 metric: the update cost of the set of
        statistics a strategy leaves behind.
        """
        total = 0.0
        for key_or_refs in keys:
            key = self._as_key(key_or_refs)
            rows = self._db.table(key.table).row_count
            total += statistic_update_cost(rows, key, self.config.sample_rows)
        return total

    # ------------------------------------------------------------------

    def _as_key(self, key_or_refs) -> StatKey:
        return as_stat_key(key_or_refs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StatisticsManager(stats={len(self.keys())}, "
            f"drop_list={len(self.drop_list())}, "
            f"shards={len(self._shards)})"
        )


def ensure_index_statistics(database) -> List[StatKey]:
    """Create single-column statistics on all indexed columns.

    SQL Server automatically keeps statistics on indexed columns; the intro
    experiment's baseline is exactly this set (paper Sec 1).
    """
    created = []
    for ref in database.indexes.indexed_columns():
        key = StatKey.single(ref)
        if not database.stats.has(key):
            database.stats.create(key)
            created.append(key)
    return created

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
  compared against a fraction of the table size (Sec 2, Sec 6).

Thread safety and sharding: the manager partitions its state *by table*
into :class:`StatsShard` objects behind a
:class:`~repro.stats.router.ShardRouter`.  Every shard owns its own
reentrant lock, its own slice of the statistics / drop-list / ignore
state, and its own monotone epoch, so mutations against one table never
contend with (or invalidate cached plans of) queries over tables in other
shards.  Aggregate views (``epoch``, ``keys()``, the cost ledger) sum or
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
from repro.concurrency import guarded_by, protocol
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import StatisticsError
from repro.stats.builder import build_statistic, build_statistics
from repro.stats.cost import statistic_update_cost
from repro.stats.histogram import HistogramKind
from repro.stats.router import ShardRouter
from repro.stats.statistic import StatKey, Statistic, as_stat_key


class StatsShard:
    """One shard of a :class:`StatisticsManager`: the statistics,
    drop-list, ignore buffer, epoch, and cost ledger of the tables routed
    to it.

    All state is guarded by the shard's own reentrant lock; every
    mutation that can alter an optimization outcome bumps the shard's
    epoch.  Shards never call into each other — cross-shard composition
    happens in the manager, and multi-shard readers tolerate per-shard
    (rather than global) snapshot consistency exactly like the plan
    cache's fingerprint revalidation does.
    """

    _statistics = guarded_by("_lock")
    _drop_list = guarded_by("_lock")
    # The paper's drop-list lifecycle (Sec 5), machine-checked (R012):
    # transitions must flip the _drop_list carrier (create revives a
    # drop-listed key instead of failing), guarded ops must check the
    # store first, and every estimator lookup must consult is_visible.
    _droplist_protocol = protocol(
        "stat-drop-list",
        rule="R012",
        states=("visible", "hidden"),
        initial="visible",
        transitions={
            "create": ("hidden", "visible"),
            "mark_droppable": ("visible", "hidden"),
            "revive": ("hidden", "visible"),
        },
        carrier="_drop_list",
        store="_statistics",
        guarded=("create", "mark_droppable", "revive"),
        reads=(
            "histogram_for",
            "density_for_columns",
            "joint_for_columns",
            "visible_keys",
            "visible_statistics",
            "visible_on_table",
            "drop_list",
            "is_droppable",
        ),
        visibility="is_visible",
    )
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
        # Caches of the guarded state above, not epoch-versioned state of
        # their own, hence no guarded_by (R006 would want lookups to bump).
        self._views: Dict[str, tuple] = {}
        self._listing: Optional[list] = None

    @property
    def _config(self) -> OptimizerConfig:
        # live read: experiments reassign manager.config mid-run
        return self._owner.config

    # ------------------------------------------------------------------
    # epoch
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """This shard's monotone statistics-change counter."""
        with self._lock:
            return self._epoch

    def note_data_change(self) -> None:
        """Record DML against a table routed to this shard."""
        with self._lock:
            self._epoch += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(self, key: StatKey, histogram_kind: HistogramKind) -> Statistic:
        with self._lock:
            if key in self._statistics:
                if key in self._drop_list:
                    self._drop_list.discard(key)
                    self._discard_views((key.table,))
                    self._epoch += 1
                    return self._statistics[key]
                raise StatisticsError(f"statistic {key} already exists")
            table = self._db.table(key.table)
            for column in key.columns:
                table.schema.column(column)  # validates
            statistic = build_statistic(
                table, key, self._config, histogram_kind=histogram_kind
            )
            self._statistics[key] = statistic
            self._creation_cost += statistic.build_cost
            self._discard_views((key.table,))
            self._epoch += 1
            return statistic

    def drop(self, key: StatKey) -> None:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            del self._statistics[key]
            self._drop_list.discard(key)
            self._ignored.discard(key)
            self._discard_views((key.table,))
            self._epoch += 1

    def drop_all(self) -> None:
        with self._lock:
            self._statistics.clear()
            self._drop_list.clear()
            self._ignored.clear()
            self._discard_views()
            self._epoch += 1

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
            self._epoch += 1

    def revive(self, key: StatKey) -> None:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            self._drop_list.discard(key)
            self._discard_views((key.table,))
            self._epoch += 1

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
            self._discard_views()
            self._epoch += 1
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
            self._epoch += 1
            return hidden

    def remove_ignored(self, keys: Set[StatKey]) -> None:
        """Leave an ignore scope: show the keys it hid again.  Nothing is
        ever re-added here, so a statistic dropped or purged inside the
        scope stays forgotten."""
        with self._lock:
            shown = keys & self._ignored
            self._ignored -= shown
            self._discard_views({key.table for key in shown})
            self._epoch += 1

    def set_ignored(self, keys: Set[StatKey]) -> None:
        with self._lock:
            moved = self._ignored.symmetric_difference(keys)
            self._ignored = set(keys)
            self._discard_views({key.table for key in moved})
            self._epoch += 1

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
        """``(histograms, pairs)`` over the visible statistics of
        ``table``: the histogram serving each leading column name (a
        single-column statistic's if one is visible, else the first
        multi-column one's) and the ``(key, statistic)`` pairs, both in
        ``_statistics`` order.

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
                view = self._views[table] = (histograms, pairs)
            return view

    def _discard_views(self, tables: Optional[Iterable[str]] = None) -> None:
        """Forget the cached views a mutation can have changed: those of
        ``tables`` (all of them when ``None``) and the shard listing.
        Call with the lock held, next to the mutation itself."""
        self._listing = None
        if tables is None:
            self._views = {}
        else:
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
            rebuilt = build_statistics(data, keys, self._config)
            for key, fresh in zip(keys, rebuilt):
                fresh.update_count = self._statistics[key].update_count + 1
                self._statistics[key] = fresh
                total += statistic_update_cost(
                    data.row_count,
                    key,
                    self._config.cost,
                    self._config.sample_rows,
                )
            data.reset_modification_counter()
            self._update_cost += total
            self._discard_views((table_name,))
            self._epoch += 1
        return total

    def apply_incremental_inserts(
        self, table_name: str, inserted: Dict[str, "object"]
    ) -> float:
        total = 0.0
        per_row = self._config.cost.stat_incremental_cost_per_row
        with self._lock:
            for key in self.keys_on_table(table_name):
                leading = key.columns[0]
                values = inserted.get(leading)
                if values is None:
                    continue
                statistic = self._statistics[key]
                # copy-on-write: estimators read a histogram they
                # fetched earlier outside this lock
                statistic.histogram = statistic.histogram.with_values(values)
                statistic.row_count += len(values)
                total += len(values) * per_row
            self._update_cost += total
            self._discard_views((table_name,))
            self._epoch += 1
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
                data.row_count,
                key,
                self._config.cost,
                self._config.sample_rows,
            )
            self._update_cost += cost
            self._discard_views((key.table,))
            self._epoch += 1
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
        epoch_floor: int,
    ) -> None:
        """Install redistributed state; the epoch starts at
        ``epoch_floor`` so no pre-reshard epoch sum can alias a
        post-reshard one (see :meth:`StatisticsManager.reshard`)."""
        with self._lock:
            self._statistics = dict(statistics)
            self._drop_list = set(drop_list)
            self._ignored = set(ignored)
            self._epoch = epoch_floor
            self._discard_views()
            self._creation_cost = 0.0
            self._update_cost = 0.0

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
    additionally expose :attr:`router`, :meth:`shard_of`,
    :meth:`epoch_for_tables`, and :meth:`reshard`.
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
        new shard's epoch starts at ``old_total_epoch + 1``: each
        post-reshard ``epoch_for_tables`` sum then strictly exceeds every
        pre-reshard sum, so a cached plan stored under the old partition
        can never alias a fresh one on the epoch fast path (it falls back
        to fingerprint revalidation, which is partition-independent).
        """
        if shards == len(self._shards):
            return
        statistics: Dict[StatKey, Statistic] = {}
        drop_list: Set[StatKey] = set()
        ignored: Set[StatKey] = set()
        creation = 0.0
        update = 0.0
        old_total = 0
        for shard in self._shards:
            stats, drops, ign, c_cost, u_cost, epoch = shard.export_state()
            statistics.update(stats)
            drop_list |= drops
            ignored |= ign
            creation += c_cost
            update += u_cost
            old_total += epoch
        tables = set(self._db.table_names())
        tables.update(key.table for key in statistics)
        router = ShardRouter(shards, tables)
        new_shards = [
            StatsShard(index, self._db, self) for index in range(shards)
        ]
        floor = old_total + 1
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
                floor,
            )
        new_shards[0].set_cost_ledger(creation, update)
        self._router = router
        self._shards = new_shards

    def _shard_for_key(self, key: StatKey) -> StatsShard:
        return self._shards[self._router.shard_of(key.table)]

    def _shard_for_table(self, table: str) -> StatsShard:
        return self._shards[self._router.shard_of(table)]

    # ------------------------------------------------------------------
    # statistics epoch (plan-cache invalidation)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonically increasing counter of statistics-affecting change.

        The sum of all shard epochs — each component is monotone
        non-decreasing, so equality of the sum implies equality of every
        component.  Bumped by every mutation that can alter an
        optimization outcome: creation, physical drop, drop-list
        membership, refresh / rebuild, incremental maintenance,
        ignore-buffer changes, and DML against the underlying tables (via
        :meth:`note_data_change`).  The plan cache
        (:mod:`repro.optimizer.cache`) uses equality of this value as its
        freshness fast path.
        """
        return sum(shard.epoch for shard in self._shards)

    def epoch_for_tables(self, tables: Iterable[str]) -> int:
        """Epoch restricted to the shards owning ``tables``.

        The per-shard analogue of :attr:`epoch`: queries keyed by this
        value stay cache-fresh across mutations in *other* shards, which
        is the point of sharding the catalog state.  Same soundness
        argument as :attr:`epoch` — a sum of monotone components.
        """
        ids = self._router.shard_ids_for(tables)
        return sum(self._shards[i].epoch for i in ids)

    def note_data_change(self, table: Optional[str] = None) -> None:
        """Record that table contents changed under existing statistics.

        Called by :class:`~repro.storage.Database` DML entry points so
        cached plans cannot outlive the data they were costed against
        (row counts and modification counters feed the cost model even
        when no statistic object is touched).  With a ``table`` the bump
        is confined to its shard; without one (legacy callers) every
        shard is bumped.
        """
        if table is not None:
            self._shard_for_table(table).note_data_change()
            return
        for shard in self._shards:
            shard.note_data_change()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        key_or_refs,
        histogram_kind: HistogramKind = HistogramKind.MAXDIFF,
    ) -> Statistic:
        """Build and register a statistic.

        Accepts a :class:`StatKey`, a single :class:`ColumnRef`, or an
        ordered iterable of refs.  Creating an existing statistic is an
        error; creating one that sits on the drop-list revives it instead
        of rebuilding (paper Sec 5).
        """
        key = self._as_key(key_or_refs)
        return self._shard_for_key(key).create(key, histogram_kind)

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
        shards owning the keys' tables are touched (and epoch-bumped).
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
            # shard owning one of ``added`` is bumped, hidden here or not.
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

    def has_histogram_for(self, ref: ColumnRef) -> bool:
        return self.histogram_for(ref) is not None

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
        """Fold freshly inserted rows into existing histograms in place.

        ``inserted`` maps column name -> encoded value array for the new
        rows.  Every physically present statistic on the table whose
        leading column is covered gets its histogram updated at
        ``stat_incremental_cost_per_row`` per row — the cheap alternative
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
            total += statistic_update_cost(
                rows, key, self.config.cost, self.config.sample_rows
            )
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

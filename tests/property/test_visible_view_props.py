"""The shards' per-table visible views against a straight scan.

After every step of a random lifecycle sequence the three estimator
lookups must equal what scanning ``keys()`` filtered by ``is_visible``
finds — the linear scans the views replaced, kept here as the oracle —
must never surface a drop-listed or ignored statistic, and every table's
view entry must equal a brute-force filter of the shard's statistics.
A mutation discards only the entries it can have changed.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import ColumnRef
from repro.config import OptimizerConfig
from repro.stats.statistic import StatKey

from tests.util import simple_db

COLUMNS = {
    "emp": ("age", "salary", "dept_id"),
    "dept": ("id", "budget"),
}
KEYS = [
    StatKey(table, columns)
    for table, names in COLUMNS.items()
    for size in (1, 2, 3)
    for columns in itertools.permutations(names, size)
]
OPS = (
    "create",
    "create",
    "mark_droppable",
    "revive",
    "drop",
    "ignore_enter",
    "ignore_exit",
    "purge_drop_list",
    "refresh_table",
    "rebuild",
    "incremental_insert",
    "note_data_change",
    "reshard",
)


def scan_histogram_for(stats, ref):
    single = StatKey.single(ref)
    if stats.has(single) and stats.is_visible(single):
        return stats.get(single).histogram
    for key in stats.keys():
        if stats.is_visible(key) and key.leading_column == ref:
            return stats.get(key).histogram
    return None


def scan_density_for_columns(stats, table, columns):
    wanted = frozenset(columns)
    best = None
    for key in stats.keys():
        if key.table != table or not stats.is_visible(key):
            continue
        if len(key.columns) < len(wanted):
            continue
        if frozenset(key.columns[: len(wanted)]) == wanted:
            density = stats.get(key).prefix_densities[len(wanted) - 1]
            if best is None or density < best:
                best = density
    return best


def scan_joint_for_columns(stats, table, columns):
    wanted = frozenset(columns)
    for key in stats.keys():
        if key.table != table or not stats.is_visible(key):
            continue
        joint = stats.get(key).joint_histogram
        if joint is not None and frozenset(key.columns[:2]) == wanted:
            return joint, key.columns[0], key.columns[1]
    return None


def assert_views_match_filter(stats):
    """Each table's view entry, and each shard's listing, against the
    shard's ``_statistics`` filtered by ``is_visible``, in its order."""
    listed = []
    for shard_id in range(stats.shard_count):
        shard = stats.shard(shard_id)
        visible = [
            (key, stat)
            for key, stat in zip(shard.keys(), shard.statistics())
            if shard.is_visible(key)
        ]
        listed.extend(visible)
        for table in COLUMNS:
            histograms, pairs = shard._table_view(table)
            expected = [(k, s) for k, s in visible if k.table == table]
            assert pairs == expected
            leading = {}
            for key, stat in expected:
                if key.is_multi_column:
                    leading.setdefault(key.columns[0], stat.histogram)
            for key, stat in expected:
                if not key.is_multi_column:
                    leading[key.columns[0]] = stat.histogram
            assert histograms.keys() == leading.keys()
            for column, found in histograms.items():
                assert found is leading[column]
    assert stats.visible_keys() == [key for key, _ in listed]
    assert stats.visible_statistics() == [stat for _, stat in listed]


def assert_lookups_match_scan(stats):
    assert_views_match_filter(stats)
    hidden = set(stats.drop_list())
    for shard_id in range(stats.shard_count):
        hidden |= stats.shard(shard_id).ignored()
    hidden_parts = set()
    for key in hidden:
        statistic = stats.get(key)
        hidden_parts.add(id(statistic.histogram))
        hidden_parts.add(id(statistic.joint_histogram))
    visible_parts = {
        id(part)
        for statistic in stats.visible_statistics()
        for part in (statistic.histogram, statistic.joint_histogram)
    }
    for table, names in COLUMNS.items():
        for name in names:
            ref = ColumnRef(table, name)
            found = stats.histogram_for(ref)
            assert found is scan_histogram_for(stats, ref)
            assert found is None or id(found) not in hidden_parts
            assert found is None or id(found) in visible_parts
        for size in (1, 2, 3):
            for subset in itertools.combinations(names, size):
                assert stats.density_for_columns(
                    table, subset
                ) == scan_density_for_columns(stats, table, subset)
        for pair in itertools.combinations(names, 2):
            found = stats.joint_for_columns(table, pair)
            expected = scan_joint_for_columns(stats, table, pair)
            if expected is None:
                assert found is None
                continue
            assert found[0] is expected[0] and found[1:] == expected[1:]
            assert id(found[0]) not in hidden_parts
            assert id(found[0]) in visible_parts


def _pick(items, index):
    return items[index % len(items)] if items else None


def _apply(stats, scopes, op, a, b):
    present = stats.keys()
    if op == "create":
        key = _pick(KEYS, a)
        # an existing visible statistic cannot be created again; a
        # drop-listed one is revived by create
        if not stats.has(key) or stats.is_droppable(key):
            stats.create(key)
    elif op in ("mark_droppable", "revive", "drop", "rebuild"):
        key = _pick(present, a)
        if key is not None:
            getattr(stats, op)(key)
    elif op == "incremental_insert":
        table = _pick(sorted(COLUMNS), a)
        column = _pick(COLUMNS[table], b)
        # a non-empty histogram is needed to fold values in
        if stats.keys_on_table(table):
            stats.apply_incremental_inserts(
                table, {column: np.array([a % 7, b % 7], dtype=np.int64)}
            )
    elif op == "ignore_enter":
        chosen = {k for k in (_pick(present, a), _pick(present, b)) if k}
        scope = stats.ignore_subset(chosen)
        scope.__enter__()
        scopes.append(scope)
    elif op == "ignore_exit":
        if scopes:
            scopes.pop().__exit__(None, None, None)
    elif op == "purge_drop_list":
        stats.purge_drop_list()
    elif op == "refresh_table":
        stats.refresh_table(_pick(sorted(COLUMNS), a))
    elif op == "note_data_change":
        stats.note_data_change(_pick(sorted(COLUMNS), a) if b % 2 else None)
    elif op == "reshard":
        stats.reshard(3 if stats.shard_count == 1 else 1)


steps = st.lists(
    st.tuples(
        st.sampled_from(OPS), st.integers(0, 10_000), st.integers(0, 10_000)
    ),
    min_size=1,
    max_size=40,
)


@given(steps)
@settings(max_examples=120, deadline=None)
def test_lookups_equal_a_scan_after_every_step(sequence):
    database = simple_db(n_emp=60, n_dept=5)
    stats = database.stats
    stats.config = OptimizerConfig(
        enable_joint_histograms=True, joint_histogram_cells=4
    )
    scopes = []
    assert_lookups_match_scan(stats)
    for op, a, b in sequence:
        _apply(stats, scopes, op, a, b)
        assert_lookups_match_scan(stats)
    while scopes:
        scopes.pop().__exit__(None, None, None)
        assert_lookups_match_scan(stats)


def _entries(stats):
    shard = stats.shard(0)
    return {table: shard._table_view(table) for table in COLUMNS}


def test_a_mutation_discards_only_its_tables_view():
    database = simple_db(n_emp=60, n_dept=5)
    stats = database.stats
    age, both = StatKey("emp", ("age",)), StatKey("emp", ("age", "salary"))
    budget = StatKey("dept", ("budget",))
    for key in (age, both, budget):
        stats.create(key)
    listing = stats.shard(0)._visible_pairs()
    before = _entries(stats)
    assert _entries(stats)["emp"] is before["emp"]  # kept between lookups
    for mutate in (
        lambda: stats.mark_droppable(age),
        lambda: stats.create(age),  # revives
        lambda: stats.mark_droppable(both),
        lambda: stats.revive(both),
        lambda: stats.rebuild(age),
        lambda: stats.refresh_table("emp"),
        lambda: stats.apply_incremental_inserts(
            "emp", {"age": np.array([30, 31], dtype=np.int64)}
        ),
        lambda: stats.drop(both),
    ):
        mutate()
        after = _entries(stats)
        assert after["dept"] is before["dept"]
        assert after["emp"] is not before["emp"]
        assert stats.shard(0)._visible_pairs() is not listing
        listing = stats.shard(0)._visible_pairs()
        before = after
        assert_lookups_match_scan(stats)
    # an ignore scope touches the tables of the keys it moves, and only
    # when it moves them
    with stats.ignore_subset([budget]):
        inside = _entries(stats)
        assert inside["emp"] is before["emp"]
        assert inside["dept"] is not before["dept"]
        assert stats.histogram_for(budget.leading_column) is None
        with stats.ignore_subset([budget]):  # hides nothing new
            assert _entries(stats)["dept"] is inside["dept"]
        assert _entries(stats)["dept"] is inside["dept"]
    assert _entries(stats)["dept"] is not inside["dept"]
    assert stats.histogram_for(budget.leading_column) is not None
    # DML alone changes no view
    before = _entries(stats)
    stats.note_data_change("emp")
    assert _entries(stats)["emp"] is before["emp"]
    # purge and drop_all start over
    stats.mark_droppable(budget)
    before = _entries(stats)
    stats.purge_drop_list()
    after = _entries(stats)
    assert all(after[t] is not before[t] for t in COLUMNS)
    stats.drop_all()
    assert all(_entries(stats)[t] is not after[t] for t in COLUMNS)
    assert_lookups_match_scan(stats)

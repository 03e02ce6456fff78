"""The shards' per-table visible views against a straight scan.

After every step of a random lifecycle sequence the three estimator
lookups must equal what scanning ``keys()`` filtered by ``is_visible``
finds — the linear scans the views replaced, kept here as the oracle —
must never surface a drop-listed or ignored statistic, and every table's
view entry must equal a brute-force filter of the shard's statistics.
A mutation discards only the entries it can have changed.

The same steps pin ``versions_for``: a table whose visible statistics or
rows changed has a moved entry, a table whose visible statistics and
rows are as they were has an equal one (whatever the step was), a step
that names one table leaves the other table's entry equal, and
``reshard`` moves none.
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
    "insert",
    "reshard",
)
#: the rows ``insert`` adds, per table
ROWS = {
    "emp": {
        "id": 0,
        "age": 41,
        "salary": 1.0,
        "dept_id": 1,
        "name": "new",
        "hired": 0,
    },
    "dept": {"id": 0, "dname": "new", "budget": 1.0},
}


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
            histograms, pairs, serials = shard._table_view(table)
            expected = [(k, s) for k, s in visible if k.table == table]
            assert pairs == expected
            assert serials == tuple(s.serial for _, s in expected)
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


def _apply(database, scopes, op, a, b):
    """Run one step; returns the one table it names, else ``None``."""
    stats = database.stats
    present = stats.keys()
    if op == "create":
        key = _pick(KEYS, a)
        # an existing visible statistic cannot be created again; a
        # drop-listed one is revived by create
        if not stats.has(key) or stats.is_droppable(key):
            stats.create(key)
        return key.table
    elif op in ("mark_droppable", "revive", "drop", "rebuild"):
        key = _pick(present, a)
        if key is not None:
            getattr(stats, op)(key)
            return key.table
    elif op == "incremental_insert":
        table = _pick(sorted(COLUMNS), a)
        column = _pick(COLUMNS[table], b)
        # a non-empty histogram is needed to fold values in
        if stats.keys_on_table(table):
            stats.apply_incremental_inserts(
                table, {column: np.array([a % 7, b % 7], dtype=np.int64)}
            )
        return table
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
        table = _pick(sorted(COLUMNS), a)
        stats.refresh_table(table)
        return table
    elif op == "insert":
        table = _pick(sorted(COLUMNS), a)
        database.insert(table, [ROWS[table]] * (1 + b % 3))
        return table
    elif op == "reshard":
        stats.reshard(3 if stats.shard_count == 1 else 1)
    return None


def _state(database, table):
    """What a plan over ``table`` reads: its visible statistics (the
    objects, their histograms and row counts) and its rows."""
    return (
        [
            (key, stat, stat.histogram, stat.row_count)
            for key, stat in database.stats.visible_on_table(table)
        ],
        database.table(table).row_count,
    )


def _same(old, new):
    (old_pairs, old_rows), (new_pairs, new_rows) = old, new
    return (
        old_rows == new_rows
        and len(old_pairs) == len(new_pairs)
        and all(
            a[0] == b[0] and a[1] is b[1] and a[2] is b[2] and a[3] == b[3]
            for a, b in zip(old_pairs, new_pairs)
        )
    )


def assert_versions_follow_the_step(database, op, named, before, states):
    stats = database.stats
    for table in COLUMNS:
        versions = stats.versions_for((table,))
        if op == "reshard" or named not in (None, table):
            assert versions == before[table], (op, table)
        if _same(states[table], _state(database, table)):
            assert versions == before[table], (op, table)
        else:
            assert versions != before[table], (op, table)


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
        before = {table: stats.versions_for((table,)) for table in COLUMNS}
        states = {table: _state(database, table) for table in COLUMNS}
        named = _apply(database, scopes, op, a, b)
        assert_lookups_match_scan(stats)
        assert_versions_follow_the_step(database, op, named, before, states)
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
    database.insert("emp", [ROWS["emp"]])
    assert _entries(stats)["emp"] is before["emp"]
    # purge discards the tables of the statistics it deletes, drop_all
    # those of every statistic
    stats.mark_droppable(budget)
    before = _entries(stats)
    stats.purge_drop_list()
    after = _entries(stats)
    assert after["dept"] is not before["dept"]
    assert after["emp"] is before["emp"]
    stats.drop_all()
    assert _entries(stats)["emp"] is not after["emp"]
    assert_lookups_match_scan(stats)

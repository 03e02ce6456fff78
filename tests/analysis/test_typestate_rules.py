"""Typestate rules R012-R015: exact findings on the bad fixtures,
silence on the good ones, and delete-the-guard regressions proving each
protocol really fences the production code it is declared on."""

import os
import shutil

from repro.analysis.framework import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(
    os.path.dirname(__file__), "..", "..", "src", "repro"
)


def fixture(*names):
    return [os.path.join(FIXTURES, name) for name in names]


def ids_and_lines(findings):
    return sorted((f.rule_id, f.line) for f in findings)


# ----------------------------------------------------------------------
# R012 statistics drop-list protocol
# ----------------------------------------------------------------------


def test_r012_flags_every_droplist_obligation():
    findings = lint_paths(fixture("r012_bad.py"), rules=["R012"])
    assert ids_and_lines(findings) == [
        ("R012", 33),  # create never mutates the carrier (no revive)
        ("R012", 39),  # hide flips the carrier without a store check
        ("R012", 41),  # is_visible ignores the carrier
        ("R012", 45),  # lookup bypasses the visibility predicate
        ("R012", 64),  # mirror.lookup never forwards to its delegate
    ]


def test_r012_good_fixture_is_clean():
    assert lint_paths(fixture("r012_good.py"), rules=["R012"]) == []


# ----------------------------------------------------------------------
# R013 admission/session lifecycle
# ----------------------------------------------------------------------


def test_r013_flags_drop_close_after_and_inverted_rate_check():
    findings = lint_paths(fixture("r013_bad.py"), rules=["R013"])
    assert ids_and_lines(findings) == [
        ("R013", 60),  # close() result dropped: stranded tickets leak
        ("R013", 62),  # push() on a provably-closed queue
        ("R013", 67),  # rate gate consumed after the enqueue
    ]


def test_r013_good_fixture_is_clean():
    assert lint_paths(fixture("r013_good.py"), rules=["R013"]) == []


# ----------------------------------------------------------------------
# R014 shard-lock acquisition order
# ----------------------------------------------------------------------


def test_r014_flags_hand_rolled_orderings():
    findings = lint_paths(fixture("r014_bad.py"), rules=["R014"])
    assert ids_and_lines(findings) == [
        ("R014", 21),  # iterating an unmarked set-returning helper
        ("R014", 27),  # reversed(sorted(...)) is descending
    ]


def test_r014_good_fixture_is_clean():
    assert lint_paths(fixture("r014_good.py"), rules=["R014"]) == []


# ----------------------------------------------------------------------
# R015 backend lifecycle
# ----------------------------------------------------------------------


def test_r015_flags_conformance_final_and_premature_use():
    findings = lint_paths(fixture("r015_bad.py"), rules=["R015"])
    assert ids_and_lines(findings) == [
        ("R015", 7),   # requires=("run", "stop") but stop missing
        ("R015", 22),  # __init__ can finish still loading
        ("R015", 26),  # run() while provably loading
    ]


def test_r015_good_fixture_is_clean():
    assert lint_paths(fixture("r015_good.py"), rules=["R015"]) == []


# ----------------------------------------------------------------------
# the production protocols run clean as declared
# ----------------------------------------------------------------------


def test_production_protocol_sites_are_clean():
    paths = [
        os.path.join(SRC, "stats", "manager.py"),
        os.path.join(SRC, "stats", "router.py"),
        os.path.join(SRC, "service", "admission.py"),
        os.path.join(SRC, "service", "service.py"),
        os.path.join(SRC, "service", "worker.py"),
        os.path.join(SRC, "backends", "base.py"),
        os.path.join(SRC, "backends", "memory.py"),
        os.path.join(SRC, "backends", "sqlite.py"),
        os.path.join(SRC, "optimizer", "selectivity.py"),
    ]
    assert lint_paths(paths, rules=["R012", "R013", "R014", "R015"]) == []


# ----------------------------------------------------------------------
# delete-the-guard regressions: mutate the real production code and the
# protocol must catch it.  Each case copies the product sources into
# tmp_path, applies one "plausible refactor" that deletes a guard, and
# asserts the rule fires.
# ----------------------------------------------------------------------


def _mutated(tmp_path, sources, target, old, new):
    """Copy ``sources`` to tmp_path, replacing ``old`` with ``new`` in
    ``target`` (which must be one of the sources); returns the copies."""
    copies = []
    for source in sources:
        dest = str(tmp_path / os.path.basename(source))
        shutil.copy(source, dest)
        copies.append(dest)
        if os.path.basename(source) == target:
            text = open(dest).read()
            assert old in text, f"pattern vanished from {target}"
            open(dest, "w").write(text.replace(old, new, 1))
    return copies


def test_r012_catches_deleted_revive_branch(tmp_path):
    paths = _mutated(
        tmp_path,
        [os.path.join(SRC, "stats", "manager.py")],
        "manager.py",
        """            if key in self._statistics:
                if key in self._drop_list:
                    self._drop_list.discard(key)
                    self._discard_views((key.table,))
                    return self._statistics[key]
                raise StatisticsError(f"statistic {key} already exists")""",
        """            if key in self._statistics:
                raise StatisticsError(f"statistic {key} already exists")""",
    )
    findings = lint_paths(paths, rules=["R012"])
    assert [f.rule_id for f in findings] == ["R012"]
    assert "never mutates the carrier '_drop_list'" in findings[0].message


def test_r012_catches_deleted_store_guard(tmp_path):
    paths = _mutated(
        tmp_path,
        [os.path.join(SRC, "stats", "manager.py")],
        "manager.py",
        """    def mark_droppable(self, key: StatKey) -> None:
        with self._lock:
            if key not in self._statistics:
                raise StatisticsError(f"no statistic {key}")
            self._drop_list.add(key)""",
        """    def mark_droppable(self, key: StatKey) -> None:
        with self._lock:
            self._drop_list.add(key)""",
    )
    findings = lint_paths(paths, rules=["R012"])
    assert [f.rule_id for f in findings] == ["R012"]
    assert "never checked the store '_statistics'" in findings[0].message


def test_r012_catches_view_built_without_visibility_check(tmp_path):
    """The three estimator lookups and the plan cache's per-table
    fingerprint read all go through a table's visible view; its
    constructor is the one place they consult ``is_visible``."""
    paths = _mutated(
        tmp_path,
        [os.path.join(SRC, "stats", "manager.py")],
        "manager.py",
        """                    if key.table != table or not self.is_visible(key):
                        continue
                    pairs.append""",
        """                    if key.table != table:
                        continue
                    pairs.append""",
    )
    findings = lint_paths(paths, rules=["R012"])
    assert [f.rule_id for f in findings] == ["R012"] * 4
    for finding, lookup in zip(
        findings,
        (
            "visible_on_table",
            "histogram_for",
            "density_for_columns",
            "joint_for_columns",
        ),
    ):
        assert f"StatsShard.{lookup} serves estimation reads" in (
            finding.message
        )
        assert "without consulting is_visible()" in finding.message


def test_r012_catches_listing_built_without_visibility_check(tmp_path):
    """``visible_keys`` / ``visible_statistics`` read the shard listing,
    whose constructor filters through ``is_visible``."""
    paths = _mutated(
        tmp_path,
        [os.path.join(SRC, "stats", "manager.py")],
        "manager.py",
        """                    for key, stat in self._statistics.items()
                    if self.is_visible(key)
                ]""",
        """                    for key, stat in self._statistics.items()
                ]""",
    )
    findings = lint_paths(paths, rules=["R012"])
    assert [f.rule_id for f in findings] == ["R012"] * 2
    for finding, listing in zip(
        findings, ("visible_keys", "visible_statistics")
    ):
        assert f"StatsShard.{listing} serves estimation reads" in (
            finding.message
        )


def test_r012_catches_sqlite_visibility_bypass(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "backends", "base.py"),
            os.path.join(SRC, "backends", "sqlite.py"),
        ],
        "sqlite.py",
        """    def is_stat_visible(self, key: StatKey) -> bool:
        key = as_stat_key(key)
        with self._db_lock:
            stat = self._stats.get(key)
            return stat is not None and not stat.droppable""",
        """    def is_stat_visible(self, key: StatKey) -> bool:
        key = as_stat_key(key)
        with self._db_lock:
            return key in self._stats""",
    )
    findings = lint_paths(paths, rules=["R012"])
    assert [f.rule_id for f in findings] == ["R012"]
    assert "without consulting _effective_visible()" in findings[0].message


def test_r013_catches_dropped_stranded_tickets(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "service", "admission.py"),
            os.path.join(SRC, "service", "service.py"),
        ],
        "service.py",
        """            for ticket in self._queue.close():
                ticket.fail(
                    ServiceError("service stopped before the request ran")
                )""",
        """            self._queue.close()""",
    )
    findings = lint_paths(paths, rules=["R013"])
    assert [f.rule_id for f in findings] == ["R013"]
    assert "must settle them" in findings[0].message


def test_r013_catches_rate_check_after_enqueue(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "service", "admission.py"),
            os.path.join(SRC, "service", "service.py"),
        ],
        "service.py",
        """        if request.session_id is not None:
            self._rate_check(request.session_id)
        if self._queue is not None:
            try:
                ticket = self._queue.admit(request, request.priority)""",
        """        if self._queue is not None:
            try:
                ticket = self._queue.admit(request, request.priority)
                if request.session_id is not None:
                    self._rate_check(request.session_id)""",
    )
    findings = lint_paths(paths, rules=["R013"])
    assert [f.rule_id for f in findings] == ["R013"]
    assert "must be consumed before the admit" in findings[0].message


def test_r013_catches_admit_after_close(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "service", "admission.py"),
            os.path.join(SRC, "service", "service.py"),
        ],
        "service.py",
        """            for worker in self._request_workers:
                worker.join(timeout)""",
        """            for worker in self._request_workers:
                worker.join(timeout)
            self._queue.admit(None)""",
    )
    findings = lint_paths(paths, rules=["R013"])
    assert [f.rule_id for f in findings] == ["R013"]
    assert "in state closed" in findings[0].message


def test_r014_catches_reversed_shard_order(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "stats", "router.py"),
            os.path.join(SRC, "service", "worker.py"),
        ],
        "worker.py",
        "for sid in self._router.shard_ids_for(event.tables):",
        "for sid in reversed(self._router.shard_ids_for(event.tables)):",
    )
    findings = lint_paths(paths, rules=["R014"])
    assert [f.rule_id for f in findings] == ["R014"]
    assert "not provably ascending" in findings[0].message


def test_r015_catches_unloaded_backend(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "backends", "base.py"),
            os.path.join(SRC, "backends", "sqlite.py"),
        ],
        "sqlite.py",
        "        self._load(database)",
        "        pass",
    )
    findings = lint_paths(paths, rules=["R015"])
    assert [f.rule_id for f in findings] == ["R015"]
    assert "every path must reach 'ready'" in findings[0].message


def test_r015_catches_partial_adapter(tmp_path):
    paths = _mutated(
        tmp_path,
        [
            os.path.join(SRC, "backends", "base.py"),
            os.path.join(SRC, "backends", "memory.py"),
        ],
        "memory.py",
        """    def table_names(self) -> List[str]:
        return list(self._db.table_names())""",
        "",
    )
    findings = lint_paths(paths, rules=["R015"])
    assert [f.rule_id for f in findings] == ["R015"]
    assert "missing operation(s) table_names" in findings[0].message

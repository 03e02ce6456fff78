"""Each analysis rule fires on its bad fixture (exact rule ids and line
numbers) and stays silent on its good fixture."""

import os

from repro.analysis.framework import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(*names):
    return [os.path.join(FIXTURES, name) for name in names]


def ids_and_lines(findings):
    return sorted((f.rule_id, f.line) for f in findings)


# ----------------------------------------------------------------------
# R001 guarded-by
# ----------------------------------------------------------------------


def test_r001_flags_unlocked_accesses():
    findings = lint_paths(fixture("r001_bad.py"), rules=["R001"])
    assert ids_and_lines(findings) == [
        ("R001", 22),  # read without lock
        ("R001", 25),  # assignment without lock
        ("R001", 28),  # subscript store on a mutations_only attribute
        ("R001", 33),  # held lock is not the declared one
    ]
    assert all("guarded_by" in f.message for f in findings)


def test_r001_clean_on_good_fixture():
    assert lint_paths(fixture("r001_good.py"), rules=["R001"]) == []


def test_r001_mutations_only_allows_lock_free_reads():
    findings = lint_paths(fixture("r001_good.py", "r001_bad.py"), rules=["R001"])
    # peek_cache in the good fixture reads _cache without the lock and
    # must not appear; only the bad fixture's four findings survive.
    assert all(f.path.endswith("r001_bad.py") for f in findings)
    assert len(findings) == 4


# ----------------------------------------------------------------------
# R002 lock-order
# ----------------------------------------------------------------------


def test_r002_flags_inversion_and_self_deadlock():
    findings = lint_paths(fixture("r002_bad.py"), rules=["R002"])
    assert ids_and_lines(findings) == [
        ("R002", 16),  # alpha -> beta edge of the cycle
        ("R002", 21),  # beta -> alpha edge of the cycle
        ("R002", 31),  # non-reentrant self re-acquisition via inner()
        ("R002", 49),  # journal -> outbox: the helper's own-scope lock
        ("R002", 60),  # outbox -> journal
    ]
    cycle_msgs = [f.message for f in findings if f.line in (16, 21, 49, 60)]
    assert all("cycle" in m for m in cycle_msgs)
    (self_msg,) = [f.message for f in findings if f.line == 31]
    assert "re-acquired" in self_msg


def test_r002_clean_on_consistent_order_and_rlock():
    assert lint_paths(fixture("r002_good.py"), rules=["R002"]) == []


# ----------------------------------------------------------------------
# R003 exhaustive-dispatch
# ----------------------------------------------------------------------


def test_r003_flags_missing_subclass():
    findings = lint_paths(fixture("r003_bad.py"), rules=["R003"])
    assert ids_and_lines(findings) == [("R003", 24)]
    assert "Triangle" in findings[0].message
    assert "Shape" in findings[0].message


def test_r003_clean_with_except_and_tuple_isinstance():
    assert lint_paths(fixture("r003_good.py"), rules=["R003"]) == []


# ----------------------------------------------------------------------
# R004 no-blocking-under-lock
# ----------------------------------------------------------------------


def test_r004_flags_blocking_calls_under_lock():
    findings = lint_paths(fixture("r004_bad.py"), rules=["R004"])
    assert ids_and_lines(findings) == [
        ("R004", 20),  # time.sleep
        ("R004", 24),  # Thread.join
        ("R004", 28),  # Queue.get(timeout=...)
        ("R004", 32),  # cond.wait while holding a different lock
        ("R004", 36),  # query execution under a non-db lock
    ]


def test_r004_clean_on_good_fixture():
    # includes dict.get, str.join, and cond.wait under its own Condition
    assert lint_paths(fixture("r004_good.py"), rules=["R004"]) == []


# ----------------------------------------------------------------------
# R005 magic-number-literals
# ----------------------------------------------------------------------


def test_r005_flags_inline_pin_literals():
    findings = lint_paths(fixture("r005"), rules=["R005"])
    assert all(f.path.endswith("bad.py") for f in findings)
    assert ids_and_lines(findings) == [
        ("R005", 10),  # inline EPSILON in an override dict-comp
        ("R005", 14),  # inline 1 - EPSILON complement
        ("R005", 18),  # non-pin float typed into selectivity_overrides
        ("R005", 23),  # module-level constant duplicating the pin
    ]


def test_r005_pin_source_and_named_constants_are_clean():
    # variables.py itself and good.py (which imports the constant) pass;
    # an unrelated float like 0.25 outside an override dict is fine too.
    findings = lint_paths(fixture("r005"), rules=["R005"])
    assert not any(f.path.endswith("good.py") for f in findings)
    assert not any(f.path.endswith("variables.py") for f in findings)


# ----------------------------------------------------------------------
# R006 epoch-bump completeness
# ----------------------------------------------------------------------

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_r006_flags_unbumped_mutation_paths():
    findings = lint_paths(fixture("r006_bad.py"), rules=["R006"])
    assert ids_and_lines(findings) == [
        ("R006", 21),  # direct mutation, no bump anywhere
        ("R006", 26),  # if-branch mutates, only the else bumps
        ("R006", 33),  # in-place mutator call (.clear()), no bump
        ("R006", 37),  # transitive mutation through self._stash
        ("R006", 39),  # epoch-exempt marker without a reason
        ("R006", 46),  # the mutating helper itself never bumps
    ]
    assert any("epoch-exempt marker must give a reason" in f.message for f in findings)
    assert any("self._drop_list" in f.message for f in findings)


def test_r006_clean_on_good_fixture():
    assert lint_paths(fixture("r006_good.py"), rules=["R006"]) == []


def test_r006_real_manager_is_clean(tmp_path):
    manager = os.path.join(REPO_ROOT, "src", "repro", "stats", "manager.py")
    copy = tmp_path / "manager.py"
    copy.write_text(open(manager).read())
    assert lint_paths([str(copy)], rules=["R006"]) == []


def test_r006_fails_when_a_bump_is_deleted(tmp_path):
    """Deleting the ``self._discard_views(...)`` call — the bump of the
    mutation count and of the table's version — from StatsShard.drop
    must fail lint: the invariant the plan cache depends on."""
    manager = os.path.join(REPO_ROOT, "src", "repro", "stats", "manager.py")
    lines = open(manager).read().splitlines(keepends=True)
    drop_at = next(i for i, l in enumerate(lines) if l.lstrip().startswith("def drop(self"))
    bump_at = next(
        i for i, l in enumerate(lines[drop_at:], start=drop_at)
        if l.strip() == "self._discard_views((key.table,))"
    )
    del lines[bump_at]
    copy = tmp_path / "manager.py"
    copy.write_text("".join(lines))
    findings = lint_paths([str(copy)], rules=["R006"])
    assert findings, "deleting an epoch bump must produce an R006 finding"
    assert all(f.rule_id == "R006" for f in findings)
    assert any("StatsShard.drop" in f.message for f in findings)


# ----------------------------------------------------------------------
# R007 metrics-registry consistency
# ----------------------------------------------------------------------


def test_r007_flags_unknown_dynamic_and_ill_formed_names():
    findings = lint_paths(
        fixture("r007/metric_names.py", "r007/bad.py"), rules=["R007"]
    )
    assert ids_and_lines(findings) == [
        ("R007", 10),  # emitted name missing from the registry
        ("R007", 13),  # name violates the component.name grammar
        ("R007", 16),  # dynamic (f-string) name
        ("R007", 22),  # unregistered name through the wrapper call site
    ]
    assert any("is not registered" in f.message for f in findings)
    assert any("dynamic metric name" in f.message for f in findings)


def test_r007_clean_on_good_fixture():
    findings = lint_paths(
        fixture("r007/metric_names.py", "r007/good.py"), rules=["R007"]
    )
    assert findings == []


def test_r007_silent_without_a_registry_module():
    # partial lints of trees without metric_names.py must stay quiet
    assert lint_paths(fixture("r007/bad.py"), rules=["R007"]) == []


def test_r007_registry_entries_are_grammar_checked(tmp_path):
    registry = tmp_path / "metric_names.py"
    registry.write_text('METRICS = {\n    "BadGrammar": "no dot, caps",\n}\n')
    findings = lint_paths([str(registry)], rules=["R007"])
    assert [(f.rule_id, f.line) for f in findings] == [("R007", 2)]
    assert "registry entry" in findings[0].message


def test_r007_real_tree_registry_matches_emissions():
    # every name the src tree emits is registered, and vice-versa usage
    # of the registry module keeps R007 quiet on the real code
    findings = lint_paths([os.path.join(REPO_ROOT, "src")], rules=["R007"])
    assert findings == []


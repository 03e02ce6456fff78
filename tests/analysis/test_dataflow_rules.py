"""Dataflow-powered rules R009-R011 and R014: exact findings on the bad
fixtures, silence on the good ones, and the delete-the-guard regression
gates (the plan-cache fold, the ascending shard-lock order)."""

import ast
import os
import shutil
import textwrap

from repro.analysis.dataflow import (
    FunctionDataflow,
    dataflow_analysis,
    self_attr,
)
from repro.analysis.framework import build_project, lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
OPTIMIZER_DIR = os.path.join(SRC, "optimizer")


def fixture(*names):
    return [os.path.join(FIXTURES, name) for name in names]


def ids_and_lines(findings):
    return sorted((f.rule_id, f.line) for f in findings)


# ----------------------------------------------------------------------
# R009 plan-relevant state versioning
# ----------------------------------------------------------------------


def test_r009_flags_unversioned_state_and_missing_folds():
    findings = lint_paths(fixture("r009_bad.py"), rules=["R009"])
    assert ids_and_lines(findings) == [
        ("R009", 18),  # _entries mutated on the optimize path, unversioned
        ("R009", 32),  # swap() mutates _model without bumping _version
        ("R009", 42),  # bare plan-state-exempt marker without a reason
        ("R009", 51),  # the reasonless exemption does not exempt
        ("R009", 55),  # plan_source version property never read
        ("R009", 75),  # unfolded request reaches get_fresh
        ("R009", 79),  # unfolded request reaches store
        ("R009", 94),  # with_learned_version drops its version parameter
    ]
    by_line = {f.line: f.message for f in findings}
    assert "without a declared version" in by_line[18]
    assert "without bumping self._version" in by_line[32]
    assert "must give a reason" in by_line[42]
    assert "no method" in by_line[55]
    assert "does not fold" in by_line[75]
    assert "must fold its version parameter" in by_line[94]


def test_r009_clean_on_good_fixture():
    assert lint_paths(fixture("r009_good.py"), rules=["R009"]) == []


def test_r009_real_optimizer_sources_are_clean(tmp_path):
    for name in ("optimizer.py", "cache.py"):
        shutil.copy(os.path.join(OPTIMIZER_DIR, name), tmp_path / name)
    assert lint_paths([str(tmp_path)], rules=["R009"]) == []


def test_r009_catches_deleted_learned_fold(tmp_path):
    """Regression gate: removing the ``learned=version`` fold from
    OptimizationRequest.with_learned_version must trip R009."""
    for name in ("optimizer.py", "cache.py"):
        shutil.copy(os.path.join(OPTIMIZER_DIR, name), tmp_path / name)
    cache = tmp_path / "cache.py"
    source = cache.read_text()
    broken = source.replace(
        "            learned=version,\n",
        "",
    )
    assert broken != source, "fold expression moved; update this test"
    cache.write_text(broken)
    findings = lint_paths([str(tmp_path)], rules=["R009"])
    assert len(findings) == 1
    assert findings[0].rule_id == "R009"
    assert "with_learned_version" in findings[0].message
    assert "must fold its version parameter" in findings[0].message


# ----------------------------------------------------------------------
# R010 guarded-state escape
# ----------------------------------------------------------------------


def test_r010_flags_escaping_references():
    findings = lint_paths(fixture("r010_bad.py"), rules=["R010"])
    assert ids_and_lines(findings) == [
        ("R010", 20),  # direct return of the guarded list
        ("R010", 24),  # yielded reference
        ("R010", 29),  # alias assigned under the lock escapes after release
        ("R010", 33),  # stored into an unguarded attribute
        ("R010", 37),  # tuple element smuggles the reference out
    ]
    assert all("reference" in f.message for f in findings)
    stored = [f for f in findings if f.line == 33]
    assert "self.latest" in stored[0].message


def test_r010_clean_on_copies_and_elements():
    assert lint_paths(fixture("r010_good.py"), rules=["R010"]) == []


# ----------------------------------------------------------------------
# R011 check-then-act atomicity
# ----------------------------------------------------------------------


def test_r011_flags_lock_split_check_then_act():
    findings = lint_paths(fixture("r011_bad.py"), rules=["R011"])
    assert ids_and_lines(findings) == [
        ("R011", 20),  # clear() based on a count read in an earlier section
        ("R011", 27),  # pop() loop driven by a stale count
        ("R011", 34),  # helper re-locks and mutates on a stale condition
    ]
    assert all("re-acquired self._lock" in f.message for f in findings)
    assert all("condition computed at line" in f.message for f in findings)


def test_r011_clean_on_good_fixture():
    assert lint_paths(fixture("r011_good.py"), rules=["R011"]) == []


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


def test_r014_catches_reversed_shard_order(tmp_path):
    for name in (("stats", "router.py"), ("service", "worker.py")):
        shutil.copy(os.path.join(SRC, *name), tmp_path / name[1])
    worker = tmp_path / "worker.py"
    source = worker.read_text()
    broken = source.replace(
        "for sid in self._router.shard_ids_for(event.tables):",
        "for sid in reversed(self._router.shard_ids_for(event.tables)):",
        1,
    )
    assert broken != source, "shard loop moved; update this test"
    worker.write_text(broken)
    findings = lint_paths([str(tmp_path)], rules=["R014"])
    assert [f.rule_id for f in findings] == ["R014"]
    assert "not provably ascending" in findings[0].message


# ----------------------------------------------------------------------
# dataflow layer unit checks
# ----------------------------------------------------------------------


def _flow_of(source):
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[0]
    return FunctionDataflow(module=None, cls=None, fn=fn), fn


def test_dataflow_reaching_defs_join_branches():
    flow, fn = _flow_of(
        """
        def f(cond):
            if cond:
                x = 1
            else:
                x = 2
            return x
        """
    )
    (ret,) = flow.returns
    (use,) = flow.uses_in(ret.node)
    assert use.name == "x"
    assert sorted(d.lineno for d in use.defs) == [4, 6]


def test_dataflow_branch_exit_kills_definitions():
    flow, fn = _flow_of(
        """
        def f(cond):
            x = 1
            if cond:
                return None
            x = 2
            return x
        """
    )
    ret = flow.returns[-1]
    (use,) = flow.uses_in(ret.node)
    # the early return exits, so only the x=2 definition reaches line 7
    assert [d.lineno for d in use.defs] == [6]


def test_dataflow_loop_carried_definitions_converge():
    flow, fn = _flow_of(
        """
        def f(items):
            total = 0
            for item in items:
                total = total + item
            return total
        """
    )
    (ret,) = flow.returns
    (use,) = flow.uses_in(ret.node)
    assert sorted(d.lineno for d in use.defs) == [3, 5]


def test_dataflow_tracks_held_locks_and_attr_stores(tmp_path):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            import threading

            from repro.concurrency import guarded_by


            class Box:
                _events = guarded_by("_lock")

                def __init__(self):
                    self._lock = threading.Lock()
                    self._events = []

                def f(self):
                    with self._lock:
                        snap = self._events
                        self._shadow = snap
                    return snap
            """
        )
    )
    project = build_project([str(tmp_path)])
    (module,) = project.modules
    cls = module.classes["Box"]
    flow = dataflow_analysis(project).function(cls.module, cls, cls.methods["f"])
    (store,) = flow.attr_stores
    assert store.attr == "_shadow"
    assert "_lock" in store.held
    (ret,) = flow.returns
    assert not ret.held
    (use,) = flow.uses_in(ret.node)
    (definition,) = use.defs
    assert "_lock" in definition.held
    assert self_attr(definition.value) == "_events"

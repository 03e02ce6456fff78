"""Suppression comments, the baseline file, and driver plumbing."""

import os

import pytest

from repro.analysis.framework import (
    Finding,
    all_rule_ids,
    lint_paths,
    load_baseline,
    save_baseline,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

VIOLATION = '''\
import threading

from repro.concurrency import guarded_by


class Holder:
    _items = guarded_by("_lock")

    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def peek(self):
        return len(self._items){suffix}
'''


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def test_all_builtin_rules_registered():
    assert all_rule_ids() == [
        "R001", "R002", "R003", "R004", "R005", "R006", "R007",
        "R009", "R010", "R011", "R012", "R013", "R014", "R015",
    ]


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="R999"):
        lint_paths([os.path.join(FIXTURES, "r001_good.py")], rules=["R999"])


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------


def test_finding_without_suppression(tmp_path):
    path = write(tmp_path, "plain.py", VIOLATION.format(suffix=""))
    findings = lint_paths([path], rules=["R001"])
    assert [f.rule_id for f in findings] == ["R001"]


def test_line_suppression(tmp_path):
    path = write(
        tmp_path,
        "line.py",
        VIOLATION.format(suffix="  # repro-lint: disable=R001"),
    )
    assert lint_paths([path], rules=["R001"]) == []


def test_line_suppression_other_rule_does_not_apply(tmp_path):
    path = write(
        tmp_path,
        "other.py",
        VIOLATION.format(suffix="  # repro-lint: disable=R004"),
    )
    assert [f.rule_id for f in lint_paths([path], rules=["R001"])] == ["R001"]


def test_line_suppression_all(tmp_path):
    path = write(
        tmp_path,
        "all.py",
        VIOLATION.format(suffix="  # repro-lint: disable=all"),
    )
    assert lint_paths([path], rules=["R001"]) == []


def test_file_suppression(tmp_path):
    source = "# repro-lint: disable-file=R001\n" + VIOLATION.format(suffix="")
    path = write(tmp_path, "file.py", source)
    assert lint_paths([path], rules=["R001"]) == []


def test_marker_in_docstring_does_not_suppress(tmp_path):
    source = (
        '"""Docs quoting # repro-lint: disable-file=R001 do nothing."""\n'
        + VIOLATION.format(suffix="")
    )
    path = write(tmp_path, "doc.py", source)
    assert [f.rule_id for f in lint_paths([path], rules=["R001"])] == ["R001"]


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def test_baseline_round_trip_and_filtering(tmp_path):
    path = write(tmp_path, "base.py", VIOLATION.format(suffix=""))
    findings = lint_paths([path], rules=["R001"])
    assert len(findings) == 1

    baseline = str(tmp_path / "baseline.json")
    save_baseline(baseline, findings)
    assert load_baseline(baseline) == [findings[0].fingerprint]

    # baselined findings disappear; new violations still surface
    assert lint_paths([path], rules=["R001"], baseline=baseline) == []


def test_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) == []


def test_fingerprint_is_line_insensitive():
    a = Finding("R001", "m.py", 10, 4, "msg")
    b = Finding("R001", "m.py", 99, 0, "msg")
    assert a.fingerprint == b.fingerprint
    assert a.render() == "m.py:10:4: R001 msg"


def test_committed_baseline_is_empty():
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    baseline = os.path.join(repo_root, ".repro-lint-baseline.json")
    assert os.path.exists(baseline)
    assert load_baseline(baseline) == []

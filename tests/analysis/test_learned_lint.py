"""The learned corrections honor the repo's lint contracts.

The FeedbackStore, which holds them, sits between the executor
(observations in), the selectivity estimator (corrections out), and the
staleness monitor / advisor workers (invalidations) — its state
declares ``guarded_by("_lock")`` (R001), its correction version is an
R006 epoch (the plan cache keys on it), and every ``correction.*``
metric it emits must be registered (R007).
"""

import os

from repro.analysis.framework import lint_paths
from repro.concurrency import guarded_by
from repro.feedback.store import FeedbackStore

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
#: the module holding the correction store
STORE_SRC = os.path.join(REPO_ROOT, "src", "repro", "feedback", "store.py")


def fixture(*names):
    return [os.path.join(FIXTURES, name) for name in names]


def test_learned_package_is_r001_clean():
    assert lint_paths([STORE_SRC], rules=["R001"]) == []


def test_learned_package_is_r006_clean():
    assert lint_paths([STORE_SRC], rules=["R006"]) == []


def test_learned_package_is_fully_lint_clean():
    assert lint_paths([STORE_SRC]) == []


def test_store_state_declares_its_guard():
    for attribute in (
        "_trackers",
        "_epoch",
        "observations_total",
        "evicted_total",
        "resets_total",
        "hits_total",
        "misses_total",
        "invalidations_total",
    ):
        declared = FeedbackStore.__dict__[attribute]
        assert isinstance(declared, type(guarded_by("_lock")))
        assert declared.lock == "_lock"


def test_r006_fails_when_the_invalidation_bump_is_deleted(tmp_path):
    """Deleting ``self._epoch += 1`` from FeedbackStore.invalidate
    must fail lint — the plan cache keys on the correction version, so a
    silent invalidation would let stale corrected plans alias fresh
    ones."""
    lines = open(STORE_SRC).read().splitlines(keepends=True)
    at = next(
        i
        for i, line in enumerate(lines)
        if line.lstrip().startswith("def invalidate(self")
    )
    bump_at = next(
        i
        for i, line in enumerate(lines[at:], start=at)
        if line.strip() == "self._epoch += 1"
    )
    del lines[bump_at]
    copy = tmp_path / "store.py"
    copy.write_text("".join(lines))
    findings = lint_paths([str(copy)], rules=["R006"])
    assert findings, "deleting the version bump must produce R006 findings"
    assert all(f.rule_id == "R006" for f in findings)
    assert any(
        "FeedbackStore.invalidate" in f.message for f in findings
    )


def test_r007_catches_an_unregistered_correction_metric():
    findings = lint_paths(
        fixture("r007/metric_names.py", "r007/correction_bad.py"),
        rules=["R007"],
    )
    assert sorted((f.rule_id, f.line) for f in findings) == [
        ("R007", 11),  # correction.unregistered_total not in the registry
    ]

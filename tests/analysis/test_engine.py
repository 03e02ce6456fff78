"""The production lint driver: incremental cache correctness, parallel
execution, deterministic output, and the ``--fix`` rewrites."""

import json
import os
import shutil

from repro.analysis.engine import run_lint
from repro.analysis.fixers import apply_fixes
from repro.analysis.framework import lint_paths, save_baseline
from repro.analysis.output import render_json, render_sarif, render_text

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

# two classes whose lock-order cycle spans two files: file-local caching
# alone would serve stale R002 findings after one side is edited
FILE_A = '''\
import threading


class Alpha:
    def __init__(self, beta):
        self._alpha_lock = threading.Lock()
        self._beta = beta

    def forward(self):
        with self._alpha_lock:
            self._beta.take_beta()

    def grab_alpha(self):
        with self._alpha_lock:
            pass
'''

FILE_B = '''\
import threading


class Beta:
    def __init__(self, alpha):
        self._beta_lock = threading.Lock()
        self._alpha = alpha

    def take_beta(self):
        with self._beta_lock:
            pass

    def backward(self):
        with self._beta_lock:
            self._alpha.grab_alpha()
'''

# backward() no longer calls back into Alpha: the cycle is gone
FILE_B_FIXED = FILE_B.replace("self._alpha.grab_alpha()", "pass")


def _project(tmp_path):
    (tmp_path / "file_a.py").write_text(FILE_A)
    (tmp_path / "file_b.py").write_text(FILE_B)
    return [str(tmp_path / "file_a.py"), str(tmp_path / "file_b.py")]


# ----------------------------------------------------------------------
# run_lint equivalence + determinism
# ----------------------------------------------------------------------


def test_run_lint_matches_lint_paths_on_fixturs_tree():
    assert run_lint([FIXTURES]) == lint_paths([FIXTURES])


def test_lint_twice_is_byte_identical():
    first = render_text(run_lint([FIXTURES])) + render_json(run_lint([FIXTURES]))
    second = render_text(run_lint([FIXTURES])) + render_json(run_lint([FIXTURES]))
    assert first == second


def test_baseline_file_is_stably_sorted(tmp_path):
    findings = run_lint([os.path.join(FIXTURES, "r001_bad.py")])
    first, second = str(tmp_path / "b1.json"), str(tmp_path / "b2.json")
    save_baseline(first, findings)
    save_baseline(second, list(reversed(findings)))
    assert open(first).read() == open(second).read()
    assert json.load(open(first))["findings"] == sorted(
        json.load(open(first))["findings"]
    )


# ----------------------------------------------------------------------
# incremental cache
# ----------------------------------------------------------------------


def test_warm_cache_run_is_byte_identical_and_runs_nothing(tmp_path):
    paths = _project(tmp_path)
    cache = str(tmp_path / "cache.json")
    cold_stats, warm_stats = {}, {}
    cold = run_lint(paths, cache_path=cache, stats=cold_stats)
    warm = run_lint(paths, cache_path=cache, stats=warm_stats)
    assert render_json(warm) == render_json(cold)
    assert cold_stats["file_rule_runs"] > 0
    assert cold_stats["project_rule_runs"] > 0
    assert warm_stats["file_rule_runs"] == 0
    assert warm_stats["project_rule_runs"] == 0
    assert warm_stats["file_rule_cache_hits"] == cold_stats["file_rule_runs"]
    assert warm_stats["project_rule_cache_hits"] == cold_stats["project_rule_runs"]


def test_editing_one_file_relints_only_it_for_file_rules(tmp_path):
    paths = _project(tmp_path)
    cache = str(tmp_path / "cache.json")
    cold_stats = {}
    run_lint(paths, cache_path=cache, stats=cold_stats)
    n_file_rules = cold_stats["file_rule_runs"] // 2  # two files
    (tmp_path / "file_b.py").write_text(FILE_B + "\n# touched\n")
    stats = {}
    run_lint(paths, cache_path=cache, stats=stats)
    # per-file rules re-ran for file_b only; file_a came from the cache
    assert stats["file_rule_runs"] == n_file_rules
    assert stats["file_rule_cache_hits"] == n_file_rules
    # but every project-scope rule re-ran: cross-file state changed
    assert stats["project_rule_runs"] == cold_stats["project_rule_runs"]
    assert stats["project_rule_cache_hits"] == 0


def test_no_stale_cross_file_findings_after_edit(tmp_path):
    paths = _project(tmp_path)
    cache = str(tmp_path / "cache.json")
    cold = run_lint(paths, cache_path=cache)
    assert {f.rule_id for f in cold} == {"R002"}
    assert {os.path.basename(f.path) for f in cold} == {"file_a.py", "file_b.py"}
    # break the cycle in file_b: the finding in *file_a* must vanish too,
    # even though file_a itself did not change
    (tmp_path / "file_b.py").write_text(FILE_B_FIXED)
    warm = run_lint(paths, cache_path=cache)
    assert warm == []


def test_corrupt_cache_file_is_ignored(tmp_path):
    paths = _project(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    findings = run_lint(paths, cache_path=str(cache))
    assert {f.rule_id for f in findings} == {"R002"}
    assert json.load(open(cache))["engine"] >= 1  # rewritten, valid


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------


def test_sarif_document_shape():
    findings = run_lint([os.path.join(FIXTURES, "r001_bad.py")])
    document = json.loads(render_sarif(findings))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert len(run["tool"]["driver"]["rules"]) == 11
    assert len(run["results"]) == len(findings)
    first = run["results"][0]
    assert first["ruleId"] == findings[0].rule_id
    region = first["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == findings[0].line
    assert region["startColumn"] == findings[0].col + 1


def test_json_document_shape():
    findings = run_lint([os.path.join(FIXTURES, "r001_bad.py")])
    document = json.loads(render_json(findings))
    assert document["count"] == len(findings) == 4
    assert document["findings"][0]["rule_id"] == "R001"


# ----------------------------------------------------------------------
# --fix
# ----------------------------------------------------------------------


def test_fix_rewrites_pin_literals(tmp_path):
    shutil.copy(os.path.join(FIXTURES, "r005", "bad.py"), tmp_path / "bad.py")
    shutil.copy(
        os.path.join(FIXTURES, "r005", "variables.py"),
        tmp_path / "variables.py",
    )
    paths = [str(tmp_path / "bad.py"), str(tmp_path / "variables.py")]
    findings = run_lint(paths, rules=["R005"])
    report = apply_fixes(findings)
    assert report.files == {str(tmp_path / "bad.py"): 3}
    rewritten = (tmp_path / "bad.py").read_text()
    assert "from repro.optimizer.variables import EPSILON" in rewritten
    assert "0.0005" not in rewritten
    assert "(1 - EPSILON)" in rewritten
    # only the non-mechanical finding (a non-pin override literal) remains
    remaining = run_lint(paths, rules=["R005"])
    assert [f.line for f in remaining] == [19]
    assert "literal selectivity override" in remaining[0].message


def test_fix_unsafe_registers_unknown_metric_names(tmp_path):
    shutil.copytree(os.path.join(FIXTURES, "r007"), tmp_path / "r007")
    paths = [
        str(tmp_path / "r007" / "metric_names.py"),
        str(tmp_path / "r007" / "bad.py"),
    ]
    findings = run_lint(paths, rules=["R007"])
    safe_report = apply_fixes(findings)  # without unsafe: nothing happens
    assert safe_report.files == {}
    report = apply_fixes(findings, unsafe=True)
    registry_path = str(tmp_path / "r007" / "metric_names.py")
    assert report.files == {registry_path: 2}
    registry = (tmp_path / "r007" / "metric_names.py").read_text()
    assert '"cache.unknown": "TODO: describe this metric",' in registry
    assert '"cache.evictions": "TODO: describe this metric",' in registry
    assert registry.index('"cache.evictions"') < registry.index('"cache.hits"')
    remaining = run_lint(paths, rules=["R007"])
    assert all("is not registered" not in f.message for f in remaining)

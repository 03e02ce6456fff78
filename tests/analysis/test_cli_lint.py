"""The ``repro lint`` CLI subcommand: exit codes, output, baseline flags."""

import json
import os
import subprocess

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_lint_clean_path_exits_zero(capsys):
    good = os.path.join(FIXTURES, "r001_good.py")
    assert main(["lint", good]) == 0
    assert capsys.readouterr().out == ""


def test_lint_findings_exit_one_with_locations(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    assert main(["lint", bad]) == 1
    out = capsys.readouterr().out
    assert "4 finding(s)" in out
    assert f"{bad}:22:" in out
    assert "R001" in out


def test_lint_rule_filter(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    # only R004 requested: the R001 violations are not reported
    assert main(["lint", bad, "--rules", "R004"]) == 0
    assert capsys.readouterr().out == ""


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "R001", "R002", "R003", "R004", "R005", "R006", "R007",
        "R009", "R010", "R011", "R012", "R013", "R014", "R015",
    ):
        assert rule_id in out
    assert "R008" not in out
    assert "guarded" in out


def test_lint_list_rules_shows_scope_and_version_columns(capsys):
    assert main(["lint", "--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14
    for line in lines:
        columns = line.split()
        assert columns[2] in ("file", "project"), line
        assert columns[3].startswith("v") and columns[3][1:].isdigit(), line
    by_id = {line.split()[0]: line.split() for line in lines}
    assert by_id["R009"][2] == "project"
    assert by_id["R010"][2] == "file"
    assert by_id["R011"][2] == "file"
    # the typestate rule family (and R014's dataflow rule) are all
    # project-scope: they reason across files via the shared call graph
    for rule_id in ("R012", "R013", "R014", "R015"):
        assert by_id[rule_id][2] == "project"


def test_lint_update_baseline_then_clean(tmp_path, capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", bad, "--baseline", baseline, "--update-baseline"]) == 0
    capsys.readouterr()

    data = json.loads(open(baseline).read())
    assert len(data["findings"]) == 4

    # the grandfathered findings no longer fail the gate
    assert main(["lint", bad, "--baseline", baseline]) == 0


def test_lint_src_via_cli(src_lint_via_cli):
    code, _ = src_lint_via_cli
    assert code == 0


def test_lint_unknown_rule_id_exits_two(capsys):
    good = os.path.join(FIXTURES, "r001_good.py")
    assert main(["lint", good, "--rules", "R001,R099"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id(s): R099" in err
    assert "known:" in err


def test_lint_missing_path_exits_two(capsys):
    missing = os.path.join(FIXTURES, "does_not_exist.py")
    assert main(["lint", missing]) == 2
    err = capsys.readouterr().err
    assert "path(s) do not exist" in err
    assert "does_not_exist.py" in err


def test_lint_format_json(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    assert main(["lint", bad, "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["tool"] == "repro-lint"
    assert document["count"] == 4
    assert all(f["rule_id"] == "R001" for f in document["findings"])


def test_lint_format_sarif(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    assert main(["lint", bad, "--format", "sarif"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert len(document["runs"][0]["results"]) == 4


def test_lint_jobs_output_matches_serial(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    assert main(["lint", bad, "--format", "json"]) == 1
    serial = capsys.readouterr().out
    assert main(["lint", bad, "--format", "json", "--jobs", "2"]) == 1
    assert capsys.readouterr().out == serial


def test_lint_cache_flag_reuses_results(tmp_path, capsys, monkeypatch):
    fixture = open(os.path.join(FIXTURES, "r001_bad.py")).read()
    (tmp_path / "bad.py").write_text(fixture)
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "bad.py", "--cache"]) == 1
    cold = capsys.readouterr().out
    assert os.path.exists(tmp_path / ".repro-lint-cache.json")
    assert main(["lint", "bad.py", "--cache"]) == 1
    assert capsys.readouterr().out == cold


def test_lint_exclude_pattern_drops_matching_files(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    good = os.path.join(FIXTURES, "r001_good.py")
    assert main(["lint", bad, good, "--rules", "R001"]) == 1
    capsys.readouterr()
    args = ["lint", bad, good, "--rules", "R001", "--exclude", "*r001_bad.py"]
    assert main(args) == 0
    assert capsys.readouterr().out == ""


def _git(cwd, *argv):
    subprocess.run(
        ["git", *argv],
        cwd=cwd,
        check=True,
        capture_output=True,
        env={
            **os.environ,
            "GIT_AUTHOR_NAME": "lint-test",
            "GIT_AUTHOR_EMAIL": "lint@test",
            "GIT_COMMITTER_NAME": "lint-test",
            "GIT_COMMITTER_EMAIL": "lint@test",
        },
    )


def test_lint_changed_narrows_to_dirty_and_untracked(
    tmp_path, capsys, monkeypatch
):
    bad = open(os.path.join(FIXTURES, "r001_bad.py")).read()
    good = open(os.path.join(FIXTURES, "r001_good.py")).read()
    (tmp_path / "committed_bad.py").write_text(bad)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "committed_bad.py")
    _git(tmp_path, "commit", "-qm", "seed")
    (tmp_path / "untracked_good.py").write_text(good)
    monkeypatch.chdir(tmp_path)
    # committed_bad.py is unchanged vs HEAD, so --changed skips it and
    # only the clean untracked file runs
    assert main(["lint", ".", "--changed", "--rules", "R001"]) == 0
    assert capsys.readouterr().out == ""
    # the full run still sees the committed violations
    assert main(["lint", ".", "--rules", "R001"]) == 1
    assert "4 finding(s)" in capsys.readouterr().out


def test_lint_changed_bad_ref_falls_back_to_full_run(capsys):
    bad = os.path.join(FIXTURES, "r001_bad.py")
    assert main(["lint", bad, "--changed", "no-such-ref"]) == 1
    captured = capsys.readouterr()
    assert "falling back to a full run" in captured.err
    assert "4 finding(s)" in captured.out


def test_lint_fix_flow(tmp_path, capsys):
    for name in ("bad.py", "variables.py"):
        source = open(os.path.join(FIXTURES, "r005", name)).read()
        (tmp_path / name).write_text(source)
    target = str(tmp_path / "bad.py")
    assert main(["lint", str(tmp_path), "--rules", "R005", "--fix"]) == 1
    out = capsys.readouterr().out
    assert f"fixed 3 finding(s) in {target}" in out
    assert "1 finding(s)" in out  # the unfixable override literal remains
    assert "EPSILON" in (tmp_path / "bad.py").read_text()

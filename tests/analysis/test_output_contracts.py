"""Output-format and fixer contracts: applying ``--fix`` twice makes no
further edits, and the SARIF report conforms to the 2.1.0 log shape."""

import json
import os
import shutil

from repro.analysis.engine import run_lint
from repro.analysis.fixers import apply_fixes
from repro.analysis.output import render_sarif

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

try:
    import jsonschema
except ImportError:  # the CI lint env installs it; tests degrade gracefully
    jsonschema = None


# ----------------------------------------------------------------------
# fixer idempotency
# ----------------------------------------------------------------------


def _fix_workspace(tmp_path):
    shutil.copy(os.path.join(FIXTURES, "r005", "bad.py"), tmp_path / "bad.py")
    shutil.copy(
        os.path.join(FIXTURES, "r005", "variables.py"),
        tmp_path / "variables.py",
    )
    return [str(tmp_path / "bad.py"), str(tmp_path / "variables.py")]


def test_fix_is_idempotent(tmp_path):
    paths = _fix_workspace(tmp_path)
    first = apply_fixes(run_lint(paths, rules=["R005"]))
    assert first.count() > 0
    contents = {path: open(path).read() for path in paths}
    second = apply_fixes(run_lint(paths, rules=["R005"]))
    assert second.count() == 0, "second --fix pass must make zero edits"
    assert second.files == {}
    for path in paths:
        assert open(path).read() == contents[path]


def test_fix_unsafe_is_idempotent(tmp_path):
    shutil.copytree(os.path.join(FIXTURES, "r007"), tmp_path / "r007")
    paths = [
        str(tmp_path / "r007" / "metric_names.py"),
        str(tmp_path / "r007" / "bad.py"),
    ]
    first = apply_fixes(run_lint(paths, rules=["R007"]), unsafe=True)
    assert first.count() > 0
    registry = open(paths[0]).read()
    second = apply_fixes(run_lint(paths, rules=["R007"]), unsafe=True)
    assert second.count() == 0
    assert open(paths[0]).read() == registry


# ----------------------------------------------------------------------
# SARIF 2.1.0 shape
# ----------------------------------------------------------------------

#: The subset of the SARIF 2.1.0 schema our reports exercise — enough to
#: catch a malformed log without vendoring the full OASIS schema file.
SARIF_LOG_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _sarif_document():
    findings = run_lint(
        [
            os.path.join(FIXTURES, "r001_bad.py"),
            os.path.join(FIXTURES, "r010_bad.py"),
        ]
    )
    assert findings
    return json.loads(render_sarif(findings)), findings


def test_sarif_matches_2_1_0_structure():
    document, findings = _sarif_document()
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {f.rule_id for f in findings} <= rule_ids
    for result, finding in zip(run["results"], findings):
        assert result["ruleId"] == finding.rule_id
        assert result["message"]["text"] == finding.message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] == finding.line


def test_sarif_validates_against_schema_subset():
    if jsonschema is None:
        import pytest

        pytest.skip("jsonschema not installed")
    document, _ = _sarif_document()
    jsonschema.validate(document, SARIF_LOG_SCHEMA)


def _project_rule_sarif_document():
    findings = run_lint(
        [
            os.path.join(FIXTURES, "r009_bad.py"),
            os.path.join(FIXTURES, "r014_bad.py"),
        ],
        rules=["R009", "R014"],
    )
    assert findings
    return json.loads(render_sarif(findings)), findings


def test_project_rule_findings_render_as_sarif_results():
    document, findings = _project_rule_sarif_document()
    (run,) = document["runs"]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    # both project-scope rules fire on the bad fixtures and each appears
    # in the driver catalog
    assert {"R009", "R014"} <= {f.rule_id for f in findings}
    assert {f.rule_id for f in findings} <= rule_ids
    for result, finding in zip(run["results"], findings):
        assert result["ruleId"] == finding.rule_id
        assert result["message"]["text"] == finding.message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".py")
        assert location["region"]["startLine"] == finding.line


def test_project_rule_sarif_validates_against_schema_subset():
    if jsonschema is None:
        import pytest

        pytest.skip("jsonschema not installed")
    document, _ = _project_rule_sarif_document()
    jsonschema.validate(document, SARIF_LOG_SCHEMA)

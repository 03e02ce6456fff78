"""Rule registry, suppression handling, baseline, and the lint driver.

The public entry point is :func:`lint_paths`; the ``repro lint`` CLI
subcommand is a thin wrapper around it.  Rules register themselves with
the :func:`rule` decorator and receive a fully indexed
:class:`~repro.analysis.model.Project`; each returns a list of
:class:`Finding` objects which the driver filters through suppression
comments and the optional committed baseline file.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.analysis.model import Project, SourceModule, parse_module

BASELINE_FILENAME = ".repro-lint-baseline.json"

_SUPPRESS_PREFIX = "repro-lint:"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            rule_id=str(data["rule_id"]),
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            message=str(data["message"]),
        )

    @property
    def fingerprint(self) -> str:
        """Line-insensitive identity used by the baseline file, so that
        unrelated edits shifting line numbers do not un-baseline old
        findings."""
        return f"{self.rule_id}:{self.path}:{self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` (``"R00x"``), :attr:`name` (a short slug
    used in docs), and :attr:`description`, and implement :meth:`check`.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: "file" when findings depend only on the file they are in (the
    #: incremental cache may reuse them per file); "project" when other
    #: analyzed files can change the result.
    scope: str = "project"
    #: bump on any behavior change so stale cache entries self-invalidate
    version: int = 1

    def check(self, project: Project) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.id, path=module.path, line=line, col=col, message=message
        )


#: rule id -> rule class, in registration order
RULES: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: register a :class:`Rule` subclass."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def all_rule_ids() -> List[str]:
    _load_builtin_rules()
    return sorted(RULES)


def _load_builtin_rules() -> None:
    # importing the package registers every built-in rule exactly once
    from repro.analysis import rules  # noqa: F401


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------


def _suppressions(directive: str, comment: str) -> Optional[List[str]]:
    """Rule ids named by ``# repro-lint: <directive>=R001,R002`` in a
    comment token, ``["all"]`` for ``=all``, or None if absent."""
    if _SUPPRESS_PREFIX not in comment:
        return None
    needle = directive + "="
    for piece in comment.split(_SUPPRESS_PREFIX, 1)[1].split():
        if piece.startswith(needle):
            return [r for r in piece.split("=", 1)[1].split(",") if r]
    return None


def is_suppressed(module: SourceModule, finding: Finding) -> bool:
    """True if a suppression comment disables this finding.

    ``# repro-lint: disable=R001`` on the flagged line suppresses that
    rule there; ``# repro-lint: disable-file=R001`` anywhere in the file
    suppresses it for the whole file.  ``all`` matches every rule.
    Only real comment tokens count — marker text quoted in a docstring
    does not suppress anything.
    """
    on_line = _suppressions("disable", module.comment(finding.line))
    if on_line is not None and (finding.rule_id in on_line or "all" in on_line):
        return True
    for comment in module.comments.values():
        whole_file = _suppressions("disable-file", comment)
        if whole_file is not None and (
            finding.rule_id in whole_file or "all" in whole_file
        ):
            return True
    return False


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def load_baseline(path: str) -> List[str]:
    """Fingerprints recorded in a baseline file ([] if absent/empty)."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    fingerprints = data.get("findings", [])
    if not isinstance(fingerprints, list):
        raise ValueError(f"malformed baseline file {path}")
    return [str(f) for f in fingerprints]


def save_baseline(path: str, findings: Sequence[Finding]) -> None:
    data = {
        "comment": "Known repro-lint findings grandfathered in; do not add to this.",
        "findings": sorted({f.fingerprint for f in findings}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d != "__pycache__" and not d.startswith(".")
                )
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
    return sorted(dict.fromkeys(files))


def build_project(paths: Iterable[str]) -> Project:
    modules = []
    for path in collect_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        modules.append(parse_module(path, source))
    return Project(modules)


def lint_project(
    project: Project, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run rules over an already-built project (suppressions applied,
    baseline not)."""
    _load_builtin_rules()
    selected = list(rules) if rules is not None else sorted(RULES)
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
    by_path = {module.path: module for module in project.modules}
    findings: List[Finding] = []
    for rule_id in selected:
        for finding in RULES[rule_id]().check(project):
            module = by_path.get(finding.path)
            if module is not None and is_suppressed(module, finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message))
    return findings


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
) -> List[Finding]:
    """Lint files/directories; the public API used by tests and the CLI.

    Args:
        paths: files or directories to analyze (directories recurse).
        rules: rule ids to run (default: all registered rules).
        baseline: optional path to a baseline file whose fingerprints are
            filtered out of the result.
    """
    findings = lint_project(build_project(paths), rules=rules)
    if baseline:
        known = set(load_baseline(baseline))
        findings = [f for f in findings if f.fingerprint not in known]
    return findings

"""The production lint engine: one in-process run plus an incremental cache.

:func:`run_lint` is what ``repro lint`` calls.  It produces exactly the
findings :func:`~repro.analysis.framework.lint_paths` would — sorted by
``(path, line, col, rule id, message)``, suppressions applied — but can
skip work via an on-disk cache.  Cached re-runs are byte-identical to a
cold run; the regression tests in ``tests/analysis`` pin that.

Incrementality splits on :attr:`~repro.analysis.framework.Rule.scope`:

* **file-scope** rules (R001, R004, R010, R011) — findings depend only
  on the file they are in, so each ``(rule, file)`` pair caches
  independently under the file's content hash and the rule's version;
* **project-scope** rules (every other rule) — any file can change the
  result (the lock graph, a dispatch family, an effect summary), so
  their findings cache as one block under a **project fingerprint**: a
  digest of every analyzed file's content hash.  Editing any one file
  re-runs every project rule; nothing can serve a stale cross-file
  finding.

The uncached work units (one per project rule, one per uncached
``(file-rule, file)``) run in-process, and every unit over the same file
slice shares one parsed :class:`~repro.analysis.model.Project` and the
summaries built on it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.framework import (
    RULES,
    Finding,
    _load_builtin_rules,
    build_project,
    collect_files,
    is_suppressed,
    load_baseline,
)

CACHE_FILENAME = ".repro-lint-cache.json"

#: bump to invalidate every cache file (format or semantics change)
ENGINE_VERSION = 1

#: ("file" | "project", rule id, files to analyze)
_Task = Tuple[str, str, Tuple[str, ...]]

FINDING_SORT_KEY = lambda f: (f.path, f.line, f.col, f.rule_id, f.message)  # noqa: E731


def run_lint(
    paths: Iterable[str],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
    cache_path: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
) -> List[Finding]:
    """Lint ``paths``; the engine behind ``repro lint``.

    Args:
        paths: files or directories to analyze (directories recurse).
        rules: rule ids to run (default all; unknown ids raise
            ``ValueError``).
        baseline: optional baseline file whose fingerprints are filtered
            out of the result.
        cache_path: optional on-disk incremental cache (read and
            rewritten); None disables caching.
        stats: optional dict the run adds instrumentation counters to:
            ``file_rule_runs`` / ``project_rule_runs`` (rule executions)
            and ``file_rule_cache_hits`` / ``project_rule_cache_hits``.
    """
    _load_builtin_rules()
    selected = list(rules) if rules is not None else sorted(RULES)
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
    if stats is None:
        stats = {}
    for counter in (
        "file_rule_runs",
        "project_rule_runs",
        "file_rule_cache_hits",
        "project_rule_cache_hits",
    ):
        stats.setdefault(counter, 0)

    files = collect_files(paths)
    hashes = {path: _hash_file(path) for path in files}
    file_rules = sorted(r for r in selected if RULES[r].scope == "file")
    project_rules = sorted(r for r in selected if RULES[r].scope != "file")
    fingerprint = _project_fingerprint(hashes, project_rules)

    cache = _load_cache(cache_path)
    findings: List[Finding] = []
    tasks: List[_Task] = []

    for rule_id in file_rules:
        entry = cache.get("file_rules", {}).get(rule_id, {})
        valid = entry.get("version") == RULES[rule_id].version
        cached_files = entry.get("files", {}) if valid else {}
        for path in files:
            record = cached_files.get(path)
            if record is not None and record.get("hash") == hashes[path]:
                stats["file_rule_cache_hits"] += 1
                findings.extend(
                    Finding.from_dict(d) for d in record["findings"]
                )
            else:
                stats["file_rule_runs"] += 1
                tasks.append(("file", rule_id, (path,)))
    for rule_id in project_rules:
        entry = cache.get("project_rules", {}).get(rule_id, {})
        if (
            entry.get("version") == RULES[rule_id].version
            and entry.get("fingerprint") == fingerprint
        ):
            stats["project_rule_cache_hits"] += 1
            findings.extend(Finding.from_dict(d) for d in entry["findings"])
        else:
            stats["project_rule_runs"] += 1
            tasks.append(("project", rule_id, tuple(files)))

    results = _execute(tasks)
    for task, payload in results.items():
        findings.extend(Finding.from_dict(d) for d in payload)

    if cache_path is not None:
        _save_cache(
            cache_path, cache, files, hashes, fingerprint,
            file_rules, project_rules, results,
        )

    findings.sort(key=FINDING_SORT_KEY)
    if baseline:
        known = set(load_baseline(baseline))
        findings = [f for f in findings if f.fingerprint not in known]
    return findings


# ----------------------------------------------------------------------
# task execution
# ----------------------------------------------------------------------


def _execute(tasks: List[_Task]) -> Dict[_Task, List[dict]]:
    # share one parsed Project (and the summaries built on it) across
    # every rule running on the same file slice
    projects: Dict[Tuple[str, ...], object] = {}
    results: Dict[_Task, List[dict]] = {}
    for task in tasks:
        _, rule_id, files = task
        if files not in projects:
            projects[files] = build_project(files)
        results[task] = _run_rule(projects[files], rule_id)
    return results


def _run_rule(project, rule_id: str) -> List[dict]:
    by_path = {module.path: module for module in project.modules}
    payload: List[dict] = []
    for finding in RULES[rule_id]().check(project):
        module = by_path.get(finding.path)
        if module is not None and is_suppressed(module, finding):
            continue
        payload.append(finding.to_dict())
    payload.sort(
        key=lambda d: (d["path"], d["line"], d["col"], d["rule_id"], d["message"])
    )
    return payload


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    except OSError:
        digest.update(b"<unreadable>")
    return digest.hexdigest()


def _project_fingerprint(
    hashes: Dict[str, str], project_rules: Sequence[str]
) -> str:
    """Digest of everything that can change a project-scope finding."""
    digest = hashlib.sha256()
    digest.update(f"engine:{ENGINE_VERSION}".encode())
    for path in sorted(hashes):
        digest.update(f"{path}:{hashes[path]}".encode())
    for rule_id in sorted(project_rules):
        digest.update(f"{rule_id}:{RULES[rule_id].version}".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the cache file
# ----------------------------------------------------------------------


def _load_cache(cache_path: Optional[str]) -> dict:
    if cache_path is None or not os.path.exists(cache_path):
        return {}
    try:
        with open(cache_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("engine") != ENGINE_VERSION:
        return {}
    return data


def _save_cache(
    cache_path: str,
    previous: dict,
    files: List[str],
    hashes: Dict[str, str],
    fingerprint: str,
    file_rules: Sequence[str],
    project_rules: Sequence[str],
    results: Dict[_Task, List[dict]],
) -> None:
    fresh: Dict[_Task, List[dict]] = dict(results)
    data: dict = {
        "engine": ENGINE_VERSION,
        "comment": "repro lint incremental cache; safe to delete",
        "file_rules": {},
        "project_rules": {},
    }
    for rule_id in file_rules:
        entry = previous.get("file_rules", {}).get(rule_id, {})
        valid = entry.get("version") == RULES[rule_id].version
        cached_files = entry.get("files", {}) if valid else {}
        kept: Dict[str, dict] = {}
        for path in files:
            task = ("file", rule_id, (path,))
            if task in fresh:
                kept[path] = {
                    "hash": hashes[path],
                    "findings": fresh[task],
                }
            else:
                record = cached_files.get(path)
                if record is not None and record.get("hash") == hashes[path]:
                    kept[path] = record
        data["file_rules"][rule_id] = {
            "version": RULES[rule_id].version,
            "files": kept,
        }
    for rule_id in project_rules:
        task = ("project", rule_id, tuple(files))
        if task in fresh:
            findings = fresh[task]
        else:
            entry = previous.get("project_rules", {}).get(rule_id, {})
            if (
                entry.get("version") != RULES[rule_id].version
                or entry.get("fingerprint") != fingerprint
            ):
                continue
            findings = entry["findings"]
        data["project_rules"][rule_id] = {
            "version": RULES[rule_id].version,
            "fingerprint": fingerprint,
            "findings": findings,
        }
    with open(cache_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")

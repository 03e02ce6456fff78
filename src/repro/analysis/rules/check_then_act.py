"""R011: a guarded check must not govern a later re-locked mutation.

The lock-split TOCTOU: a condition is computed from guarded state under
the lock, the lock is released, and the dependent mutation re-acquires
the lock — by which time another thread may have invalidated the
condition::

    with self._lock:
        full = len(self._pending) >= limit    # check under the lock
    if full:                                  # ... lock released ...
        with self._lock:
            self._pending.clear()             # act on a stale check

Each individual access is R001-clean (everything touches ``_pending``
under ``_lock``), which is exactly why this needs its own rule: the
*composition* is racy, not the accesses.  The dataflow layer provides
the two facts the rule needs — that the tested local's reaching
definition read guarded state while the lock was held, and that the
test itself evaluates after release.

The sanctioned fixes are not flagged:

* widen the critical section (check and act under one ``with``);
* re-validate under the re-acquired lock (the double-checked idiom) —
  an ``if`` inside the second ``with`` whose test re-reads the guarded
  attribute revalidates everything it governs;
* ``# repro-lint: toctou-exempt=<reason>`` on the method for the rare
  deliberate case (a bare marker without a reason is itself a finding,
  the same contract as R006's ``epoch-exempt``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.dataflow import (
    FunctionDataflow,
    dataflow_analysis,
    reads_of_self_attrs,
)
from repro.analysis.effects import (
    direct_mutation_target,
    effect_analysis,
)
from repro.analysis.framework import Finding, Project, Rule, rule
from repro.analysis.model import (
    ClassInfo,
    SourceModule,
    dotted,
    function_marker_value,
    resolve_call,
    walk_same_scope,
)

EXEMPT_KEY = "toctou-exempt"


@rule
class CheckThenActRule(Rule):
    id = "R011"
    name = "check-then-act"
    description = (
        "a condition computed under a lock must not govern a mutation "
        "after the lock was released and re-acquired (lock-split TOCTOU)"
    )
    scope = "file"
    version = 1

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        flows = dataflow_analysis(project)
        for module in project.modules:
            for cls in module.classes.values():
                if not cls.guarded:
                    continue
                for name, fn in sorted(cls.methods.items()):
                    if name == "__init__":
                        continue
                    reason = function_marker_value(module, fn, EXEMPT_KEY)
                    if reason is not None:
                        if not reason:
                            findings.append(
                                self.finding(
                                    module, fn.lineno, 0,
                                    f"toctou-exempt marker on {cls.name}."
                                    f"{name} must give a reason "
                                    "('# repro-lint: toctou-exempt=<why>')",
                                )
                            )
                        continue
                    flow = flows.function(module, cls, fn)
                    findings.extend(
                        self._check_method(project, module, cls, fn, flow)
                    )
        return findings

    def _check_method(
        self,
        project: Project,
        module: SourceModule,
        cls: ClassInfo,
        fn: ast.FunctionDef,
        flow: FunctionDataflow,
    ) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[Tuple[int, str]] = set()
        for node in walk_same_scope(fn):
            if not isinstance(node, (ast.If, ast.While)):
                continue
            stale = self._stale_checks(cls, flow, node.test)
            if not stale:
                continue
            bodies = [node.body]
            if isinstance(node, ast.If):
                bodies.append(node.orelse)
            for (attr, lock), check_line in sorted(stale.items()):
                for body in bodies:
                    for mut_line in _relocked_mutations(
                        project, cls, body, attr, lock
                    ):
                        key = (mut_line, attr)
                        if key in reported:
                            continue
                        reported.add(key)
                        findings.append(
                            self.finding(
                                module, mut_line, 0,
                                f"{cls.name}.{fn.name} mutates self.{attr} "
                                f"under re-acquired self.{lock} based on a "
                                f"condition computed at line {check_line} "
                                "while the lock was previously held — the "
                                "check can go stale between release and "
                                "re-acquisition (widen the critical "
                                "section or re-validate under the lock)",
                            )
                        )
        return findings

    def _stale_checks(
        self, cls: ClassInfo, flow: FunctionDataflow, test: ast.expr
    ) -> Dict[Tuple[str, str], int]:
        """``(guarded attr, lock) -> check line`` for every tested local
        whose reaching definition read the attr under its lock while the
        test itself runs with the lock released."""
        stale: Dict[Tuple[str, str], int] = {}
        for use in flow.uses_in(test):
            for definition in use.defs:
                if definition.is_param or definition.value is None:
                    continue
                for attr in reads_of_self_attrs(definition.value):
                    spec = cls.guarded.get(attr)
                    if spec is None:
                        continue
                    if (
                        spec.lock in definition.held
                        and spec.lock not in use.held
                    ):
                        stale.setdefault(
                            (attr, spec.lock), definition.lineno
                        )
        return stale


def _relocked_mutations(
    project: Project,
    cls: ClassInfo,
    stmts: List[ast.stmt],
    attr: str,
    lock: str,
) -> List[int]:
    """Lines inside ``stmts`` that mutate ``self.<attr>`` under a
    re-acquired ``with self.<lock>`` — directly, via a same-class call,
    or via an unlocked same-class call that itself acquires the lock and
    mutates.  Mutations governed by a fresh re-read of the attribute
    under the lock (the double-checked idiom) are not reported."""
    analysis = effect_analysis(project)
    canonical = project.canonical_lock(cls, lock)
    hits: List[int] = []

    def scan(block: List[ast.stmt], locked: bool) -> None:
        for stmt in block:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquires = any(
                    dotted(item.context_expr) == f"self.{lock}"
                    for item in stmt.items
                )
                scan(stmt.body, locked or acquires)
                continue
            if isinstance(stmt, ast.If):
                if locked and attr in reads_of_self_attrs(stmt.test):
                    continue  # re-validated under the lock
                scan(stmt.body, locked)
                scan(stmt.orelse, locked)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                scan(stmt.body, locked)
                scan(stmt.orelse, locked)
                continue
            if isinstance(stmt, ast.Try):
                scan(stmt.body, locked)
                for handler in stmt.handlers:
                    scan(handler.body, locked)
                scan(stmt.orelse, locked)
                scan(stmt.finalbody, locked)
                continue
            for node in ast.walk(stmt):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if locked and direct_mutation_target(node) == attr:
                    hits.append(node.lineno)
                    continue
                if isinstance(node, ast.Call):
                    effects = analysis.call_effects(cls, node)
                    if attr not in effects.mutated_attrs:
                        continue
                    if locked:
                        hits.append(node.lineno)
                    else:
                        # the callee re-acquires the lock internally
                        for key in _same_class_targets(project, cls, node):
                            summary = analysis.summaries.get(key)
                            if (
                                summary is not None
                                and attr in summary.mutated_attrs
                                and canonical in summary.acquires
                            ):
                                hits.append(node.lineno)
                                break

    scan(stmts, False)
    return sorted(set(hits))


def _same_class_targets(project: Project, cls: ClassInfo, call: ast.Call):
    return [
        key
        for key in resolve_call(project, cls, call)
        if key[1] == cls.name
    ]

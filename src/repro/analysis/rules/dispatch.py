"""R003: marked dispatch functions must handle every node class.

Visitors over the SQL AST / plan-node families announce themselves with
a marker comment on (or just below) their ``def`` line::

    # repro-lint: dispatch=Predicate except=JoinPredicate
    def predicate_mask(pred, ...):
        if isinstance(pred, ComparisonPredicate): ...
        ...

The rule resolves the family — every concrete leaf subclass of the
marked base across the analyzed files — and requires each member (minus
the ``except=`` list) to appear in an ``isinstance`` check inside the
function.  Adding a new AST node class then fails lint at every dispatch
site that forgot to handle it, which is exactly when you want to hear
about it.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.framework import Finding, Rule, rule
from repro.analysis.model import Project, dispatch_marker, dotted


@rule
class ExhaustiveDispatchRule(Rule):
    id = "R003"
    name = "exhaustive-dispatch"
    description = (
        "dispatch functions marked 'repro-lint: dispatch=Base' must "
        "isinstance-handle every concrete subclass of Base"
    )

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module, cls, fn in project.functions.values():
            marker = dispatch_marker(module, fn)
            if marker is None:
                continue
            where = f"{cls.name}.{fn.name}" if cls is not None else fn.name
            leaves = project.family_leaves(marker.base)
            if not leaves:
                findings.append(
                    self.finding(
                        module,
                        fn.lineno,
                        fn.col_offset,
                        f"dispatch marker on {where} names base "
                        f"{marker.base!r} with no concrete subclasses "
                        "in the analyzed files",
                    )
                )
                continue
            handled = _isinstance_targets(fn)
            for leaf in sorted(leaves, key=lambda c: c.name):
                if leaf.name in marker.excluded or leaf.name in handled:
                    continue
                findings.append(
                    self.finding(
                        module,
                        fn.lineno,
                        fn.col_offset,
                        f"{where} dispatches over {marker.base} but does "
                        f"not handle {leaf.name} "
                        f"(defined in {leaf.module.path}:{leaf.node.lineno})",
                    )
                )
        return findings


def _isinstance_targets(fn: ast.FunctionDef) -> Set[str]:
    """Class names tested by ``isinstance(...)`` calls inside ``fn``,
    including tuple forms like ``isinstance(x, (A, B))``."""
    handled: Set[str] = set()
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        elements = spec.elts if isinstance(spec, (ast.Tuple, ast.List)) else [spec]
        for element in elements:
            name = dotted(element)
            if name is not None:
                handled.add(name.rsplit(".", 1)[-1])
    return handled

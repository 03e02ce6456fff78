"""R014: multi-shard lock acquisition must be provably ascending.

The sharded service (PR 8) avoids deadlock by acquiring per-shard
statement locks in one canonical order: the ascending shard ids
returned by ``ShardRouter.shard_ids_for``.  That convention lives in a
docstring today; this rule makes it structural.

A function definition carrying ``# repro-lint: ascending-source=<why>``
declares that its return value is sorted ascending (the marker needs a
reason, same contract as R006's ``epoch-exempt``).  Every loop that
feeds lock-ish context managers into an ``ExitStack`` —

::

    with ExitStack() as stack:
        for shard_id in <ids>:
            stack.enter_context(self._shards[shard_id].statement_lock)

— must draw ``<ids>`` from a marked source, from ``sorted(...)``, or
from a ``tuple(...)`` / ``list(...)`` wrapper over one of those; the
reaching definitions of a named iterable are traced through the shared
dataflow layer.  Anything else (``reversed(...)``, a set comprehension,
a hand-rolled list) is flagged: it may acquire two shards' locks in
opposite orders on two code paths.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.dataflow import FunctionDataflow, dataflow_analysis
from repro.analysis.framework import Finding, Project, Rule, rule
from repro.analysis.model import (
    dotted,
    function_marker_value,
    is_lockish_name,
    walk_same_scope,
)

#: marker declaring an ascending-sorted return value
MARKER_KEY = "ascending-source"

#: order-preserving wrappers we see through
_WRAPPERS = {"tuple", "list"}


@rule
class ShardLockOrderRule(Rule):
    id = "R014"
    name = "shard-lock-order"
    description = (
        "multi-shard ExitStack lock acquisition must iterate a provably "
        "ascending id source (shard_ids_for or sorted)"
    )
    scope = "project"
    version = 1

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        marked: Set[str] = set()
        for module, cls, fn in project.functions.values():
            value = function_marker_value(module, fn, MARKER_KEY)
            if value is None:
                continue
            if not value.strip():
                findings.append(
                    self.finding(
                        module, fn.lineno, 0,
                        f"ascending-source marker on {fn.name} must "
                        "give a reason ('# repro-lint: "
                        "ascending-source=<why ascending>')",
                    )
                )
                continue
            marked.add(fn.name)

        flows = dataflow_analysis(project)
        for module, cls, fn in project.functions.values():
            loops = [
                node
                for node in walk_same_scope(fn)
                if isinstance(node, ast.For)
                and self._acquires_locks(node)
            ]
            if not loops:
                continue
            flow = flows.function(module, cls, fn)
            for loop in loops:
                if self._provably_ascending(flow, loop.iter, marked):
                    continue
                findings.append(
                    self.finding(
                        module, loop.lineno, loop.col_offset,
                        "multi-shard lock acquisition order is not "
                        "provably ascending — iterate "
                        "shard_ids_for(...) (an ascending-source) or "
                        "sorted(...), not a hand-rolled ordering",
                    )
                )
        return findings

    # ------------------------------------------------------------------

    def _acquires_locks(self, loop: ast.For) -> bool:
        """Does the loop body feed lock-ish objects to enter_context?"""
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "enter_context"
                    and node.args
                ):
                    continue
                if self._is_lockish_expr(node.args[0]):
                    return True
        return False

    def _is_lockish_expr(self, expr: ast.expr) -> bool:
        # A subscripted container of locks (``self._statement_locks[sid]``)
        # is as lockish as a bare ``.statement_lock`` attribute.
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and self._lockish(node.attr):
                return True
            if isinstance(node, ast.Name) and self._lockish(node.id):
                return True
        return False

    @staticmethod
    def _lockish(name: str) -> bool:
        return is_lockish_name(name) or is_lockish_name(name.rstrip("s"))

    def _provably_ascending(
        self,
        flow: FunctionDataflow,
        expr: ast.expr,
        marked: Set[str],
        depth: int = 0,
    ) -> bool:
        if depth > 8:
            return False
        if isinstance(expr, ast.Call):
            name = dotted(expr.func)
            if name is None:
                return False
            short = name.rsplit(".", 1)[-1]
            if short == "sorted" or short in marked:
                return True
            if short in _WRAPPERS and expr.args:
                return self._provably_ascending(
                    flow, expr.args[0], marked, depth + 1
                )
            return False
        if isinstance(expr, ast.Name):
            use = flow.use(expr)
            if use is None or not use.defs:
                return False
            for definition in use.defs:
                if definition.value is None:
                    return False
                if not self._provably_ascending(
                    flow, definition.value, marked, depth + 1
                ):
                    return False
            return True
        return False

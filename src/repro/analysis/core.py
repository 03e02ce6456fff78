"""The analysis core the interprocedural rules share.

Two pieces, each written once:

* :class:`CallGraph` — the same-scope call sites of every function in
  the project's index (:attr:`~repro.analysis.model.Project.functions`)
  resolved by :func:`~repro.analysis.model.resolve_call`, plus the
  reverse edges.  It is built in one walk per project and shared
  through :func:`call_graph`.
* :meth:`CallGraph.solve` — the one summary fixpoint.  A client keeps a
  summary per function, seeded with the function's direct facts, and
  supplies a join for one call edge; the solver evaluates every function
  once and re-evaluates a function only when a callee's summary grew.
  The effect summaries (:mod:`repro.analysis.effects`, read by R002,
  R006, R007 and R011) run on it.

R006's path-sensitive walk of a method body is its only such walk and
lives with the rule (:mod:`repro.analysis.rules.epoch`).

Everything here is purely syntactic; no analyzed module is imported.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Callable, Dict, List, Set, Tuple

from repro.analysis.model import FnKey, Project, resolve_call, walk_same_scope

#: ``join(caller, call site, callee)``: fold the callee's summary into
#: the caller's at one call site; True when the caller's summary grew
Join = Callable[[FnKey, ast.Call, FnKey], bool]


class CallGraph:
    """The resolved call edges of every function in a project, both ways."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller -> its call sites with the indexed functions they reach
        self.calls: Dict[FnKey, List[Tuple[ast.Call, List[FnKey]]]] = {}
        #: callee -> the functions calling it (first-call order)
        self.callers: Dict[FnKey, List[FnKey]] = {
            key: [] for key in project.functions
        }
        for key, (_, cls, fn) in project.functions.items():
            sites: List[Tuple[ast.Call, List[FnKey]]] = []
            reached: Set[FnKey] = set()
            for node in walk_same_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                targets = [
                    target
                    for target in resolve_call(project, cls, node)
                    if target in project.functions
                ]
                if not targets:
                    continue
                sites.append((node, targets))
                for target in targets:
                    if target not in reached:
                        reached.add(target)
                        self.callers[target].append(key)
            self.calls[key] = sites

    def solve(self, join: Join) -> None:
        """Run ``join`` over the call edges to a fixpoint, by worklist.

        Summaries must only grow, so the result is the least fixpoint
        whatever the visiting order.  Every function is evaluated once
        (all of its call edges joined); after that a function is queued
        again only when one of its callees' summaries grew.
        """
        work = deque(self.project.functions)
        queued = set(work)
        while work:
            key = work.popleft()
            queued.discard(key)
            grew = False
            for call, targets in self.calls[key]:
                for target in targets:
                    if join(key, call, target):
                        grew = True
            if not grew:
                continue
            for caller in self.callers[key]:
                if caller not in queued:
                    queued.add(caller)
                    work.append(caller)


def call_graph(project: Project) -> CallGraph:
    """The shared per-project :class:`CallGraph` (built lazily once)."""
    return project.shared(CallGraph)

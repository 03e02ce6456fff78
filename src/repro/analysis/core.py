"""The analysis core the interprocedural rules share.

Three pieces, each written once:

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
* :class:`PathWalker` — the one path-sensitive walk of a function body.
  It owns the statement structure; a client supplies only its initial
  states and a transfer function over one expression root.  R006's
  epoch walk is its client.

Everything here is purely syntactic; no analyzed module is imported.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.model import FnKey, Project, resolve_call, walk_same_scope

#: ``join(caller, call site, callee)``: fold the callee's summary into
#: the caller's at one call site; True when the caller's summary grew
Join = Callable[[FnKey, ast.Call, FnKey], bool]

#: one abstract path state of a :class:`PathWalker` client
S = TypeVar("S")


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


class PathWalker(Generic[S]):
    """Path-sensitive walk of one function body over a finite abstraction.

    A client supplies :meth:`initial_states` and :meth:`transfer`, which
    applies the effects of one expression root (a whole simple
    statement, or the test / iterator / target / with-item of a compound
    one) to a set of abstract path states.  The walker owns the control
    structure: ``if`` forks the states and joins both arms; loops run
    zero or one trips; ``with`` applies its items, then its body; a
    ``try`` handler is entered from the pre-try states and the body's
    exit states, ``else`` continues the body only, and ``finally`` runs
    after all of them.  ``return`` / ``raise`` and falling off the end
    are the exits :meth:`run` returns.  Nested function and class
    definitions are separate scopes and are skipped.  :meth:`cap` may
    merge a state set that grew too large.
    """

    def __init__(self, fn: ast.FunctionDef) -> None:
        self.fn = fn
        self.exits: Set[S] = set()

    def run(self) -> Set[S]:
        self.exits = set()
        self.exits |= self._block(self.fn.body, self.initial_states())
        return self.exits

    def initial_states(self) -> Set[S]:
        raise NotImplementedError

    def transfer(self, root: ast.AST, states: Set[S]) -> Set[S]:
        raise NotImplementedError

    def cap(self, states: Set[S]) -> Set[S]:
        return states

    def _block(self, stmts: List[ast.stmt], states: Set[S]) -> Set[S]:
        for stmt in stmts:
            if not states:
                break  # every path already exited
            states = self._stmt(stmt, states)
        return states

    def _stmt(self, stmt: ast.stmt, states: Set[S]) -> Set[S]:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.exits |= self.transfer(stmt, states)
            return set()
        if isinstance(stmt, ast.If):
            entry = self.transfer(stmt.test, states)
            return self.cap(
                self._block(stmt.body, entry) | self._block(stmt.orelse, entry)
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                entry = self.transfer(stmt.test, states)
            else:
                entry = self.transfer(stmt.iter, states)
                entry = self.transfer(stmt.target, entry)
            merged = self.cap(entry | self._block(stmt.body, entry))
            return self._block(stmt.orelse, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self.transfer(item.context_expr, states)
                if item.optional_vars is not None:
                    states = self.transfer(item.optional_vars, states)
            return self._block(stmt.body, states)
        if isinstance(stmt, ast.Try):
            body_out = self._block(stmt.body, states)
            # a handler may run after any prefix of the body; the pre-try
            # and the body's exit states stand in for those prefixes
            handler_entry = self.cap(states | body_out)
            out = self._block(stmt.orelse, body_out)
            for handler in stmt.handlers:
                out = self.cap(out | self._block(handler.body, handler_entry))
            return self._block(stmt.finalbody, out)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return states  # separate lexical scope
        return self.transfer(stmt, states)

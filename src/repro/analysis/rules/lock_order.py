"""R002: the global lock acquisition graph must be acyclic.

The rule derives, per method, which locks are acquired while which
others are held — both directly (nested ``with self._lock`` statements)
and interprocedurally (calling a method whose effect summary,
:class:`~repro.analysis.effects.EffectAnalysis`, says it acquires a
lock).  A lock taken inside a nested closure or lambda is not acquired
by the enclosing function: the closure runs in its own context, often
later on another thread (a job handed to a pool), so neither its
``with`` statements nor its calls add edges.  Edges ``A -> B`` ("B acquired while holding A") feed a cycle
detector; any strongly connected component with two or more locks is a
potential deadlock (two threads taking the locks in opposite orders) and
is reported with the concrete acquisition sites as evidence.

Lock identity is canonicalized project-wide (see
:meth:`~repro.analysis.model.Project.canonical_lock`) so that a lock
injected into a worker under a different attribute name — the service's
``db_lock`` handed to :class:`AdvisorWorker` as ``self._db_lock`` —
still unifies with its owner.  Re-acquiring a reentrant lock (RLock /
Condition / injected, which we assume reentrant) is legal; a self-edge
on a plain ``threading.Lock`` is reported as a self-deadlock.

Call resolution is name-based and deliberately conservative: ``self.m()``
resolves within the enclosing class first; other calls resolve by method
name project-wide *except* for names that collide with builtin container
or threading APIs (``get``, ``join``, ``start``, ...), which would
otherwise fabricate edges from ``dict.get`` or ``Thread.join`` to
unrelated project methods.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.effects import effect_analysis
from repro.analysis.framework import Finding, Rule, rule
from repro.analysis.model import (
    ClassInfo,
    Project,
    SourceModule,
    lock_withitems,
    resolve_call,
    walk_same_scope,
)


@rule
class LockOrderRule(Rule):
    id = "R002"
    name = "lock-order"
    description = "lock acquisition graph must be free of cycles/inversions"
    #: 2: callee acquisitions come from the shared effect summaries, which
    #: do not count locks taken inside nested closures and lambdas
    version = 2

    def check(self, project: Project) -> List[Finding]:
        analysis = _LockGraph(project)
        analysis.build()
        findings: List[Finding] = []
        for module, lineno, col, message in analysis.violations():
            findings.append(self.finding(module, lineno, col, message))
        return findings


class _Edge(NamedTuple):
    held: str
    acquired: str
    module: SourceModule
    lineno: int
    col: int
    where: str


class _LockGraph:
    """R002's acquisition edges over the shared effect summaries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.edges: List[_Edge] = []

    def build(self) -> None:
        self._effects = effect_analysis(self.project)
        for module, cls, fn in self.project.functions.values():
            self._walk(module, cls, fn, fn.body, [])

    # ------------------------------------------------------------------

    def _walk(self, module, cls, fn, stmts, held: List[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.With):
                acquired = lock_withitems(self.project, cls, stmt)
                for lock in acquired:
                    for prior in held:
                        self._add_edge(
                            prior,
                            lock.canonical,
                            module,
                            lock.lineno,
                            stmt.col_offset,
                            self._where(cls, fn),
                        )
                self._scan_calls(
                    module, cls, fn, [i.context_expr for i in stmt.items], held
                )
                inner = held + [lock.canonical for lock in acquired]
                self._walk(module, cls, fn, stmt.body, inner)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # separate lexical scope, not this function's
            else:
                self._scan_calls(module, cls, fn, [stmt], held)
                for child in _child_blocks(stmt):
                    self._walk(module, cls, fn, child, held)

    def _scan_calls(self, module, cls, fn, roots, held: List[str]) -> None:
        if not held:
            return
        for root in roots:
            for node in walk_same_scope(root):
                if isinstance(node, ast.Call):
                    self._edge_for_call(module, cls, fn, node, held)

    def _edge_for_call(self, module, cls, fn, call: ast.Call, held: List[str]) -> None:
        for callee in resolve_call(self.project, cls, call):
            summary = self._effects.summaries.get(callee)
            for lock in summary.acquires if summary is not None else ():
                for prior in held:
                    self._add_edge(
                        prior,
                        lock,
                        module,
                        call.lineno,
                        call.col_offset,
                        self._where(cls, fn),
                    )

    def _add_edge(self, held, acquired, module, lineno, col, where) -> None:
        # re-acquiring a reentrant lock is legal; a plain Lock deadlocks
        if held != acquired or self.project.lock_kind(held) == "Lock":
            self.edges.append(_Edge(held, acquired, module, lineno, col, where))

    @staticmethod
    def _where(cls: Optional[ClassInfo], fn: ast.FunctionDef) -> str:
        return f"{cls.name}.{fn.name}" if cls is not None else fn.name

    # ------------------------------------------------------------------

    def violations(self):
        graph: Dict[str, Set[str]] = {}
        evidence: Dict[Tuple[str, str], _Edge] = {}
        for edge in self.edges:
            if edge.held == edge.acquired:
                # self-edge on a non-reentrant Lock: immediate deadlock
                yield (
                    edge.module,
                    edge.lineno,
                    edge.col,
                    f"non-reentrant lock '{edge.held}' re-acquired while "
                    f"already held in {edge.where}",
                )
                continue
            graph.setdefault(edge.held, set()).add(edge.acquired)
            graph.setdefault(edge.acquired, set())
            evidence.setdefault((edge.held, edge.acquired), edge)
        for component in _cycles(graph):
            ordering = sorted(component)
            pairs = [
                (a, b)
                for a in component
                for b in graph.get(a, ())
                if b in component
            ]
            for held, acquired in sorted(pairs):
                edge = evidence[(held, acquired)]
                yield (
                    edge.module,
                    edge.lineno,
                    edge.col,
                    f"lock-order cycle among {{{', '.join(ordering)}}}: "
                    f"'{acquired}' acquired while holding '{held}' "
                    f"in {edge.where}",
                )


def _child_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks = []
    for field in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            blocks.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        blocks.append(handler.body)
    return blocks


def _cycles(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    """Strongly connected components with >= 2 nodes (Tarjan)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    result: List[Set[str]] = []

    def strongconnect(node: str) -> None:
        # iterative Tarjan to dodge recursion limits on big graphs
        work = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[current] = min(low[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == current:
                        break
                if len(component) >= 2:
                    result.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return result

"""R006: every mutating path through epoch-versioned state must bump
``_epoch``.

A statistics shard bumps ``_epoch`` in the helper that also drops the
per-table views the plan cache's content key is read off, and the
feedback store bumps its correction version ``_epoch`` directly; a mutation
path that skips the bump lets a stale cached plan silently survive its
statistics.  This rule makes the convention structural: in any class
that declares ``_epoch = guarded_by(...)``, every method that mutates another ``guarded_by``-annotated attribute —
directly, or transitively through a ``self.method()`` whose effect
summary mutates one — must also increment ``self._epoch`` on **every
path** that mutates (one bump per call covers all of that path's
mutations, in either order, since the epoch only needs to move).

The analysis is path-sensitive over a finite abstraction: each abstract
path carries ``(first uncovered mutation site, bumped?)`` through the
method body (branches fork it, loops run zero-or-one iterations, a
``try`` handler starts from the pre-try and the body's exit states),
and ``return`` / ``raise`` / end of body are the exit points where an
uncovered mutation is reported.
``__init__`` is exempt (the instance is unshared during construction),
and a method may opt out explicitly::

    def reset_cost_ledger(self) -> None:
        # repro-lint: epoch-exempt=cost ledger is not planner-visible state
        ...

The reason is mandatory — a bare ``epoch-exempt=`` is itself a finding.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.analysis.effects import (
    EPOCH_ATTR,
    EffectAnalysis,
    direct_mutation_target,
    effect_analysis,
)
from repro.analysis.framework import Finding, Rule, rule
from repro.analysis.model import (
    ClassInfo,
    Project,
    SourceModule,
    function_marker_value,
    walk_same_scope,
)

_EXEMPT_KEY = "epoch-exempt"

#: (lineno, col, attribute) of the first uncovered mutation on a path
_Site = Tuple[int, int, str]
#: one abstract path: (first uncovered mutation site or None, bumped?)
_State = Tuple[Optional[_Site], bool]


@rule
class EpochBumpRule(Rule):
    id = "R006"
    name = "epoch-bump"
    description = (
        "methods mutating epoch-versioned guarded state must bump _epoch "
        "on every mutating path"
    )

    def check(self, project: Project) -> List[Finding]:
        analysis = effect_analysis(project)
        findings: List[Finding] = []
        for module in project.modules:
            for cls in module.classes.values():
                if EPOCH_ATTR not in cls.guarded:
                    continue
                guarded = frozenset(cls.guarded) - {EPOCH_ATTR}
                if not guarded:
                    continue
                for name, fn in cls.methods.items():
                    if name == "__init__":
                        continue
                    findings.extend(
                        self._check_method(
                            analysis, module, cls, fn, guarded
                        )
                    )
        return findings

    def _check_method(
        self,
        analysis: EffectAnalysis,
        module: SourceModule,
        cls: ClassInfo,
        fn: ast.FunctionDef,
        guarded: FrozenSet[str],
    ) -> List[Finding]:
        reason = function_marker_value(module, fn, _EXEMPT_KEY)
        if reason is not None:
            if not reason:
                return [
                    self.finding(
                        module,
                        fn.lineno,
                        fn.col_offset,
                        f"{cls.name}.{fn.name}: epoch-exempt marker must "
                        "give a reason ('# repro-lint: epoch-exempt=<why>')",
                    )
                ]
            return []
        walker = _EpochWalker(analysis, cls, guarded, fn)
        findings = []
        for lineno, col, attr in walker.uncovered():
            findings.append(
                self.finding(
                    module,
                    lineno,
                    col,
                    f"{cls.name}.{fn.name} mutates epoch-versioned state "
                    f"self.{attr} without bumping self.{EPOCH_ATTR} on this "
                    "path (bump the epoch or mark the method "
                    f"'# repro-lint: {_EXEMPT_KEY}=<reason>')",
                )
            )
        return findings


class _EpochWalker:
    """Path-sensitive mutation/bump tracking over one method body, with
    a ``(first uncovered mutation site, bumped?)`` abstraction.

    :meth:`_transfer` applies the effects of one expression root (a
    whole simple statement, or the test / iterator / target / with-item
    of a compound one); the walk owns the control structure: ``if``
    forks the states and joins both arms; loops run zero or one trips;
    ``with`` applies its items, then its body; a ``try`` handler is
    entered from the pre-try states and the body's exit states,
    ``else`` continues the body only, and ``finally`` runs after all of
    them.  ``return`` / ``raise`` and falling off the end are the exits.
    Nested function and class definitions are separate scopes and are
    skipped.
    """

    def __init__(
        self,
        analysis: EffectAnalysis,
        cls: ClassInfo,
        guarded: FrozenSet[str],
        fn: ast.FunctionDef,
    ) -> None:
        self._analysis = analysis
        self._cls = cls
        self._guarded = guarded
        self._fn = fn
        self._exits: Set[_State] = set()

    def uncovered(self) -> List[_Site]:
        """Mutation sites left unbumped on some path, in source order."""
        self._exits = set()
        self._exits |= self._block(self._fn.body, {(None, False)})
        return sorted(
            {site for site, bumped in self._exits if site and not bumped}
        )

    def _block(
        self, stmts: List[ast.stmt], states: Set[_State]
    ) -> Set[_State]:
        for stmt in stmts:
            if not states:
                break  # every path already exited
            states = self._stmt(stmt, states)
        return states

    def _stmt(self, stmt: ast.stmt, states: Set[_State]) -> Set[_State]:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._exits |= self._transfer(stmt, states)
            return set()
        if isinstance(stmt, ast.If):
            entry = self._transfer(stmt.test, states)
            return self._block(stmt.body, entry) | self._block(
                stmt.orelse, entry
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                entry = self._transfer(stmt.test, states)
            else:
                entry = self._transfer(stmt.iter, states)
                entry = self._transfer(stmt.target, entry)
            merged = entry | self._block(stmt.body, entry)
            return self._block(stmt.orelse, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self._transfer(item.context_expr, states)
                if item.optional_vars is not None:
                    states = self._transfer(item.optional_vars, states)
            return self._block(stmt.body, states)
        if isinstance(stmt, ast.Try):
            body_out = self._block(stmt.body, states)
            # a handler may run after any prefix of the body; the pre-try
            # and the body's exit states stand in for those prefixes
            handler_entry = states | body_out
            out = self._block(stmt.orelse, body_out)
            for handler in stmt.handlers:
                out |= self._block(handler.body, handler_entry)
            return self._block(stmt.finalbody, out)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return states  # separate lexical scope
        return self._transfer(stmt, states)

    def _transfer(self, root: ast.AST, states: Set[_State]) -> Set[_State]:
        for node in walk_same_scope(root):
            if not isinstance(node, ast.expr):
                continue  # mutations and calls are expressions
            target = direct_mutation_target(node)
            if target == EPOCH_ATTR:
                states = _bump(states)
            elif target in self._guarded:
                states = _mutate(states, (node.lineno, node.col_offset, target))
            if isinstance(node, ast.Call):
                summary = self._analysis.call_effects(self._cls, node)
                touched = sorted(summary.mutated_attrs & self._guarded)
                if touched:
                    states = _mutate(
                        states,
                        (node.lineno, node.col_offset, touched[0]),
                    )
                if summary.bumps_epoch:
                    states = _bump(states)
        return states


def _bump(states: Set[_State]) -> Set[_State]:
    return {(site, True) for site, _ in states}


def _mutate(states: Set[_State], site: _Site) -> Set[_State]:
    # a path that already bumped is covered for the whole call; otherwise
    # remember the first uncovered site so the finding points at it
    return {
        (existing if (existing or bumped) else site, bumped)
        for existing, bumped in states
    }

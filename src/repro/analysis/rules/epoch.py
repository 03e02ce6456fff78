"""R006: every mutating path through epoch-versioned state must bump
``_epoch``.

A statistics shard bumps ``_epoch`` in the helper that also drops the
per-table views the plan cache's content key is read off, and the
correction store bumps its model version ``_epoch`` directly; a mutation
path that skips the bump lets a stale cached plan silently survive its
statistics.  This rule makes the convention structural: in any class
that declares ``_epoch = guarded_by(...)``, every method that mutates another ``guarded_by``-annotated attribute —
directly, or transitively through a ``self.method()`` whose effect
summary mutates one — must also increment ``self._epoch`` on **every
path** that mutates (one bump per call covers all of that path's
mutations, in either order, since the epoch only needs to move).

The analysis is path-sensitive over a finite abstraction: each abstract
path carries ``(first uncovered mutation site, bumped?)`` through the
shared :class:`~repro.analysis.core.PathWalker` (branches fork it, loops
run zero-or-one iterations, a ``try`` handler starts from the pre-try
and the body's exit states), and ``return`` / ``raise`` / end of body
are the exit points where an uncovered mutation is reported.
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

from repro.analysis.core import PathWalker
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


class _EpochWalker(PathWalker[_State]):
    """Mutation/bump tracking over one method body: the shared path walk
    with a ``(first uncovered mutation site, bumped?)`` abstraction."""

    def __init__(
        self,
        analysis: EffectAnalysis,
        cls: ClassInfo,
        guarded: FrozenSet[str],
        fn: ast.FunctionDef,
    ) -> None:
        super().__init__(fn)
        self._analysis = analysis
        self._cls = cls
        self._guarded = guarded

    def uncovered(self) -> List[_Site]:
        """Mutation sites left unbumped on some path, in source order."""
        return sorted(
            {site for site, bumped in self.run() if site and not bumped}
        )

    def initial_states(self) -> Set[_State]:
        return {(None, False)}

    def transfer(self, root: ast.AST, states: Set[_State]) -> Set[_State]:
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

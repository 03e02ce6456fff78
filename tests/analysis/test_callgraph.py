"""The shared call graph and its worklist fixpoint against the
round-robin loop it replaced.

``EffectAnalysis`` used to re-evaluate every function until a whole
round changed nothing.  That loop is kept verbatim below as the oracle;
the worklist solver of :mod:`repro.analysis.core` must reach the same
summaries on the repository's own trees and on the lint fixtures, and a
solver that forgets to re-queue a changed function's callers must not.
"""

import ast
import importlib.util
import os
from typing import Dict, Optional, Tuple

import pytest

from repro.analysis import core, effects
from repro.analysis.effects import (
    EPOCH_ATTR,
    EffectAnalysis,
    EffectSummary,
    _args_for_params,
    _metric_name_expr,
    _parameter_names,
    _string_constants,
    direct_mutation_target,
)
from repro.analysis.framework import build_project
from repro.analysis.model import (
    ClassInfo,
    FnKey,
    SourceModule,
    lock_withitems,
    resolve_call,
    walk_same_scope,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

_walk_same_scope = walk_same_scope


# ----------------------------------------------------------------------
# the round-robin references (verbatim loops, adapted only to stand alone)
# ----------------------------------------------------------------------


class RoundRobinEffects:
    """``EffectAnalysis._build`` / ``_evaluate`` before the shared fixpoint."""

    def __init__(self, project) -> None:
        self.project = project
        self.summaries: Dict[FnKey, EffectSummary] = {}
        self._fns: Dict[
            FnKey, Tuple[SourceModule, Optional[ClassInfo], ast.FunctionDef]
        ] = {}
        self._module_constants: Dict[str, Dict[str, str]] = {}
        self._build()

    def _build(self) -> None:
        for module in self.project.modules:
            self._module_constants[module.path] = _string_constants(module)
            for cls in module.classes.values():
                for fn in cls.methods.values():
                    key = (module.path, cls.name, fn.name)
                    self._fns[key] = (module, cls, fn)
                    self.summaries[key] = EffectSummary()
            for fn in module.functions.values():
                key = (module.path, None, fn.name)
                self._fns[key] = (module, None, fn)
                self.summaries[key] = EffectSummary()
        changed = True
        while changed:
            changed = False
            for key, (module, cls, fn) in self._fns.items():
                before = self.summaries[key].key()
                self._evaluate(key, module, cls, fn)
                if self.summaries[key].key() != before:
                    changed = True

    def _evaluate(
        self,
        key: FnKey,
        module: SourceModule,
        cls: Optional[ClassInfo],
        fn: ast.FunctionDef,
    ) -> None:
        summary = self.summaries[key]
        params = _parameter_names(fn)
        for node in _walk_same_scope(fn):
            if isinstance(node, ast.With):
                for held in lock_withitems(self.project, cls, node):
                    summary.acquires.add(held.canonical)
                continue
            mutated = direct_mutation_target(node)
            if mutated is not None:
                if mutated == EPOCH_ATTR:
                    summary.bumps_epoch = True
                else:
                    summary.mutated_attrs.add(mutated)
            if not isinstance(node, ast.Call):
                continue
            emission = _metric_name_expr(node)
            if emission is not None:
                name_expr = emission[1]
                if isinstance(name_expr, ast.Name) and name_expr.id in params:
                    summary.metric_params.add(name_expr.id)
            for callee_key in resolve_call(self.project, cls, node):
                callee = self.summaries.get(callee_key)
                if callee is None:
                    continue
                summary.acquires |= callee.acquires
                if callee_key[0] == module.path and callee_key[1] == (
                    cls.name if cls is not None else None
                ):
                    # self/same-scope edge: instance state flows through
                    summary.mutated_attrs |= callee.mutated_attrs
                    summary.bumps_epoch = (
                        summary.bumps_epoch or callee.bumps_epoch
                    )
                if callee.metric_params:
                    for arg_expr in _args_for_params(
                        node, callee_key, self._fns, callee.metric_params
                    ):
                        if (
                            isinstance(arg_expr, ast.Name)
                            and arg_expr.id in params
                        ):
                            summary.metric_params.add(arg_expr.id)


def _keys(summaries):
    return {key: summary.key() for key, summary in summaries.items()}


# ----------------------------------------------------------------------
# the worklist reaches the round-robin fixpoint
# ----------------------------------------------------------------------


@pytest.fixture(
    scope="module",
    params=[
        [os.path.join(REPO_ROOT, d) for d in ("src", "benchmarks", "examples")],
        [FIXTURES],
    ],
    ids=["src-benchmarks-examples", "fixtures"],
)
def project(request):
    return build_project(request.param)


def test_effect_summaries_match_the_round_robin(project):
    driven = EffectAnalysis(project).summaries
    reference = RoundRobinEffects(project).summaries
    assert len(driven) > 100
    assert _keys(driven) == _keys(reference)
    # the summaries are not trivially empty: propagation did work
    assert any(summary.acquires for summary in driven.values())
    assert any(summary.mutated_attrs for summary in driven.values())


# ----------------------------------------------------------------------
# delete-the-guard: the worklist must re-queue a grown callee's callers
# ----------------------------------------------------------------------

THREE_DEEP = '''
class Ledger:
    def record(self):
        self._stage()

    def _stage(self):
        self._validate()

    def _validate(self):
        self._commit()

    def _commit(self):
        self._entries.append(1)
'''


def test_a_solver_that_does_not_requeue_callers_fails(tmp_path, monkeypatch):
    source = open(core.__file__).read()
    guard = "                    work.append(caller)\n"
    assert guard in source, "re-queue vanished from core.py"
    mutated = tmp_path / "core_without_requeue.py"
    mutated.write_text(source.replace(guard, "                    pass\n", 1))
    spec = importlib.util.spec_from_file_location(
        "core_without_requeue", str(mutated)
    )
    broken = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(broken)

    path = tmp_path / "ledger.py"
    path.write_text(THREE_DEEP)
    project = build_project([str(path)])
    reference = RoundRobinEffects(project).summaries
    assert reference[(str(path), "Ledger", "record")].mutated_attrs == {
        "_entries"
    }
    assert _keys(EffectAnalysis(project).summaries) == _keys(reference)
    monkeypatch.setattr(effects, "call_graph", broken.call_graph)
    assert _keys(EffectAnalysis(project).summaries) != _keys(reference)

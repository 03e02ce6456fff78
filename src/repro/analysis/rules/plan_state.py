"""R009: plan-relevant mutable state must be versioned into the cache key.

The plan cache (PR 3) is only sound if every input that can change a
plan is part of the cache key: the query's table versions cover catalog
state, and PR 6 added a *learned* component so corrected and
uncorrected plans never alias.  This rule makes that discipline
machine-checked for the next PR 6-style subsystem.

Two kinds of class-level declarations drive it:

* ``# repro-lint: optimize-path`` — a bare comment marker naming a
  class whose state feeds plan choice (``SelectivityEstimator``,
  ``Optimizer``, ``PlanCache``, ``FeedbackStore``, ...).  In such a
  class every attribute that is both *read* and *mutated* outside
  ``__init__`` must be covered by one of:

  - ``# repro-lint: versioned-by=<attr>:<counter>`` — declares the
    monotone counter whose bump publishes mutations of ``<attr>``; the
    rule then verifies (via the shared effect analysis) that **every**
    method mutating ``<attr>`` also bumps ``<counter>``;
  - being a version counter itself (``_epoch``, a declared counter, or
    a ``*version*`` name);
  - being a pure monotone counter — only ever mutated by augmented
    assignment (observability counters like ``_hits += 1``);
  - ``# repro-lint: plan-state-exempt=<attr>: <reason>`` — an explicit,
    *reasoned* opt-out (a bare marker is itself a finding, the same
    contract as R006's ``epoch-exempt``).

* ``attr = plan_source("version")`` (:func:`repro.concurrency.plan_source`)
  — declares a versioned source object (such as the feedback store's
  correction view).
  The rule then checks, using the dataflow layer:

  - the declared version property is read somewhere in the class (a
    *version provider* method such as ``Optimizer._learned_version``);
  - every request reaching a plan-cache access
    (``self.<*cache*>.get_fresh/get_validated/store(request, ...)``)
    flows through a *folding* method — one whose return value passes a
    provider-derived version into ``with_learned_version``;
  - project-wide, every ``with_learned_version`` method really folds
    its version parameter into the constructed request (the
    ``learned=<version>`` keyword) — deleting that fold is exactly the
    aliasing bug this rule exists to catch.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import FunctionDataflow, dataflow_analysis
from repro.analysis.effects import (
    EPOCH_ATTR,
    MUTATOR_METHODS,
    effect_analysis,
)
from repro.analysis.framework import Finding, Project, Rule, rule
from repro.analysis.model import (
    ClassInfo,
    SourceModule,
    class_marker_flag,
    class_marker_values,
    dotted,
    walk_same_scope,
)

#: bare class marker naming plan-choice classes
PATH_FLAG = "optimize-path"
#: ``# repro-lint: versioned-by=<attr>:<counter>``
VERSIONED_KEY = "versioned-by"
#: ``# repro-lint: plan-state-exempt=<attr>: <reason>``
EXEMPT_KEY = "plan-state-exempt"

#: plan-cache accessors whose first argument is the cache-keyed request
CACHE_METHODS = {"get_fresh", "get_validated", "store"}
#: the canonical fold: ``request.with_learned_version(version)``
FOLD_METHOD = "with_learned_version"


@rule
class PlanStateRule(Rule):
    id = "R009"
    name = "plan-state-versioning"
    description = (
        "mutable state read on the optimize path must be versioned "
        "into the plan-cache key"
    )
    scope = "project"
    version = 1

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        any_sources = False
        for module in project.modules:
            for cls in module.classes.values():
                on_path = class_marker_flag(module, cls, PATH_FLAG) is not None
                if cls.plan_sources:
                    any_sources = True
                if on_path or cls.plan_sources:
                    findings.extend(
                        self._check_state_discipline(project, module, cls)
                    )
                if cls.plan_sources:
                    findings.extend(
                        self._check_fold_flow(project, module, cls)
                    )
        if any_sources:
            findings.extend(self._check_fold_integrity(project))
        return findings

    # ------------------------------------------------------------------
    # part A: read+mutated state on optimize-path classes
    # ------------------------------------------------------------------

    def _check_state_discipline(
        self, project: Project, module: SourceModule, cls: ClassInfo
    ) -> List[Finding]:
        findings: List[Finding] = []
        versioned: Dict[str, str] = {}
        for value, lineno in class_marker_values(module, cls, VERSIONED_KEY):
            if ":" not in value:
                findings.append(
                    self.finding(
                        module, lineno, 0,
                        f"malformed versioned-by marker {value!r} in "
                        f"{cls.name}: expected '<attr>:<counter>'",
                    )
                )
                continue
            attr, counter = (part.strip() for part in value.split(":", 1))
            versioned[attr] = counter
        exempt: Dict[str, str] = {}
        for value, lineno in class_marker_values(module, cls, EXEMPT_KEY):
            attr, _, reason = value.partition(":")
            attr = attr.strip()
            if not reason.strip():
                findings.append(
                    self.finding(
                        module, lineno, 0,
                        f"plan-state-exempt marker for {cls.name}.{attr} "
                        "must give a reason "
                        "('# repro-lint: plan-state-exempt=<attr>: <why>')",
                    )
                )
                continue
            exempt[attr] = reason.strip()

        reads, augmented, hard = _state_accesses(cls)
        counters = set(versioned.values()) | {EPOCH_ATTR}
        analysis = effect_analysis(project)
        for attr in sorted(reads & (set(augmented) | set(hard))):
            if attr in counters or "version" in attr.lstrip("_").lower():
                continue
            if attr in exempt:
                continue
            if attr in versioned:
                counter = versioned[attr]
                for name in sorted(cls.methods):
                    if name == "__init__":
                        continue
                    summary = analysis.summary_for(module, cls, name)
                    if attr not in summary.mutated_attrs:
                        continue
                    bumps = (
                        summary.bumps_epoch
                        if counter == EPOCH_ATTR
                        else counter in summary.mutated_attrs
                    )
                    if not bumps:
                        findings.append(
                            self.finding(
                                module, cls.methods[name].lineno, 0,
                                f"{cls.name}.{name} mutates versioned plan "
                                f"state self.{attr} without bumping "
                                f"self.{counter}",
                            )
                        )
                continue
            if attr in augmented and attr not in hard:
                continue  # pure monotone counter (observability)
            lineno = hard.get(attr) or augmented.get(attr) or cls.node.lineno
            findings.append(
                self.finding(
                    module, lineno, 0,
                    f"optimize-path state {cls.name}.{attr} is read and "
                    "mutated without a declared version; declare "
                    f"'# repro-lint: versioned-by={attr}:<counter>' or "
                    f"exempt it with a reason "
                    f"('# repro-lint: plan-state-exempt={attr}: <why>')",
                )
            )
        return findings

    # ------------------------------------------------------------------
    # part B: plan_source versions must reach the cache key
    # ------------------------------------------------------------------

    def _check_fold_flow(
        self, project: Project, module: SourceModule, cls: ClassInfo
    ) -> List[Finding]:
        findings: List[Finding] = []
        flows = dataflow_analysis(project)

        # version providers: methods reading self.<source>.<prop>
        providers: Set[str] = set()
        covered: Set[str] = set()
        for name, fn in cls.methods.items():
            for node in walk_same_scope(fn):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                ):
                    continue
                inner = node.value
                if not (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    continue
                spec = cls.plan_sources.get(inner.attr)
                if spec is not None and node.attr == spec.prop:
                    providers.add(name)
                    covered.add(inner.attr)
        for attr, spec in sorted(cls.plan_sources.items()):
            if attr not in covered:
                findings.append(
                    self.finding(
                        module, spec.lineno, 0,
                        f"plan_source {cls.name}.{attr} declares version "
                        f"property '{spec.prop}' but no method of "
                        f"{cls.name} ever reads it — the version cannot "
                        "reach the plan-cache key",
                    )
                )
        if not providers:
            return findings  # the cache-site check would only repeat it

        # folding methods: return a with_learned_version(...) call whose
        # argument derives from a provider, or wrap another folding
        # method — computed to a fixpoint so helper chains qualify
        folding: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, fn in cls.methods.items():
                if name in folding or name == "__init__":
                    continue
                flow = flows.function(module, cls, fn)
                for exit_point in flow.returns:
                    if exit_point.value is None:
                        continue
                    if self._is_folded(
                        flow, exit_point.value, providers, folding
                    ):
                        folding.add(name)
                        changed = True
                        break

        # cache-access sites: the request argument must be folded
        for name, fn in sorted(cls.methods.items()):
            if name == "__init__":
                continue
            flow = flows.function(module, cls, fn)
            for node in walk_same_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in CACHE_METHODS
                ):
                    continue
                receiver = dotted(func.value)
                if receiver is None or "cache" not in receiver.lower():
                    continue
                if not node.args:
                    continue
                if not self._arg_is_folded(
                    flow, node.args[0], providers, folding
                ):
                    findings.append(
                        self.finding(
                            module, node.lineno, node.col_offset,
                            f"{cls.name}.{name} passes a request to "
                            f"{receiver}.{func.attr}() that does not fold "
                            "the declared plan_source version(s) via "
                            f"{FOLD_METHOD}() — corrected and uncorrected "
                            "plans could alias one cache entry",
                        )
                    )
        return findings

    def _is_folded(
        self,
        flow: FunctionDataflow,
        expr: ast.expr,
        providers: Set[str],
        folding: Set[str],
        _depth: int = 0,
    ) -> bool:
        """Is ``expr`` (a return value or argument) a folded request?"""
        if _depth > 8:
            return False
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute):
                if func.attr == FOLD_METHOD:
                    argument = expr.args[0] if expr.args else None
                    if argument is not None and self._derives_from_provider(
                        flow, argument, providers
                    ):
                        return True
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in folding
                ):
                    return True
            return False
        if isinstance(expr, ast.Name):
            use = flow.use(expr)
            if use is None or not use.defs:
                return False
            for definition in use.defs:
                if definition.value is None:
                    return False
                if not self._is_folded(
                    flow, definition.value, providers, folding, _depth + 1
                ):
                    return False
            return True
        if isinstance(expr, ast.IfExp):
            return self._is_folded(
                flow, expr.body, providers, folding, _depth + 1
            ) and self._is_folded(
                flow, expr.orelse, providers, folding, _depth + 1
            )
        return False

    def _arg_is_folded(
        self,
        flow: FunctionDataflow,
        argument: ast.expr,
        providers: Set[str],
        folding: Set[str],
    ) -> bool:
        return self._is_folded(flow, argument, providers, folding)

    def _derives_from_provider(
        self, flow: FunctionDataflow, expr: ast.expr, providers: Set[str]
    ) -> bool:
        """Does the version argument derive from a provider call?"""
        for call in flow.flow_calls(expr):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in providers
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # project-wide: with_learned_version must really fold
    # ------------------------------------------------------------------

    def _check_fold_integrity(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        flows = dataflow_analysis(project)
        for cls, fn in project.methods_by_name.get(FOLD_METHOD, []):
            module = cls.module
            flow = flows.function(module, cls, fn)
            folds = False
            for exit_point in flow.returns:
                value = exit_point.value
                if not isinstance(value, ast.Call):
                    continue
                for keyword in value.keywords:
                    if keyword.arg == "learned" and flow.flows_from_param(
                        keyword.value
                    ):
                        folds = True
            if not folds:
                findings.append(
                    self.finding(
                        module, fn.lineno, 0,
                        f"{cls.name}.{FOLD_METHOD} must fold its version "
                        "parameter into the constructed request "
                        "(a 'learned=<version>' keyword deriving from the "
                        "parameter) — without it corrected and uncorrected "
                        "plans alias one plan-cache entry",
                    )
                )
        return findings


def _state_accesses(
    cls: ClassInfo,
) -> Tuple[Set[str], Dict[str, int], Dict[str, int]]:
    """Classify self-attribute accesses outside ``__init__``.

    Returns ``(reads, augmented, hard)`` where ``augmented`` maps attrs
    only touched by ``self.x += ...`` (first line) and ``hard`` maps
    attrs rebound, subscript-stored, deleted, or mutated through an
    in-place container method (first line).
    """
    reads: Set[str] = set()
    augmented: Dict[str, int] = {}
    hard: Dict[str, int] = {}

    def note(table: Dict[str, int], attr: Optional[str], lineno: int) -> None:
        if attr is not None and attr not in table:
            table[attr] = lineno

    for name, fn in cls.methods.items():
        if name == "__init__":
            continue
        for node in walk_same_scope(fn):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    reads.add(node.attr)
                continue
            if isinstance(node, ast.AugAssign):
                target = node.target
                attr = _store_attr(target)
                if isinstance(target, ast.Name):
                    continue
                if isinstance(target, ast.Subscript):
                    note(hard, attr, node.lineno)
                else:
                    note(augmented, attr, node.lineno)
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for element in _flatten_targets(target):
                        note(hard, _store_attr(element), node.lineno)
                continue
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    note(hard, _store_attr(target), node.lineno)
                continue
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr not in MUTATOR_METHODS:
                    continue
                receiver = node.func.value
                if (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                ):
                    note(hard, receiver.attr, node.lineno)
    # an attr with both augmented and hard mutations is hard
    return reads, augmented, hard


def _flatten_targets(target: ast.expr) -> List[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[ast.expr] = []
        for element in target.elts:
            out.extend(_flatten_targets(element))
        return out
    if isinstance(target, ast.Starred):
        return _flatten_targets(target.value)
    return [target]


def _store_attr(target: ast.expr) -> Optional[str]:
    """The ``self`` attribute a store target mutates, if any."""
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    if isinstance(target, ast.Subscript):
        inner = target.value
        if (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        ):
            return inner.attr
    return None

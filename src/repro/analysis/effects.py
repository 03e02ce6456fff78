"""Summary-based interprocedural effect analysis.

Every function in the analyzed project gets a computed **effect
summary** — which ``self`` attributes it mutates, whether it bumps the
statistics epoch, which metric names it emits, and which locks it
acquires.  Each function's body is walked once for its direct effects
(nested closures and lambdas excluded: they run in their own context);
callee summaries are then folded in over ``self.method()`` and
module-call edges by the one worklist fixpoint of
:mod:`repro.analysis.core`.  This is the
paper's Sec 4 idea ("decide without building") applied to our own
invariants: cheap static reasoning standing in for expensive runtime
checking, in the spirit of compiler-checked lock annotations
(Clang Thread Safety Analysis ``guarded_by``, our R001) and
FlowDroid-style summary-based dataflow.

The summaries feed, among others:

* **R002** (:mod:`repro.analysis.rules.lock_order`) — a call made
  while a lock is held adds an order edge to every lock in the
  callee's ``acquires``;
* **R006** (:mod:`repro.analysis.rules.epoch`) — methods mutating
  guarded statistics state must bump ``_epoch`` on every mutating path;
* **R007** (:mod:`repro.analysis.rules.metrics_registry`) — every
  metric name reaching ``MetricsRegistry.inc/gauge/timer`` (directly or
  through a wrapper parameter) must be a resolvable literal in the
  committed registry.

The engine is purely syntactic (no analyzed module is imported) and is
built once per :class:`~repro.analysis.model.Project` — rules share the
instance through :func:`effect_analysis`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import call_graph
from repro.analysis.model import (
    ClassInfo,
    FnDef,
    FnKey,
    Project,
    SourceModule,
    dotted,
    lock_withitems,
    resolve_call,
    walk_same_scope,
)

#: The attribute whose increments invalidate the plan cache (PR 3).
EPOCH_ATTR = "_epoch"

#: Container methods that mutate their receiver in place.  A call
#: ``self.<attr>.<one of these>(...)`` counts as a mutation of
#: ``self.<attr>`` even though no assignment statement is involved.
MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: ``MetricsRegistry`` emission methods; the metric name is argument 0.
METRIC_METHODS = ("inc", "gauge", "timer")


def is_metrics_receiver(expr: ast.expr) -> bool:
    """Heuristic: does this expression denote a metrics registry?

    True for any Name/Attribute chain whose last component is
    ``metrics`` modulo leading underscores — ``self._metrics``,
    ``self.metrics``, and a plain ``metrics`` parameter all qualify.
    """
    path = dotted(expr)
    if path is None:
        return False
    return path.rsplit(".", 1)[-1].lstrip("_") == "metrics"


@dataclass(frozen=True)
class MetricSite:
    """One call site that emits (or forwards) a metric name."""

    module: SourceModule
    method: str  # "inc" | "gauge" | "timer" | wrapper function name
    lineno: int
    col: int
    name: Optional[str]  # resolved literal/constant name, None if dynamic
    via_param: bool  # True when the name is a parameter of the enclosing
    # function (validated at that function's call sites instead)


@dataclass
class EffectSummary:
    """Transitive effects of calling one function.

    ``mutated_attrs`` and ``bumps_epoch`` propagate through ``self``
    calls only (attributes belong to the instance); the rest propagate
    through every resolvable call edge.
    """

    mutated_attrs: Set[str] = field(default_factory=set)
    bumps_epoch: bool = False
    metric_params: Set[str] = field(default_factory=set)
    acquires: Set[str] = field(default_factory=set)

    def key(self) -> Tuple:
        return (
            frozenset(self.mutated_attrs),
            self.bumps_epoch,
            frozenset(self.metric_params),
            frozenset(self.acquires),
        )

    def size(self) -> int:
        """Grows exactly when the summary does (every field only grows)."""
        return (
            len(self.mutated_attrs)
            + self.bumps_epoch
            + len(self.metric_params)
            + len(self.acquires)
        )


class EffectAnalysis:
    """Fixpoint effect summaries for every function in a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = call_graph(project)
        self.summaries: Dict[FnKey, EffectSummary] = {}
        self._params: Dict[FnKey, Set[str]] = {}
        self._module_constants: Dict[str, Dict[str, str]] = {
            module.path: _string_constants(module)
            for module in project.modules
        }
        for key, (_, cls, fn) in project.functions.items():
            self._params[key] = _parameter_names(fn)
            self.summaries[key] = self._direct_effects(
                cls, fn, self._params[key]
            )
        self.graph.solve(self._join)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _direct_effects(
        self, cls: Optional[ClassInfo], fn: ast.FunctionDef, params: Set[str]
    ) -> EffectSummary:
        """What ``fn``'s own body does, before any callee is folded in."""
        summary = EffectSummary()
        for node in walk_same_scope(fn):
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
            if isinstance(node, ast.Call):
                emission = _metric_name_expr(node)
                if emission is not None:
                    name_expr = emission[1]
                    if isinstance(name_expr, ast.Name) and name_expr.id in params:
                        summary.metric_params.add(name_expr.id)
        return summary

    def _join(self, caller: FnKey, call: ast.Call, callee_key: FnKey) -> bool:
        """Fold one callee's summary into its caller's (the join
        :meth:`~repro.analysis.core.CallGraph.solve` runs per edge)."""
        summary = self.summaries[caller]
        callee = self.summaries[callee_key]
        before = summary.size()
        summary.acquires |= callee.acquires
        if callee_key[:2] == caller[:2]:
            # self/same-scope edge: instance state flows through
            summary.mutated_attrs |= callee.mutated_attrs
            summary.bumps_epoch = summary.bumps_epoch or callee.bumps_epoch
        if callee.metric_params:
            params = self._params[caller]
            for arg_expr in _args_for_params(
                call, callee_key, self.project.functions, callee.metric_params
            ):
                if isinstance(arg_expr, ast.Name) and arg_expr.id in params:
                    summary.metric_params.add(arg_expr.id)
        return summary.size() != before

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def summary_for(
        self, module: SourceModule, cls: Optional[ClassInfo], fn_name: str
    ) -> EffectSummary:
        key = (module.path, cls.name if cls is not None else None, fn_name)
        return self.summaries.get(key, EffectSummary())

    def call_effects(
        self, cls: Optional[ClassInfo], call: ast.Call
    ) -> EffectSummary:
        """Union of the summaries of a call site's *same-class* targets.

        Instance state (mutations, epoch bumps) only flows back to the
        caller through ``self`` edges; cross-class calls cannot touch
        this instance's guarded attributes.
        """
        merged = EffectSummary()
        for key in resolve_call(self.project, cls, call):
            if cls is None or key[1] != cls.name:
                continue
            callee = self.summaries.get(key)
            if callee is None:
                continue
            merged.mutated_attrs |= callee.mutated_attrs
            merged.bumps_epoch = merged.bumps_epoch or callee.bumps_epoch
        return merged

    # ------------------------------------------------------------------
    # metric emission sites (R007's input)
    # ------------------------------------------------------------------

    def iter_metric_sites(self) -> Iterator[MetricSite]:
        """Every site where a metric name is emitted or forwarded.

        Direct ``<metrics>.inc/gauge/timer(name, ...)`` calls yield one
        site each; calls into wrapper functions whose summary declares a
        metric-name parameter (``PlanCache._note_counter``) yield a site
        for the argument bound to that parameter.  Names are resolved
        through string literals and module-level ALL_CAPS constants;
        anything else is a dynamic site (``name=None``) unless the
        expression is a metric-name parameter of the enclosing function,
        in which case the site is marked ``via_param`` and validated at
        that function's own call sites.
        """
        for key, (module, cls, fn) in sorted(
            self.project.functions.items(), key=lambda kv: _sort_key(kv[0])
        ):
            params = self._params[key]
            own_metric_params = self.summaries[key].metric_params
            for node in walk_same_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                emission = _metric_name_expr(node)
                if emission is not None:
                    method, name_expr = emission
                    yield self._site(
                        module, method, node, name_expr, params,
                        own_metric_params,
                    )
                    continue
                for callee_key in resolve_call(self.project, cls, node):
                    callee = self.summaries.get(callee_key)
                    if callee is None or not callee.metric_params:
                        continue
                    for arg_expr in _args_for_params(
                        node, callee_key, self.project.functions,
                        callee.metric_params,
                    ):
                        yield self._site(
                            module, callee_key[2], node, arg_expr, params,
                            own_metric_params,
                        )

    def _site(
        self,
        module: SourceModule,
        method: str,
        node: ast.Call,
        name_expr: ast.expr,
        params: Set[str],
        metric_params: Set[str],
    ) -> MetricSite:
        name = resolve_string(name_expr, self._module_constants[module.path])
        via_param = (
            name is None
            and isinstance(name_expr, ast.Name)
            and name_expr.id in params
            and name_expr.id in metric_params
        )
        return MetricSite(
            module=module,
            method=method,
            lineno=node.lineno,
            col=node.col_offset,
            name=name,
            via_param=via_param,
        )


def effect_analysis(project: Project) -> EffectAnalysis:
    """The shared per-project :class:`EffectAnalysis` (built lazily once)."""
    return project.shared(EffectAnalysis)


# ----------------------------------------------------------------------
# syntactic classifiers
# ----------------------------------------------------------------------


def direct_mutation_target(node: ast.AST) -> Optional[str]:
    """The ``self`` attribute this single node mutates, if any.

    Covers attribute stores/deletes (plain, augmented, subscripted) and
    in-place container mutator calls (``self._items.clear()``).
    """
    if isinstance(node, ast.Attribute):
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None
    if isinstance(node, ast.Subscript):
        inner = node.value
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        ):
            return inner.attr
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr not in MUTATOR_METHODS:
            return None
        receiver = node.func.value
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            return receiver.attr
    return None


def resolve_string(
    expr: ast.expr, module_constants: Dict[str, str]
) -> Optional[str]:
    """A string literal, or a module-level ALL_CAPS constant's value."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return module_constants.get(expr.id)
    return None


def _metric_name_expr(node: ast.Call) -> Optional[Tuple[str, ast.expr]]:
    """``(method, name expression)`` for a direct emission call, if any."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in METRIC_METHODS:
        return None
    if not is_metrics_receiver(func.value):
        return None
    if node.args:
        return (func.attr, node.args[0])
    for keyword in node.keywords:
        if keyword.arg == "name":
            return (func.attr, keyword.value)
    return None


def _args_for_params(
    call: ast.Call,
    callee_key: FnKey,
    fns: Dict[FnKey, FnDef],
    param_names: Set[str],
) -> List[ast.expr]:
    """Argument expressions of ``call`` bound to the named parameters of
    the callee (positional and keyword; ``self`` is skipped for methods)."""
    entry = fns.get(callee_key)
    if entry is None:
        return []
    _, callee_cls, callee_fn = entry
    formals = [a.arg for a in callee_fn.args.args]
    if callee_cls is not None and formals and formals[0] in ("self", "cls"):
        formals = formals[1:]
    out: List[ast.expr] = []
    for index, arg in enumerate(call.args):
        if index < len(formals) and formals[index] in param_names:
            out.append(arg)
    for keyword in call.keywords:
        if keyword.arg in param_names:
            out.append(keyword.value)
    return out


def _sort_key(key: FnKey) -> Tuple[str, str, str]:
    return (key[0], key[1] or "", key[2])


def _parameter_names(fn: ast.FunctionDef) -> Set[str]:
    names = {a.arg for a in fn.args.args}
    names |= {a.arg for a in fn.args.kwonlyargs}
    names |= {a.arg for a in fn.args.posonlyargs}
    if fn.args.vararg is not None:
        names.add(fn.args.vararg.arg)
    if fn.args.kwarg is not None:
        names.add(fn.args.kwarg.arg)
    return names


def _string_constants(module: SourceModule) -> Dict[str, str]:
    """Module-level ``ALL_CAPS = "literal"`` string constants."""
    constants: Dict[str, str] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id.isupper()):
            continue
        if isinstance(stmt.value, ast.Constant) and isinstance(
            stmt.value.value, str
        ):
            constants[target.id] = stmt.value.value
    return constants

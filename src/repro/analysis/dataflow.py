"""Intraprocedural dataflow: reaching definitions and def-use chains.

This is the layer under the R009–R011 rule families, shared across rules
the way :mod:`repro.analysis.effects` is shared today.  For every
function body it computes, by abstract interpretation over the AST:

* **reaching definitions** — for each ``Name`` load, the set of
  bindings (assignments, loop targets, ``with ... as`` targets,
  parameters) that may flow into it, with branch joins and a loop
  fixpoint; a branch that ends in ``return``/``raise`` contributes no
  bindings to the join, so a kill like ``request = self._keyed(request)``
  after an early return really does kill the parameter definition;
* **held-lock context** — every definition, use, return, yield, and
  attribute store is tagged with the set of lock attributes held at that
  point (``with self._lock:`` blocks, same recognition as rule R001);
* **escape points** — the function's returns, yields, and ``self``
  attribute stores, with the stored expression.

Rules consume the result through :class:`FunctionDataflow` (per
function, built lazily) via the shared per-project
:func:`dataflow_analysis` accessor.  Everything here is purely
syntactic; no analyzed module is imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.model import ClassInfo, SourceModule, dotted

#: defensive bound on the loop fixpoint (reaching-defs lattices converge
#: in two passes; this only guards against pathological inputs)
_MAX_LOOP_PASSES = 8

#: env: local name -> the definitions that may currently bind it
_Env = Dict[str, FrozenSet["VarDef"]]


def self_attr(expr: Optional[ast.AST]) -> Optional[str]:
    """``attr`` when ``expr`` is exactly ``self.<attr>``, else None."""
    if expr is None:
        return None
    path = dotted(expr)
    if path is not None and path.startswith("self.") and path.count(".") == 1:
        return path[5:]
    return None


def reads_of_self_attrs(expr: Optional[ast.AST]) -> Set[str]:
    """Every ``self.<attr>`` read anywhere inside ``expr``."""
    out: Set[str] = set()
    if expr is None:
        return out
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


@dataclass(frozen=True, eq=False)
class VarDef:
    """One binding of a local name (identity-compared; sites are unique)."""

    name: str
    node: ast.AST  # the binding site (target/arg node)
    value: Optional[ast.expr]  # bound expression; None when unknown
    held: FrozenSet[str]  # lock attrs held at the binding
    lineno: int
    col: int
    is_param: bool = False
    is_augmented: bool = False

    @property
    def alias_of(self) -> Optional[str]:
        """Attribute name when the bound value is exactly ``self.<attr>``."""
        return self_attr(self.value)


@dataclass(frozen=True, eq=False)
class VarUse:
    """One ``Name`` load with its reaching definitions."""

    name: str
    node: ast.Name
    held: FrozenSet[str]
    defs: Tuple[VarDef, ...]


@dataclass(frozen=True, eq=False)
class ExitValue:
    """One return or yield point."""

    node: ast.AST
    value: Optional[ast.expr]
    held: FrozenSet[str]


@dataclass(frozen=True, eq=False)
class AttrStore:
    """One ``self.<attr> = <value>`` store."""

    attr: str
    node: ast.AST
    value: ast.expr
    held: FrozenSet[str]
    lineno: int


class FunctionDataflow:
    """Reaching-definition facts for one function body."""

    def __init__(
        self,
        module: SourceModule,
        cls: Optional[ClassInfo],
        fn: ast.FunctionDef,
    ) -> None:
        self.module = module
        self.cls = cls
        self.fn = fn
        #: id(Name node) -> its VarUse (final fixpoint pass wins)
        self.uses: Dict[int, VarUse] = {}
        self.returns: List[ExitValue] = []
        self.yields: List[ExitValue] = []
        self.attr_stores: List[AttrStore] = []
        _Builder(self).run()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def use(self, node: ast.AST) -> Optional[VarUse]:
        return self.uses.get(id(node))

    def uses_in(self, root: Optional[ast.AST]) -> List[VarUse]:
        """Every recorded use inside ``root`` (including ``root`` itself)."""
        if root is None:
            return []
        found = []
        for node in ast.walk(root):
            use = self.uses.get(id(node))
            if use is not None:
                found.append(use)
        return found

    def flow_values(self, expr: Optional[ast.expr]) -> List[ast.expr]:
        """``expr`` plus, transitively, the bound value of every
        definition reaching a name used in it — the expressions whose
        evaluation may contribute to ``expr``'s value."""
        if expr is None:
            return []
        seen: Set[int] = set()
        out: List[ast.expr] = []
        frontier: List[ast.expr] = [expr]
        while frontier:
            value = frontier.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            out.append(value)
            for use in self.uses_in(value):
                for definition in use.defs:
                    if definition.value is not None:
                        frontier.append(definition.value)
        return out

    def flow_calls(self, expr: Optional[ast.expr]) -> List[ast.Call]:
        """Every call whose result may contribute to ``expr``'s value."""
        calls = []
        for value in self.flow_values(expr):
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    calls.append(node)
        return calls

    def flows_from_param(self, expr: Optional[ast.expr]) -> bool:
        """May ``expr``'s value derive from a function parameter?"""
        for value in self.flow_values(expr):
            for use in self.uses_in(value):
                if any(d.is_param for d in use.defs):
                    return True
        return False


class _Builder:
    """One forward pass (with loop fixpoint) over a function body."""

    def __init__(self, flow: FunctionDataflow) -> None:
        self.flow = flow
        self._held: Tuple[str, ...] = ()
        self._lock_names = self._collect_lock_names(flow.cls)
        #: per-site VarDef cache so loop re-passes reuse identical defs
        #: (identity equality makes the env fixpoint converge)
        self._defs: Dict[Tuple[int, str], VarDef] = {}
        self._break_envs: List[List[_Env]] = []
        self._continue_envs: List[List[_Env]] = []

    @staticmethod
    def _collect_lock_names(cls: Optional[ClassInfo]) -> Set[str]:
        if cls is None:
            return set()
        names = set(cls.lock_attrs)
        names |= {spec.lock for spec in cls.guarded.values()}
        return names

    def run(self) -> None:
        fn = self.flow.fn
        env: _Env = {}
        args = fn.args
        positional = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in positional + [a for a in (args.vararg, args.kwarg) if a]:
            definition = self._make_def(arg.arg, arg, None, is_param=True)
            env[arg.arg] = frozenset([definition])
        self._block(fn.body, env)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _block(self, stmts: List[ast.stmt], env: Optional[_Env]) -> Optional[_Env]:
        current = env
        for stmt in stmts:
            if current is None:
                break  # unreachable after return/raise/break
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, env: _Env) -> Optional[_Env]:
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, env)
            for target in stmt.targets:
                env = self._bind_target(target, stmt.value, stmt, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value, env)
                env = self._bind_target(stmt.target, stmt.value, stmt, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, env)
            target = stmt.target
            if isinstance(target, ast.Name):
                # the old value still flows through (x += y reads x), so
                # prior definitions survive alongside the augmented one
                definition = self._make_def(
                    target.id, stmt, stmt.value, is_augmented=True
                )
                env = dict(env)
                env[target.id] = env.get(target.id, frozenset()) | {definition}
            else:
                env = self._bind_target(target, stmt.value, stmt, env)
            return env
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value, env)
            return env
        if isinstance(stmt, ast.Return):
            self._expr(stmt.value, env)
            self.flow.returns.append(
                ExitValue(stmt, stmt.value, self._held_set())
            )
            return None
        if isinstance(stmt, ast.Raise):
            self._expr(stmt.exc, env)
            self._expr(stmt.cause, env)
            return None
        if isinstance(stmt, ast.Break):
            if self._break_envs:
                self._break_envs[-1].append(env)
            return None
        if isinstance(stmt, ast.Continue):
            if self._continue_envs:
                self._continue_envs[-1].append(env)
            return None
        if isinstance(stmt, ast.If):
            self._expr(stmt.test, env)
            then_out = self._block(stmt.body, dict(env))
            else_out = self._block(stmt.orelse, dict(env))
            return _merge(then_out, else_out)
        if isinstance(stmt, ast.While):
            return self._loop(stmt, env, target=None, iter_expr=None)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._loop(
                stmt, env, target=stmt.target, iter_expr=stmt.iter
            )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, env)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, env)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # nested scope: bind the name, do not descend
            env = dict(env)
            env[stmt.name] = frozenset(
                [self._make_def(stmt.name, stmt, None)]
            )
            return env
        if isinstance(stmt, ast.Delete):
            env = dict(env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
                else:
                    self._expr(target, env)
            return env
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            env = dict(env)
            for name in stmt.names:
                env[name] = frozenset()  # bindings live elsewhere
            return env
        if isinstance(stmt, ast.Assert):
            self._expr(stmt.test, env)
            self._expr(stmt.msg, env)
            return env
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            env = dict(env)
            for alias in stmt.names:
                bound = (alias.asname or alias.name).split(".", 1)[0]
                env[bound] = frozenset([self._make_def(bound, stmt, None)])
            return env
        if isinstance(stmt, (ast.Pass,)):
            return env
        return self._generic_stmt(stmt, env)

    def _generic_stmt(self, stmt: ast.stmt, env: _Env) -> Optional[_Env]:
        """Conservative fallback (e.g. ``match``): visit child
        expressions under the current env, run every child statement
        block from it, and join the results with fall-through."""
        for field_value in ast.iter_fields(stmt):
            _, value = field_value
            if isinstance(value, ast.expr):
                self._expr(value, env)
        out: Optional[_Env] = dict(env)
        for node in ast.iter_child_nodes(stmt):
            blocks = []
            if isinstance(node, ast.stmt):
                blocks = [[node]]
            elif hasattr(node, "body") and isinstance(
                getattr(node, "body"), list
            ):
                blocks = [getattr(node, "body")]
            for block in blocks:
                out = _merge(out, self._block(block, dict(env)))
        return out

    def _loop(
        self,
        stmt: ast.stmt,
        env: _Env,
        target: Optional[ast.expr],
        iter_expr: Optional[ast.expr],
    ) -> Optional[_Env]:
        self._break_envs.append([])
        self._continue_envs.append([])
        entry = env
        for _ in range(_MAX_LOOP_PASSES):
            self._continue_envs[-1] = []
            if iter_expr is not None:
                self._expr(iter_expr, entry)
            if isinstance(stmt, ast.While):
                self._expr(stmt.test, entry)
            body_env = dict(entry)
            if target is not None:
                body_env = self._bind_target(target, iter_expr, stmt, body_env)
            body_out = self._block(stmt.body, body_env)
            merged: Optional[_Env] = dict(entry)
            for extra in [body_out] + self._continue_envs[-1]:
                merged = _merge(merged, extra)
            assert merged is not None
            if merged == entry:
                break
            entry = merged
        breaks = self._break_envs.pop()
        self._continue_envs.pop()
        out: Optional[_Env]
        if stmt.orelse:
            out = self._block(stmt.orelse, dict(entry))
        else:
            out = dict(entry)
        for break_env in breaks:
            out = _merge(out, break_env)
        return out

    def _with(self, stmt: ast.stmt, env: _Env) -> Optional[_Env]:
        acquired: List[str] = []
        for item in stmt.items:
            self._expr(item.context_expr, env)
            attr = self_attr(item.context_expr)
            if attr is not None and attr in self._lock_names:
                acquired.append(attr)
            if item.optional_vars is not None:
                env = self._bind_target(
                    item.optional_vars, item.context_expr, stmt, env
                )
        previous = self._held
        self._held = previous + tuple(acquired)
        out = self._block(stmt.body, dict(env))
        self._held = previous
        return out

    def _try(self, stmt: ast.Try, env: _Env) -> Optional[_Env]:
        body_out = self._block(stmt.body, dict(env))
        # a handler may enter from any point in the body: its entry is
        # the (coarse) union of the pre-try env and the body's exit env
        base = _merge(dict(env), body_out)
        assert base is not None
        handler_outs: List[Optional[_Env]] = []
        for handler in stmt.handlers:
            handler_env = dict(base)
            self._expr(handler.type, handler_env)
            if handler.name:
                handler_env[handler.name] = frozenset(
                    [self._make_def(handler.name, handler, None)]
                )
            handler_outs.append(self._block(handler.body, handler_env))
        if stmt.orelse and body_out is not None:
            body_out = self._block(stmt.orelse, body_out)
        out = body_out
        for handler_out in handler_outs:
            out = _merge(out, handler_out)
        if stmt.finalbody:
            final_entry = out if out is not None else base
            final_out = self._block(stmt.finalbody, dict(final_entry))
            if out is not None:
                out = final_out
        return out

    # ------------------------------------------------------------------
    # binding targets and visiting expressions
    # ------------------------------------------------------------------

    def _bind_target(
        self,
        target: ast.expr,
        value: Optional[ast.expr],
        stmt: ast.stmt,
        env: _Env,
    ) -> _Env:
        if isinstance(target, ast.Name):
            env = dict(env)
            env[target.id] = frozenset(
                [self._make_def(target.id, target, value)]
            )
            return env
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                env = self._bind_target(element, None, stmt, env)
            return env
        if isinstance(target, ast.Starred):
            return self._bind_target(target.value, None, stmt, env)
        if isinstance(target, ast.Attribute):
            attr = self_attr(target)
            if attr is not None and value is not None:
                self.flow.attr_stores.append(
                    AttrStore(attr, stmt, value, self._held_set(), stmt.lineno)
                )
            else:
                self._expr(target.value, env)
            return env
        if isinstance(target, ast.Subscript):
            self._expr(target.value, env)
            self._expr(target.slice, env)
            return env
        return env

    def _expr(self, expr: Optional[ast.expr], env: _Env) -> None:
        if expr is None:
            return
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # its body runs in its own scope
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                defs = tuple(
                    sorted(
                        env.get(node.id, frozenset()),
                        key=lambda d: (d.lineno, d.col),
                    )
                )
                self.flow.uses[id(node)] = VarUse(
                    node.id, node, self._held_set(), defs
                )
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.flow.yields.append(
                    ExitValue(node, node.value, self._held_set())
                )
            elif isinstance(node, ast.NamedExpr):
                # walrus: bind in place so later sibling uses see it
                self._expr(node.value, env)
                env[node.target.id] = frozenset(
                    [self._make_def(node.target.id, node.target, node.value)]
                )
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _make_def(
        self,
        name: str,
        node: ast.AST,
        value: Optional[ast.expr],
        is_param: bool = False,
        is_augmented: bool = False,
    ) -> VarDef:
        key = (id(node), name)
        cached = self._defs.get(key)
        if cached is None:
            cached = VarDef(
                name=name,
                node=node,
                value=value,
                held=self._held_set(),
                lineno=getattr(node, "lineno", self.flow.fn.lineno),
                col=getattr(node, "col_offset", 0),
                is_param=is_param,
                is_augmented=is_augmented,
            )
            self._defs[key] = cached
        return cached

    def _held_set(self) -> FrozenSet[str]:
        return frozenset(self._held)


def _merge(a: Optional[_Env], b: Optional[_Env]) -> Optional[_Env]:
    """Join two branch exit envs; an exited branch (None) is identity."""
    if a is None:
        return dict(b) if b is not None else None
    if b is None:
        return dict(a)
    out = dict(a)
    for name, defs in b.items():
        out[name] = out.get(name, frozenset()) | defs
    return out


class DataflowAnalysis:
    """Lazily built per-function dataflow, shared across rules."""

    def __init__(self, project) -> None:
        self.project = project
        self._functions: Dict[int, FunctionDataflow] = {}

    def function(
        self,
        module: SourceModule,
        cls: Optional[ClassInfo],
        fn: ast.FunctionDef,
    ) -> FunctionDataflow:
        flow = self._functions.get(id(fn))
        if flow is None:
            flow = FunctionDataflow(module, cls, fn)
            self._functions[id(fn)] = flow
        return flow


def dataflow_analysis(project) -> DataflowAnalysis:
    """The shared per-project :class:`DataflowAnalysis` (like
    :func:`repro.analysis.effects.effect_analysis`)."""
    return project.shared(DataflowAnalysis)

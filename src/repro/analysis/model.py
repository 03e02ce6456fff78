"""The shared static model the lint rules analyze.

One :class:`Project` is built per ``repro lint`` invocation from the set
of files on the command line.  It parses every file once with the stdlib
:mod:`ast` module and indexes:

* classes, their methods, and their base-class names (for the node
  families rule R003 checks exhaustive dispatch over);
* **lock attributes** — instance attributes assigned a
  ``threading.Lock() / RLock() / Condition()`` in a method, or assigned
  from a constructor parameter whose name looks lock-ish (``db_lock``
  injected into a worker);
* **guarded-by declarations** — class-body assignments of
  :func:`repro.concurrency.guarded_by` markers (rule R001);
* a name-based call index (:func:`resolve_call`) from which
  :mod:`repro.analysis.core` builds the one call graph every
  interprocedural analysis shares.

Everything here is purely syntactic; no analyzed module is imported.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

#: ``threading`` constructors whose result we treat as a lock object.
LOCK_CONSTRUCTORS = {"Lock": "Lock", "RLock": "RLock", "Condition": "Condition"}

#: Reentrant lock kinds (``threading.Condition`` wraps an RLock by default).
REENTRANT_KINDS = {"RLock", "Condition", "injected"}

#: Attribute suffixes that mark an injected parameter/attribute as a lock.
_LOCKISH_SUFFIXES = ("lock", "cond", "condition", "mutex")

#: (module path, owning class name or None, function name) — the
#: project-wide identity of one function, the node of the shared call
#: graph (:class:`repro.analysis.core.CallGraph`).
FnKey = Tuple[str, Optional[str], str]

#: Method names too generic to resolve project-wide by name alone: they
#: collide with dict/list/deque/str/thread builtins and would fabricate
#: call-graph edges (``self._counters.get(...)`` is not
#: ``StatisticsManager.get``).  Calls through ``self`` still resolve
#: within the owning class.
GENERIC_METHOD_NAMES = {
    "get", "set", "pop", "popleft", "append", "appendleft", "extend",
    "update", "keys", "values", "items", "join", "start", "run", "wait",
    "notify", "notify_all", "acquire", "release", "clear", "add",
    "discard", "remove", "copy", "sort", "index", "count", "close",
    "read", "write", "insert", "setdefault", "put", "send", "recv",
    "take",  # numpy/Relation.take vs CaptureLog.take
}


def is_lockish_name(name: str) -> bool:
    """Heuristic: does an attribute/parameter name denote a lock?"""
    return name.lstrip("_").lower().endswith(_LOCKISH_SUFFIXES)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None (calls break it)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


@dataclass
class LockAttr:
    """One lock-valued instance attribute of a class."""

    attr: str
    kind: str  # "Lock" | "RLock" | "Condition" | "injected"
    lineno: int

    @property
    def reentrant(self) -> bool:
        return self.kind in REENTRANT_KINDS


@dataclass
class GuardedSpec:
    """One ``attr = guarded_by("_lock")`` class-body declaration."""

    attr: str
    lock: str
    mutations_only: bool
    lineno: int


@dataclass
class PlanSourceSpec:
    """One ``attr = plan_source("version")`` class-body declaration."""

    attr: str
    prop: str
    lineno: int


@dataclass
class DispatchMarker:
    """One ``# repro-lint: dispatch=Base [except=A,B]`` marker."""

    base: str
    excluded: Tuple[str, ...]
    lineno: int


@dataclass
class ClassInfo:
    """Statically collected facts about one class definition."""

    name: str
    module: "SourceModule"
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    lock_attrs: Dict[str, LockAttr] = field(default_factory=dict)
    guarded: Dict[str, GuardedSpec] = field(default_factory=dict)
    plan_sources: Dict[str, PlanSourceSpec] = field(default_factory=dict)


@dataclass
class SourceModule:
    """One parsed source file."""

    path: str
    name: str
    tree: ast.Module
    lines: List[str]
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: lineno -> actual comment text on that line (tokenized, so marker
    #: text quoted inside docstrings/strings does not count)
    comments: Dict[int, str] = field(default_factory=dict)

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def comment(self, lineno: int) -> str:
        return self.comments.get(lineno, "")


#: where one function lives: its module, its class (None for a module
#: function) and its definition
FnDef = Tuple["SourceModule", Optional["ClassInfo"], ast.FunctionDef]

T = TypeVar("T")


class Project:
    """Parsed project: every analyzed module plus cross-module indexes."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: List[SourceModule] = list(modules)
        #: class name -> every ClassInfo with that name
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: method name -> [(owner class, FunctionDef)]
        self.methods_by_name: Dict[str, List[Tuple[ClassInfo, ast.FunctionDef]]] = {}
        #: module-level function name -> [(module, FunctionDef)]
        self.functions_by_name: Dict[
            str, List[Tuple[SourceModule, ast.FunctionDef]]
        ] = {}
        #: every method and module function, by its project-wide key
        self.functions: Dict[FnKey, FnDef] = {}
        for module in self.modules:
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for mname, fn in cls.methods.items():
                    self.methods_by_name.setdefault(mname, []).append((cls, fn))
                    self.functions[(module.path, cls.name, mname)] = (
                        module, cls, fn,
                    )
            for fname, fn in module.functions.items():
                self.functions_by_name.setdefault(fname, []).append((module, fn))
                self.functions[(module.path, None, fname)] = (module, None, fn)
        self._canonical_locks = _canonicalize_locks(self)
        self._shared: Dict[Callable[["Project"], Any], Any] = {}

    def shared(self, factory: Callable[["Project"], T]) -> T:
        """The one ``factory(self)`` of this project, built on first use:
        how rules share the call graph and the analyses built on it."""
        if factory not in self._shared:
            self._shared[factory] = factory(self)
        return self._shared[factory]

    # ------------------------------------------------------------------
    # lock identity
    # ------------------------------------------------------------------

    def canonical_lock(self, cls: ClassInfo, attr: str) -> str:
        """Project-wide identity of the lock ``cls.attr``.

        Locks constructed in exactly one class keep a short name shared
        with injected aliases (``StatsService.db_lock`` and the
        ``_db_lock`` handed to workers both map to ``db_lock``); ambiguous
        short names stay class-qualified.
        """
        return self._canonical_locks.get((cls.name, attr), f"{cls.name}.{attr}")

    def lock_kind(self, canonical: str) -> str:
        """Constructor kind for a canonical lock id ("injected" if unknown)."""
        for module in self.modules:
            for cls in module.classes.values():
                for attr, lock in cls.lock_attrs.items():
                    if lock.kind == "injected":
                        continue
                    if self.canonical_lock(cls, attr) == canonical:
                        return lock.kind
        return "injected"

    # ------------------------------------------------------------------
    # class hierarchy (node families for R003)
    # ------------------------------------------------------------------

    def family_leaves(self, base_name: str) -> List[ClassInfo]:
        """Concrete members of the family rooted at ``base_name``:
        transitive subclasses that themselves have no subclasses."""
        descendants: List[ClassInfo] = []
        frontier = {base_name}
        seen: Set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for module in self.modules:
                for cls in module.classes.values():
                    if current in cls.bases and cls.name not in seen:
                        descendants.append(cls)
                        frontier.add(cls.name)
        names_with_children = {
            parent for cls in descendants for parent in cls.bases
        }
        return [cls for cls in descendants if cls.name not in names_with_children]


def _canonicalize_locks(project: Project) -> Dict[Tuple[str, str], str]:
    constructed: Dict[str, List[Tuple[str, str]]] = {}
    for module in project.modules:
        for cls in module.classes.values():
            for attr, lock in cls.lock_attrs.items():
                if lock.kind != "injected":
                    short = attr.lstrip("_")
                    constructed.setdefault(short, []).append((cls.name, attr))
    mapping: Dict[Tuple[str, str], str] = {}
    for module in project.modules:
        for cls in module.classes.values():
            for attr, lock in cls.lock_attrs.items():
                short = attr.lstrip("_")
                owners = constructed.get(short, [])
                if lock.kind == "injected":
                    # aliases merge onto the short name; unique constructed
                    # locks use the same short name, so they unify
                    mapping[(cls.name, attr)] = short
                elif len(owners) == 1:
                    mapping[(cls.name, attr)] = short
                else:
                    mapping[(cls.name, attr)] = f"{cls.name}.{attr}"
    return mapping


# ----------------------------------------------------------------------
# call resolution (shared by the interprocedural analyses)
# ----------------------------------------------------------------------


def resolve_call(
    project: Project, cls: Optional[ClassInfo], call: ast.Call
) -> List[FnKey]:
    """Possible targets of one call site, name-based and conservative.

    ``self.m()`` resolves within the enclosing class first; other calls
    resolve by name project-wide *except* for names colliding with
    builtin container / threading APIs (:data:`GENERIC_METHOD_NAMES`),
    which would fabricate edges from ``dict.get`` or ``Thread.join`` to
    unrelated project methods.  :class:`repro.analysis.core.CallGraph`
    resolves every call site through it once per project.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        receiver = dotted(func.value)
        if receiver == "self" and cls is not None and name in cls.methods:
            return [(cls.module.path, cls.name, name)]
        if name in GENERIC_METHOD_NAMES:
            return []
        return [
            (owner.module.path, owner.name, name)
            for owner, _ in project.methods_by_name.get(name, [])
        ]
    if isinstance(func, ast.Name):
        name = func.id
        if name in GENERIC_METHOD_NAMES:
            return []
        return [
            (module.path, None, name)
            for module, _ in project.functions_by_name.get(name, [])
        ]
    return []


# ----------------------------------------------------------------------
# module parsing
# ----------------------------------------------------------------------


def parse_module(path: str, source: str) -> SourceModule:
    tree = ast.parse(source, filename=path)
    module = SourceModule(
        path=path,
        name=_module_name(path),
        tree=tree,
        lines=source.splitlines(),
        comments=_collect_comments(source),
    )
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            module.classes[node.name] = _collect_class(module, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(node, ast.FunctionDef):
                module.functions[node.name] = node
    return module


def _collect_comments(source: str) -> Dict[int, str]:
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        pass  # ast.parse succeeded, so this should not happen
    return comments


def _module_name(path: str) -> str:
    normalized = path.replace("\\", "/")
    marker = "/src/"
    if marker in normalized:
        normalized = normalized.split(marker, 1)[1]
    return normalized.rsplit(".py", 1)[0].strip("/").replace("/", ".")


def _collect_class(module: SourceModule, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        module=module,
        node=node,
        bases=tuple(
            name for name in (dotted(b) for b in node.bases) if name is not None
        ),
    )
    info.bases = tuple(b.rsplit(".", 1)[-1] for b in info.bases)
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            info.methods[stmt.name] = stmt
            _collect_lock_attrs(info, stmt)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                spec = _parse_guarded_by(target.id, stmt.value)
                if spec is not None:
                    info.guarded[target.id] = spec
                source = _parse_plan_source(target.id, stmt.value)
                if source is not None:
                    info.plan_sources[target.id] = source
    return info


def _parse_guarded_by(attr: str, value: ast.expr) -> Optional[GuardedSpec]:
    if not isinstance(value, ast.Call):
        return None
    callee = value.func
    name = callee.id if isinstance(callee, ast.Name) else (
        callee.attr if isinstance(callee, ast.Attribute) else None
    )
    if name != "guarded_by":
        return None
    if not value.args or not isinstance(value.args[0], ast.Constant):
        return None
    lock = value.args[0].value
    if not isinstance(lock, str):
        return None
    mutations_only = False
    for keyword in value.keywords:
        if keyword.arg == "mutations_only" and isinstance(keyword.value, ast.Constant):
            mutations_only = bool(keyword.value.value)
    return GuardedSpec(
        attr=attr, lock=lock, mutations_only=mutations_only, lineno=value.lineno
    )


def _parse_plan_source(attr: str, value: ast.expr) -> Optional[PlanSourceSpec]:
    if not isinstance(value, ast.Call):
        return None
    callee = value.func
    name = callee.id if isinstance(callee, ast.Name) else (
        callee.attr if isinstance(callee, ast.Attribute) else None
    )
    if name != "plan_source":
        return None
    prop = "version"
    if value.args:
        if not isinstance(value.args[0], ast.Constant) or not isinstance(
            value.args[0].value, str
        ):
            return None
        prop = value.args[0].value
    return PlanSourceSpec(attr=attr, prop=prop, lineno=value.lineno)


def _collect_lock_attrs(info: ClassInfo, fn: ast.FunctionDef) -> None:
    params = {a.arg for a in fn.args.args} | {a.arg for a in fn.args.kwonlyargs}
    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        attr = target.attr
        value = stmt.value
        if isinstance(value, ast.Call):
            callee = dotted(value.func) or ""
            ctor = callee.rsplit(".", 1)[-1]
            if ctor in LOCK_CONSTRUCTORS:
                info.lock_attrs.setdefault(
                    attr, LockAttr(attr, LOCK_CONSTRUCTORS[ctor], stmt.lineno)
                )
        elif (
            isinstance(value, ast.Name)
            and value.id in params
            and is_lockish_name(value.id)
            and is_lockish_name(attr)
        ):
            info.lock_attrs.setdefault(attr, LockAttr(attr, "injected", stmt.lineno))


# ----------------------------------------------------------------------
# dispatch markers (R003)
# ----------------------------------------------------------------------

_MARKER_PREFIX = "repro-lint:"


def dispatch_marker(
    module: SourceModule, fn: ast.FunctionDef
) -> Optional[DispatchMarker]:
    """The ``# repro-lint: dispatch=Base [except=A,B]`` marker attached
    to ``fn``, if any.  The marker may sit on the line before ``def``
    (above decorators), on the ``def`` line, or on any line up to the
    function's first statement (i.e. inside the docstring region)."""
    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list]) - 1
    stop = fn.body[0].lineno if fn.body else fn.lineno
    for lineno in range(max(1, start), stop + 1):
        marker = _parse_dispatch_comment(module.comment(lineno), lineno)
        if marker is not None:
            return marker
    return None


def function_marker_value(
    module: SourceModule, fn: ast.FunctionDef, key: str
) -> Optional[str]:
    """Value of a ``# repro-lint: <key>=<value>`` marker attached to
    ``fn`` (same placement rules as :func:`dispatch_marker`), with the
    whole comment tail after ``<key>=`` as the value — so values may
    contain spaces, unlike the whitespace-split dispatch fields.
    Returns None when no marker is present; "" when the value is empty.
    """
    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list]) - 1
    stop = fn.body[0].lineno if fn.body else fn.lineno
    needle = key + "="
    for lineno in range(max(1, start), stop + 1):
        text = module.comment(lineno)
        if _MARKER_PREFIX not in text:
            continue
        tail = text.split(_MARKER_PREFIX, 1)[1].strip()
        if tail.startswith(needle):
            return tail[len(needle):].strip()
    return None


def class_marker_flag(
    module: SourceModule, cls: ClassInfo, flag: str
) -> Optional[int]:
    """Line number of a bare ``# repro-lint: <flag>`` marker anywhere in
    the class body, or None.  Used for class-level switches such as
    ``# repro-lint: optimize-path`` (rule R009)."""
    end = cls.node.end_lineno or cls.node.lineno
    for lineno in range(cls.node.lineno, end + 1):
        text = module.comment(lineno)
        if _MARKER_PREFIX not in text:
            continue
        tail = text.split(_MARKER_PREFIX, 1)[1].strip()
        if tail == flag or tail.startswith(flag + " "):
            return lineno
    return None


def class_marker_values(
    module: SourceModule, cls: ClassInfo, key: str
) -> List[Tuple[str, int]]:
    """Every ``# repro-lint: <key>=<value>`` marker in the class body as
    ``(value, lineno)`` pairs, with the whole comment tail after
    ``<key>=`` as the value (so values may contain spaces)."""
    end = cls.node.end_lineno or cls.node.lineno
    needle = key + "="
    out: List[Tuple[str, int]] = []
    for lineno in range(cls.node.lineno, end + 1):
        text = module.comment(lineno)
        if _MARKER_PREFIX not in text:
            continue
        tail = text.split(_MARKER_PREFIX, 1)[1].strip()
        if tail.startswith(needle):
            out.append((tail[len(needle):].strip(), lineno))
    return out


def _parse_dispatch_comment(text: str, lineno: int) -> Optional[DispatchMarker]:
    if _MARKER_PREFIX not in text or "dispatch=" not in text:
        return None
    fields = text.split(_MARKER_PREFIX, 1)[1].split()
    base: Optional[str] = None
    excluded: Tuple[str, ...] = ()
    for piece in fields:
        if piece.startswith("dispatch="):
            base = piece.split("=", 1)[1]
        elif piece.startswith("except="):
            excluded = tuple(
                name for name in piece.split("=", 1)[1].split(",") if name
            )
    if base is None:
        return None
    return DispatchMarker(base=base, excluded=excluded, lineno=lineno)


# ----------------------------------------------------------------------
# with-lock tracking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeldLock:
    """One lock held by an enclosing ``with`` statement."""

    expr: str  # source expression, e.g. "self._lock"
    attr: str  # lock attribute name, e.g. "_lock"
    canonical: str  # project-wide id, e.g. "stats manager lock"
    lineno: int


def lock_withitems(
    project: Project, cls: Optional[ClassInfo], stmt: ast.With
) -> List[HeldLock]:
    """The locks acquired by one ``with`` statement.

    A with-item counts as a lock acquisition when its context expression
    is a plain ``self.<attr>`` chain (no call) and ``<attr>`` is a known
    lock attribute of the enclosing class.
    """
    if cls is None:
        return []
    held = []
    for item in stmt.items:
        expr = dotted(item.context_expr)
        if expr is None or not expr.startswith("self."):
            continue
        attr = expr.split(".", 1)[1]
        if "." in attr:
            continue
        if attr in cls.lock_attrs:
            held.append(
                HeldLock(
                    expr=expr,
                    attr=attr,
                    canonical=project.canonical_lock(cls, attr),
                    lineno=stmt.lineno,
                )
            )
    return held


def walk_same_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but does not descend into nested function
    definitions or lambdas: a closure runs in its own lock and effect
    context (often later, on another thread), so its body is not part of
    the enclosing function's facts."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))

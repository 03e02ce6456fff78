"""Interprocedural typestate verification for lifecycle protocols.

This is the layer under the R012–R015 rule families.  It runs on the
analysis core (:mod:`repro.analysis.core`) that R006 and the effect
summaries also use: the one call graph, its worklist fixpoint for the
per-method summaries, and the one path walker.  The input is
declarative: a class states, in its body, which protocol its
instances follow (:func:`repro.concurrency.protocol`)::

    class AdmissionQueue:
        _lifecycle = protocol(
            "admission-queue",
            rule="R013",
            states=("open", "closed"),
            initial="open",
            transitions={"close": ("open", "closed")},
            allowed={"open": ("admit", "take", "close"),
                     "closed": ("take", "close")},
            drains={"close": ("fail", "resolve")},
        )

and the engine verifies, project-wide:

* **abstract states** — every tracked receiver (``self`` inside the
  protocol class, ``self.<attr>`` fields assigned a protocol-class
  constructor, and locals bound to one) carries a set of possible
  protocol states along every path; an operation invoked in a path
  state where every possible state forbids it is a finding.  The shared
  :class:`~repro.analysis.core.PathWalker` forks at ``if``, runs loops
  0-or-1 times and enters ``try`` handlers from the pre-try and body
  exit states; at ``self.<helper>()`` call sites the walk applies the
  helper's per-method summary (the operations it performs, folded
  through the call graph by the shared fixpoint);
* **constructor obligations** — a ``final=`` state must be reached on
  every path out of ``__init__`` (``# repro-lint:
  protocol-initial=<protocol>:<state>: <reason>`` opts a subclass out,
  with a mandatory reason);
* **conformance** — every concrete implementor of a protocol-bearing
  base must define the ``requires=`` operations;
* **drop-list obligations** — transition operations must really mutate
  the declared ``carrier`` attribute, ``guarded=`` operations must read
  the ``store`` before mutating the carrier on every path, ``reads=``
  operations must consult the ``visibility`` operation (or the carrier)
  before serving data, and ``delegate=`` classes must forward every
  protocol operation to the named delegate;
* **drain obligations** — the stranded items returned by a ``drains=``
  operation must be settled at every call site;
* **ordering obligations** — a ``requires_before={"admit":
  "token-bucket:acquire"}`` entry flags any path where the foreign
  operation happens *after* the local one (rate check after enqueue).

Everything here is purely syntactic; no analyzed module is imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import PathWalker, call_graph
from repro.analysis.model import (
    ClassInfo,
    FnKey,
    Project,
    ProtocolSpec,
    SourceModule,
    class_marker_values,
    dotted,
    is_lockish_name,
    walk_same_scope,
)

#: class marker overriding the starting state of a subclass:
#: ``# repro-lint: protocol-initial=<protocol>:<state>: <reason>``
INITIAL_KEY = "protocol-initial"

#: container methods that mutate a set/dict/list-valued carrier in place
_CARRIER_MUTATORS = {
    "add", "discard", "remove", "clear", "pop", "update", "append",
}

#: defensive cap on forked path states per function
_MAX_PATH_STATES = 128

#: (protocol name, operation name)
Tag = Tuple[str, str]

#: one raw finding: (module, lineno, col, message)
RawFinding = Tuple[SourceModule, int, int, str]

_ClassKey = Tuple[str, str]  # (module path, class name)


def _class_key(cls: ClassInfo) -> _ClassKey:
    return (cls.module.path, cls.name)


def _last_component(path: str) -> str:
    return path.rsplit(".", 1)[-1]


def _is_abstract_fn(fn: ast.FunctionDef) -> bool:
    for decorator in fn.decorator_list:
        name = dotted(decorator)
        if name is not None and _last_component(name) == "abstractmethod":
            return True
    return False


def _is_abstract(cls: ClassInfo) -> bool:
    if any(base in ("ABC", "ABCMeta") for base in cls.bases):
        return True
    return any(_is_abstract_fn(fn) for fn in cls.methods.values())


@dataclass
class BoundProtocol:
    """One protocol attached to one class (declared or inherited)."""

    cls: ClassInfo
    spec: ProtocolSpec
    declared: bool  # False when inherited from a base class
    initial: str  # after any protocol-initial marker override
    #: ops that are only legal in some states (union of allowed=)
    restricted: FrozenSet[str]

    def disallowed(self, state: str, op: str) -> bool:
        """Is ``op`` illegal for an object known to be in ``state``?"""
        if op in self.spec.transitions:
            if self.spec.transitions[op][0] == state:
                return False
        if op not in self.restricted:
            return False
        return op not in self.spec.allowed.get(state, ())


class TypestateAnalysis:
    """Project-wide typestate facts, built once per lint invocation."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: class key -> protocol name -> binding
        self.bindings: Dict[_ClassKey, Dict[str, BoundProtocol]] = {}
        #: marker problems surfaced under the owning rule id
        self._marker_findings: Dict[str, List[RawFinding]] = {}
        #: (proto, op) pairs matched loosely by attribute name
        self._loose_ops: Dict[str, Set[str]] = {}
        #: class key -> {"self.<attr>": class key of the protocol class}
        self._tracked_attrs: Dict[_ClassKey, Dict[str, _ClassKey]] = {}
        #: protocol class name -> class key (constructor tracking)
        self._ctor_classes: Dict[str, _ClassKey] = {}
        self._classes: Dict[_ClassKey, ClassInfo] = {}
        self._bind_protocols()
        self._collect_tracked()
        self._summaries = self._compute_summaries()
        self._usage: Optional[Dict[str, List[RawFinding]]] = None

    # ------------------------------------------------------------------
    # protocol binding (declarations + inheritance + markers)
    # ------------------------------------------------------------------

    def _bind_protocols(self) -> None:
        for module in self.project.modules:
            for cls in module.classes.values():
                self._classes[_class_key(cls)] = cls
        for key, cls in self._classes.items():
            bound: Dict[str, BoundProtocol] = {}
            for spec in self._inherited_specs(cls):
                declared = spec.name in cls.protocols
                initial = spec.initial
                override = self._initial_override(cls, spec)
                if override is not None:
                    initial = override
                bound[spec.name] = BoundProtocol(
                    cls=cls,
                    spec=spec,
                    declared=declared,
                    initial=initial,
                    restricted=frozenset(
                        op for ops in spec.allowed.values() for op in ops
                    ),
                )
            if bound:
                self.bindings[key] = bound
                self._ctor_classes[cls.name] = key
                for spec in cls.protocols.values():
                    for op in spec.operations:
                        self._loose_ops.setdefault(op, set()).add(spec.name)

    def _inherited_specs(self, cls: ClassInfo) -> List[ProtocolSpec]:
        """Specs declared on ``cls`` or any transitive base, nearest
        declaration winning per protocol name."""
        out: Dict[str, ProtocolSpec] = {}
        seen: Set[str] = set()
        frontier = [cls.name]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for owner in self.project.classes_by_name.get(current, []):
                for name, spec in owner.protocols.items():
                    out.setdefault(name, spec)
                frontier.extend(owner.bases)
        return list(out.values())

    def _initial_override(
        self, cls: ClassInfo, spec: ProtocolSpec
    ) -> Optional[str]:
        for value, lineno in class_marker_values(
            cls.module, cls, INITIAL_KEY
        ):
            head, _, reason = value.partition(" ")
            proto, _, state = head.partition(":")
            state = state.rstrip(":")
            if proto != spec.name:
                continue
            if state not in spec.states or not reason.strip():
                self._marker_findings.setdefault(spec.rule, []).append(
                    (
                        cls.module, lineno, 0,
                        f"malformed protocol-initial marker on {cls.name}: "
                        "expected '# repro-lint: protocol-initial="
                        "<protocol>:<state> <reason>' with a declared "
                        "state and a reason",
                    )
                )
                continue
            return state
        return None

    # ------------------------------------------------------------------
    # tracked receivers
    # ------------------------------------------------------------------

    def _ctor_key(self, call: ast.Call) -> Optional[_ClassKey]:
        """Class key when ``call`` constructs a protocol class."""
        name = dotted(call.func)
        if name is None:
            return None
        return self._ctor_classes.get(_last_component(name))

    def _collect_tracked(self) -> None:
        for module in self.project.modules:
            for cls in module.classes.values():
                tracked: Dict[str, _ClassKey] = {}
                for fn in cls.methods.values():
                    for node in walk_same_scope(fn):
                        if not (
                            isinstance(node, ast.Assign)
                            and len(node.targets) == 1
                            and isinstance(node.value, ast.Call)
                        ):
                            continue
                        receiver = dotted(node.targets[0])
                        if receiver is None or not receiver.startswith(
                            "self."
                        ):
                            continue
                        key = self._ctor_key(node.value)
                        if key is not None:
                            tracked[receiver] = key
                if tracked:
                    self._tracked_attrs[_class_key(cls)] = tracked

    def _bound_for(self, key: Optional[_ClassKey]) -> Dict[str, BoundProtocol]:
        if key is None:
            return {}
        return self.bindings.get(key, {})

    # ------------------------------------------------------------------
    # per-function summaries (fixpoint over the shared call graph)
    # ------------------------------------------------------------------

    def _direct_tags(
        self, cls: Optional[ClassInfo], fn: ast.FunctionDef
    ) -> Dict[str, Set[Tag]]:
        """Receiver -> tags for operations ``fn`` invokes directly.
        Receiver ``""`` collects loosely matched operations."""
        out: Dict[str, Set[Tag]] = {}
        cls_key = _class_key(cls) if cls is not None else None
        own = self._bound_for(cls_key)
        tracked = self._tracked_attrs.get(cls_key, {}) if cls_key else {}
        for node in walk_same_scope(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            op = node.func.attr
            receiver = dotted(node.func.value)
            matched = False
            if receiver == "self" and own:
                for proto, binding in own.items():
                    if op in binding.spec.ops():
                        out.setdefault("self", set()).add((proto, op))
                        matched = True
            elif receiver is not None and receiver in tracked:
                for proto, binding in self._bound_for(
                    tracked[receiver]
                ).items():
                    if op in binding.spec.ops():
                        out.setdefault(receiver, set()).add((proto, op))
                        matched = True
            if not matched and op in self._loose_ops:
                if receiver is None or not is_lockish_name(
                    _last_component(receiver)
                ):
                    for proto in self._loose_ops[op]:
                        out.setdefault("", set()).add((proto, op))
        return out

    def _compute_summaries(self) -> Dict[FnKey, Dict[str, Set[Tag]]]:
        graph = call_graph(self.project)
        summaries: Dict[FnKey, Dict[str, Set[Tag]]] = {
            key: self._direct_tags(cls, fn)
            for key, (_, cls, fn) in self.project.functions.items()
        }

        def join(caller: FnKey, call: ast.Call, target: FnKey) -> bool:
            # loose tags flow through every edge; receiver tags only
            # through self.<helper>() calls into the same class
            cls = self.project.functions[caller][1]
            same_class = (
                cls is not None
                and isinstance(call.func, ast.Attribute)
                and dotted(call.func.value) == "self"
                and call.func.attr in cls.methods
            )
            grew = False
            for recv, tags in summaries[target].items():
                if recv == "" or same_class:
                    bucket = summaries[caller].setdefault(recv, set())
                    before = len(bucket)
                    bucket |= tags
                    grew = grew or len(bucket) != before
            return grew

        graph.solve(join)
        return summaries

    def summary_for(
        self, cls: Optional[ClassInfo], name: str, module: SourceModule
    ) -> Dict[str, Set[Tag]]:
        key: FnKey = (
            module.path, cls.name if cls is not None else None, name
        )
        return self._summaries.get(key, {})

    # ------------------------------------------------------------------
    # rule entry point
    # ------------------------------------------------------------------

    def check_rule(self, rule_id: str) -> List[RawFinding]:
        findings: List[RawFinding] = list(
            self._marker_findings.get(rule_id, [])
        )
        for key in sorted(self.bindings):
            cls = self._classes[key]
            for proto in sorted(self.bindings[key]):
                binding = self.bindings[key][proto]
                if binding.spec.rule != rule_id:
                    continue
                findings.extend(self._check_class(binding))
        if self._usage is None:
            self._usage = self._check_usage()
        findings.extend(self._usage.get(rule_id, []))
        return findings

    # ------------------------------------------------------------------
    # definition-side checks (on the protocol class itself)
    # ------------------------------------------------------------------

    def _check_class(self, binding: BoundProtocol) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        findings: List[RawFinding] = []
        abstract = _is_abstract(cls)
        if spec.requires and not abstract:
            findings.extend(self._check_conformance(binding))
        if abstract:
            return findings
        if spec.final is not None and "__init__" in cls.methods:
            findings.extend(self._check_final(binding))
        if not binding.declared:
            return findings  # carrier obligations bind the declarer
        if spec.delegate is not None:
            findings.extend(self._check_delegate(binding))
            return findings
        if spec.carrier is not None:
            findings.extend(self._check_carrier(binding))
        return findings

    def _check_conformance(self, binding: BoundProtocol) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        available: Set[str] = set()
        seen: Set[str] = set()
        frontier = [cls.name]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for owner in self.project.classes_by_name.get(current, []):
                # an @abstractmethod stub does not satisfy the protocol:
                # only a concrete override anywhere on the chain counts
                available |= {
                    name
                    for name, fn in owner.methods.items()
                    if not _is_abstract_fn(fn)
                }
                frontier.extend(owner.bases)
        missing = sorted(set(spec.requires) - available)
        if not missing:
            return []
        return [
            (
                cls.module, cls.node.lineno, 0,
                f"{cls.name} implements protocol '{spec.name}' but is "
                f"missing operation(s) {', '.join(missing)} — every "
                "concrete implementor must provide the full protocol "
                "surface",
            )
        ]

    def _check_final(self, binding: BoundProtocol) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        init = cls.methods["__init__"]
        walker = _ProtocolWalker(
            self, cls, init, seed={"self": frozenset([binding.initial])}
        )
        exits = walker.run()
        for states in exits:
            self_states = states.receivers.get("self")
            if self_states is None or spec.final in self_states:
                continue
            return [
                (
                    cls.module, init.lineno, 0,
                    f"{cls.name}.__init__ can finish with the "
                    f"'{spec.name}' protocol in state "
                    f"{'/'.join(sorted(self_states))} — every path must "
                    f"reach '{spec.final}' (call the loading transition, "
                    "or declare '# repro-lint: protocol-initial="
                    f"{spec.name}:{spec.final} <reason>')",
                )
            ]
        return []

    def _check_delegate(self, binding: BoundProtocol) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        token = spec.delegate or ""
        findings: List[RawFinding] = []
        ops = sorted(
            set(spec.transitions) | set(spec.guarded) | set(spec.reads)
        )
        for op in ops:
            fn = cls.methods.get(op)
            if fn is None:
                continue
            if not self._forwards_to(cls, fn, token, set()):
                findings.append(
                    (
                        cls.module, fn.lineno, 0,
                        f"{cls.name}.{op} implements delegated protocol "
                        f"'{spec.name}' but never forwards to "
                        f"'{token}' — the lifecycle state would silently "
                        "diverge from the delegate's",
                    )
                )
        return findings

    def _forwards_to(
        self, cls: ClassInfo, fn: ast.FunctionDef, token: str, seen: Set[str]
    ) -> bool:
        for node in walk_same_scope(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            receiver = dotted(node.func.value)
            if receiver is not None and any(
                part.lstrip("_") == token for part in receiver.split(".")
            ):
                return True
            if receiver == "self" and node.func.attr in cls.methods:
                helper = node.func.attr
                if helper not in seen:
                    seen.add(helper)
                    if self._forwards_to(
                        cls, cls.methods[helper], token, seen
                    ):
                        return True
        return False

    # ------------------------------------------------------------------
    # carrier / guard / visibility obligations (R012 family)
    # ------------------------------------------------------------------

    def _check_carrier(self, binding: BoundProtocol) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        findings: List[RawFinding] = []
        carrier = spec.carrier or ""
        mutates = self._transitive_flags(
            cls, lambda fn: _mutates_carrier_sites(fn, carrier) != []
        )
        for op in sorted(spec.transitions):
            fn = cls.methods.get(op)
            if fn is None:
                continue
            if not mutates.get(op, False):
                frm, to = spec.transitions[op]
                findings.append(
                    (
                        cls.module, fn.lineno, 0,
                        f"{cls.name}.{op} declares the '{spec.name}' "
                        f"transition {frm} -> {to} but never mutates the "
                        f"carrier '{carrier}' — the state change it "
                        "promises cannot happen",
                    )
                )
        if spec.store is not None:
            findings.extend(self._check_guarded(binding, mutates))
        if spec.visibility is not None:
            findings.extend(self._check_visibility(binding))
        return findings

    def _transitive_flags(self, cls: ClassInfo, predicate) -> Dict[str, bool]:
        """``method -> bool`` closure of ``predicate`` over same-class
        ``self.<helper>()`` edges."""
        flags: Dict[FnKey, bool] = {
            (cls.module.path, cls.name, name): predicate(fn)
            for name, fn in cls.methods.items()
        }

        def join(caller: FnKey, call: ast.Call, target: FnKey) -> bool:
            if flags[caller] or not flags[target]:
                return False
            if not (
                isinstance(call.func, ast.Attribute)
                and dotted(call.func.value) == "self"
            ):
                return False
            flags[caller] = True
            return True

        call_graph(self.project).solve(join, keys=flags)
        return {key[2]: flag for key, flag in flags.items()}

    def _check_guarded(
        self, binding: BoundProtocol, mutates: Dict[str, bool]
    ) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        store = spec.store or ""
        carrier = spec.carrier or ""
        reads_store = self._transitive_flags(
            cls, lambda fn: _reads_self_attr(fn, store)
        )
        findings: List[RawFinding] = []
        for op in sorted(spec.guarded):
            fn = cls.methods.get(op)
            if fn is None:
                continue
            walker = _GuardWalker(cls, fn, store, carrier, reads_store)
            for lineno, col in walker.run():
                findings.append(
                    (
                        cls.module, lineno, col,
                        f"{cls.name}.{op} mutates the '{spec.name}' "
                        f"carrier '{carrier}' on a path that never "
                        f"checked the store '{store}' — guarded "
                        "operations must verify existence first",
                    )
                )
        return findings

    def _check_visibility(self, binding: BoundProtocol) -> List[RawFinding]:
        cls, spec = binding.cls, binding.spec
        carrier = spec.carrier or ""
        visibility = spec.visibility or ""
        findings: List[RawFinding] = []
        reads_carrier = self._transitive_flags(
            cls, lambda fn: _reads_attr(fn, carrier)
        )
        vis_fn = cls.methods.get(visibility)
        if vis_fn is not None and not reads_carrier.get(visibility, False):
            findings.append(
                (
                    cls.module, vis_fn.lineno, 0,
                    f"{cls.name}.{visibility} is the '{spec.name}' "
                    f"visibility predicate but never consults the "
                    f"carrier '{carrier}' — hidden entries would be "
                    "reported visible",
                )
            )
        consults = self._transitive_flags(
            cls,
            lambda fn: _reads_attr(fn, carrier)
            or _calls_self_method(fn, visibility),
        )
        for op in sorted(spec.reads):
            fn = cls.methods.get(op)
            if fn is None:
                continue
            if not consults.get(op, False):
                findings.append(
                    (
                        cls.module, fn.lineno, 0,
                        f"{cls.name}.{op} serves estimation reads without "
                        f"consulting {visibility}() or the carrier "
                        f"'{carrier}' — a hidden (drop-listed) entry "
                        "could feed an estimate",
                    )
                )
        return findings

    # ------------------------------------------------------------------
    # usage-side checks (walk every function once, bucket by rule)
    # ------------------------------------------------------------------

    def _check_usage(self) -> Dict[str, List[RawFinding]]:
        out: Dict[str, List[RawFinding]] = {}
        for module, cls, fn in self.project.functions.values():
            cls_key = _class_key(cls) if cls is not None else None
            relevant = bool(self._bound_for(cls_key)) or bool(
                self._tracked_attrs.get(cls_key or ("", ""), {})
            )
            if not relevant and not self._mentions_protocol(fn):
                continue
            seed: Dict[str, FrozenSet[str]] = {}
            if cls_key is not None and self._bound_for(cls_key):
                bound = self._bound_for(cls_key)
                if fn.name == "__init__":
                    states = frozenset(
                        binding.initial for binding in bound.values()
                    )
                else:
                    states = frozenset(
                        state
                        for binding in bound.values()
                        for state in binding.spec.states
                    )
                seed["self"] = states
            walker = _ProtocolWalker(self, cls, fn, seed=seed, module=module)
            walker.run()
            for rule_id, finding in walker.findings:
                out.setdefault(rule_id, []).append(finding)
            for rule_id, finding in self._check_drains(module, cls, fn):
                out.setdefault(rule_id, []).append(finding)
        return out

    def _mentions_protocol(self, fn: ast.FunctionDef) -> bool:
        for node in walk_same_scope(fn):
            if isinstance(node, ast.Call):
                if self._ctor_key(node) is not None:
                    return True
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._loose_ops
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # drain obligations (settle what close() returns)
    # ------------------------------------------------------------------

    def _drain_spec(
        self, cls: Optional[ClassInfo], fn: ast.FunctionDef, call: ast.Call
    ) -> Optional[Tuple[BoundProtocol, str]]:
        if not isinstance(call.func, ast.Attribute):
            return None
        receiver = dotted(call.func.value)
        if receiver is None:
            return None
        cls_key = _class_key(cls) if cls is not None else None
        target: Optional[_ClassKey] = None
        if receiver == "self" and cls_key is not None:
            target = cls_key
        elif receiver.startswith("self.") and cls_key is not None:
            target = self._tracked_attrs.get(cls_key, {}).get(receiver)
        else:
            target = self._local_ctor_class(fn, _last_component(receiver))
        for binding in self._bound_for(target).values():
            if call.func.attr in binding.spec.drains:
                return binding, call.func.attr
        return None

    def _local_ctor_class(
        self, fn: ast.FunctionDef, name: str
    ) -> Optional[_ClassKey]:
        for node in walk_same_scope(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Call)
            ):
                return self._ctor_key(node.value)
        return None

    def _check_drains(
        self, module: SourceModule, cls: Optional[ClassInfo], fn: ast.FunctionDef
    ) -> List[Tuple[str, RawFinding]]:
        findings: List[Tuple[str, RawFinding]] = []

        def settled(body: List[ast.stmt], settlers: Tuple[str, ...]) -> bool:
            for stmt in body:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in settlers
                    ):
                        return True
            return False

        def name_consumed(name: str) -> bool:
            for node in walk_same_scope(fn):
                if isinstance(node, ast.For):
                    iter_name = dotted(node.iter)
                    if iter_name == name:
                        return True
                if isinstance(node, ast.Call):
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id == name:
                            return True
            return False

        def flag(call: ast.Call, binding: BoundProtocol, op: str) -> None:
            spec = binding.spec
            findings.append(
                (
                    spec.rule,
                    (
                        module, call.lineno, call.col_offset,
                        f"{spec.name}.{op}() returns the stranded items "
                        "of every close path; this call site must settle "
                        f"them via {' / '.join(spec.drains[op])}() "
                        "instead of dropping them",
                    ),
                )
            )

        for stmt in walk_same_scope(fn):
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ):
                drain = self._drain_spec(cls, fn, stmt.value)
                if drain is not None:
                    flag(stmt.value, *drain)
            elif isinstance(stmt, ast.For) and isinstance(
                stmt.iter, ast.Call
            ):
                drain = self._drain_spec(cls, fn, stmt.iter)
                if drain is not None and not settled(
                    stmt.body, drain[0].spec.drains[drain[1]]
                ):
                    flag(stmt.iter, *drain)
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                drain = self._drain_spec(cls, fn, stmt.value)
                if drain is not None and not name_consumed(
                    stmt.targets[0].id
                ):
                    flag(stmt.value, *drain)
        return findings


# ----------------------------------------------------------------------
# syntactic helpers shared by the obligation checks
# ----------------------------------------------------------------------


def _reads_self_attr(fn: ast.FunctionDef, attr: str) -> bool:
    """Does ``fn`` read ``self.<attr>`` anywhere?"""
    for node in walk_same_scope(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


def _reads_attr(fn: ast.FunctionDef, attr: str) -> bool:
    """Does ``fn`` read ``<anything>.<attr>`` anywhere?  (Flag-style
    carriers live on the stored objects, not on ``self``.)"""
    for node in walk_same_scope(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == attr
        ):
            return True
    return False


def _calls_self_method(fn: ast.FunctionDef, name: str) -> bool:
    for node in walk_same_scope(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and dotted(node.func.value) == "self"
        ):
            return True
    return False


def _mutates_carrier_sites(
    fn: ast.FunctionDef, carrier: str
) -> List[Tuple[int, int]]:
    """Every site in ``fn`` that mutates the carrier: an attribute store
    of ``<carrier>`` on any receiver (flag-style), an in-place container
    call on ``self.<carrier>`` / ``<obj>.<carrier>`` (set-style), a
    subscript store, or a ``del``."""
    sites: List[Tuple[int, int]] = []
    for node in walk_same_scope(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == carrier:
                    sites.append((node.lineno, node.col_offset))
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == carrier
                ):
                    sites.append((node.lineno, node.col_offset))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                inner = target
                if isinstance(inner, ast.Subscript):
                    inner = inner.value
                if isinstance(inner, ast.Attribute) and inner.attr == carrier:
                    sites.append((node.lineno, node.col_offset))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CARRIER_MUTATORS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == carrier
        ):
            sites.append((node.lineno, node.col_offset))
    return sites


# ----------------------------------------------------------------------
# path walkers (clients of the shared repro.analysis.core.PathWalker)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _PathState:
    """One abstract path: receiver states plus the operations seen."""

    items: Tuple[Tuple[str, FrozenSet[str]], ...]
    seen: FrozenSet[Tag]

    @property
    def receivers(self) -> Dict[str, FrozenSet[str]]:
        return dict(self.items)

    def with_receiver(self, receiver: str, states: FrozenSet[str]) -> "_PathState":
        mapping = self.receivers
        mapping[receiver] = states
        return _PathState(tuple(sorted(mapping.items())), self.seen)

    def drop_receiver(self, receiver: str) -> "_PathState":
        mapping = self.receivers
        if receiver not in mapping:
            return self
        del mapping[receiver]
        return _PathState(tuple(sorted(mapping.items())), self.seen)

    def with_seen(self, tag: Tag) -> "_PathState":
        return _PathState(self.items, self.seen | {tag})


class _EventWalker(PathWalker[_PathState]):
    """The shared path walk with the typestate abstraction: each root's
    nodes are applied in evaluation order by :meth:`_event`, and a state
    set past :data:`_MAX_PATH_STATES` merges into one state."""

    def transfer(
        self, root: ast.AST, states: Set[_PathState]
    ) -> Set[_PathState]:
        for node in _calls_in_order(root):
            states = self._event(node, states)
        return states

    def _event(
        self, node: ast.AST, states: Set[_PathState]
    ) -> Set[_PathState]:
        raise NotImplementedError

    def cap(self, states: Set[_PathState]) -> Set[_PathState]:
        if len(states) <= _MAX_PATH_STATES:
            return states
        merged: Dict[str, Set[str]] = {}
        seen: Set[Tag] = set()
        for state in states:
            for receiver, values in state.items:
                merged.setdefault(receiver, set()).update(values)
            seen |= state.seen
        return {
            _PathState(
                tuple(
                    sorted(
                        (receiver, frozenset(values))
                        for receiver, values in merged.items()
                    )
                ),
                frozenset(seen),
            )
        }


def _calls_in_order(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, roughly evaluation-ordered walk of one statement's
    expressions, skipping nested function/class scopes."""
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return
    for child in ast.iter_child_nodes(node):
        yield from _calls_in_order(child)
    yield node


class _ProtocolWalker(_EventWalker):
    """Tracks per-receiver protocol states plus seen operations."""

    def __init__(
        self,
        analysis: TypestateAnalysis,
        cls: Optional[ClassInfo],
        fn: ast.FunctionDef,
        seed: Dict[str, FrozenSet[str]],
        module: Optional[SourceModule] = None,
    ) -> None:
        super().__init__(fn)
        self.analysis = analysis
        self.cls = cls
        self.module = module if module is not None else (
            cls.module if cls is not None else None
        )
        self.cls_key = _class_key(cls) if cls is not None else None
        self.seed = seed
        self.findings: List[Tuple[str, RawFinding]] = []
        self._flagged: Set[Tuple[int, int, str]] = set()
        self.tracked = (
            dict(analysis._tracked_attrs.get(self.cls_key, {}))
            if self.cls_key is not None
            else {}
        )

    def initial_states(self) -> Set[_PathState]:
        return {
            _PathState(tuple(sorted(self.seed.items())), frozenset())
        }

    # -- event plumbing -------------------------------------------------

    def _event(
        self, node: ast.AST, states: Set[_PathState]
    ) -> Set[_PathState]:
        if isinstance(node, ast.Call):
            return self._call_event(node, states)
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            return self._bind_event(
                node.targets[0].id, node.value, states
            )
        return states

    def _bind_event(
        self, name: str, value: ast.expr, states: Set[_PathState]
    ) -> Set[_PathState]:
        ctor = (
            self.analysis._ctor_key(value)
            if isinstance(value, ast.Call)
            else None
        )
        if ctor is not None:
            self.tracked[name] = ctor
            post = frozenset(
                binding.spec.final or binding.initial
                for binding in self.analysis._bound_for(ctor).values()
            )
            return {state.with_receiver(name, post) for state in states}
        if name in self.tracked:
            del self.tracked[name]
            return {state.drop_receiver(name) for state in states}
        return states

    # -- operation application ------------------------------------------

    def _call_event(
        self, call: ast.Call, states: Set[_PathState]
    ) -> Set[_PathState]:
        if not isinstance(call.func, ast.Attribute):
            return states
        op = call.func.attr
        receiver = dotted(call.func.value)
        target: Optional[_ClassKey] = None
        if receiver == "self" and self.cls_key is not None:
            if self.analysis._bound_for(self.cls_key) and any(
                op in binding.spec.ops()
                for binding in self.analysis._bound_for(
                    self.cls_key
                ).values()
            ):
                target = self.cls_key
                receiver_key = "self"
            elif self.cls is not None and op in self.cls.methods:
                return self._apply_summary(call, states)
            else:
                return self._loose_event(call, op, receiver, states)
        elif receiver is not None and receiver in self.tracked:
            target = self.tracked[receiver]
            receiver_key = receiver
        else:
            return self._loose_event(call, op, receiver, states)
        if target is None:
            return states
        out = states
        for proto, binding in sorted(
            self.analysis._bound_for(target).items()
        ):
            if op not in binding.spec.ops():
                continue
            out = {
                self._apply_op(call, receiver_key, binding, op, state)
                for state in out
            }
        return out

    def _loose_event(
        self,
        call: ast.Call,
        op: str,
        receiver: Optional[str],
        states: Set[_PathState],
    ) -> Set[_PathState]:
        if op not in self.analysis._loose_ops:
            return states
        if receiver is not None and is_lockish_name(
            _last_component(receiver)
        ):
            return states
        out = set()
        for state in states:
            for proto in self.analysis._loose_ops[op]:
                tag = (proto, op)
                self._inversion_check(call, tag, state)
                state = state.with_seen(tag)
            out.add(state)
        return out

    def _apply_op(
        self,
        call: ast.Call,
        receiver: str,
        binding: BoundProtocol,
        op: str,
        state: _PathState,
    ) -> _PathState:
        spec = binding.spec
        current = state.receivers.get(receiver)
        if current is None:
            current = frozenset(spec.states)  # unknown: any state possible
        if current and all(binding.disallowed(s, op) for s in current):
            self._flag(
                spec.rule,
                call.lineno,
                call.col_offset,
                f"{spec.name}.{op}() called with the object in state "
                f"{'/'.join(sorted(current))} — allowed only in "
                f"{'/'.join(sorted(s for s in spec.states if not binding.disallowed(s, op)))}",
            )
        if op in spec.transitions and current:
            frm, to = spec.transitions[op]
            current = frozenset(to if s == frm else s for s in current)
            state = state.with_receiver(receiver, current)
        tag = (spec.name, op)
        self._inversion_check(call, tag, state)
        return state.with_seen(tag)

    def _apply_summary(
        self, call: ast.Call, states: Set[_PathState]
    ) -> Set[_PathState]:
        assert self.cls is not None and self.module is not None
        if not isinstance(call.func, ast.Attribute):
            return states
        summary = self.analysis.summary_for(
            self.cls, call.func.attr, self.module
        )
        if not summary:
            return states
        out = set()
        for state in states:
            for receiver in sorted(summary):
                for tag in sorted(summary[receiver]):
                    proto, op = tag
                    if receiver == "":
                        self._inversion_check(call, tag, state)
                        state = state.with_seen(tag)
                        continue
                    binding = self._binding_of(receiver, proto)
                    if binding is None:
                        continue
                    current = state.receivers.get(receiver)
                    if current is None:
                        current = frozenset(binding.spec.states)
                    if op in binding.spec.transitions and current:
                        frm, to = binding.spec.transitions[op]
                        current = frozenset(
                            to if s == frm else s for s in current
                        )
                        state = state.with_receiver(receiver, current)
                    self._inversion_check(call, tag, state)
                    state = state.with_seen(tag)
            out.add(state)
        return self.cap(out)

    def _binding_of(
        self, receiver: str, proto: str
    ) -> Optional[BoundProtocol]:
        if receiver == "self":
            return self.analysis._bound_for(self.cls_key).get(proto)
        target = self.tracked.get(receiver)
        return self.analysis._bound_for(target).get(proto)

    def _inversion_check(
        self, call: ast.Call, tag: Tag, state: _PathState
    ) -> None:
        """Flag a foreign op arriving after the op that requires it
        *before* (e.g. a rate-limit acquire after the enqueue)."""
        for bound in self.analysis.bindings.values():
            for binding in bound.values():
                for op, foreign in binding.spec.requires_before.items():
                    proto_name, _, foreign_op = foreign.partition(":")
                    if tag != (proto_name, foreign_op):
                        continue
                    if (binding.spec.name, op) in state.seen:
                        self._flag(
                            binding.spec.rule,
                            call.lineno,
                            call.col_offset,
                            f"{proto_name}.{foreign_op}() happens after "
                            f"{binding.spec.name}.{op}() on this path — "
                            f"'{foreign}' must be consumed before the "
                            f"{op}",
                        )

    def _flag(self, rule_id: str, lineno: int, col: int, message: str) -> None:
        key = (lineno, col, message)
        if key in self._flagged or self.module is None:
            return
        self._flagged.add(key)
        self.findings.append((rule_id, (self.module, lineno, col, message)))


class _GuardWalker(_EventWalker):
    """Per-path check: the store must be read before the carrier is
    mutated (existence guard before the state flip)."""

    def __init__(
        self,
        cls: ClassInfo,
        fn: ast.FunctionDef,
        store: str,
        carrier: str,
        reads_store: Dict[str, bool],
    ) -> None:
        super().__init__(fn)
        self.cls = cls
        self.store = store
        self.carrier = carrier
        self.reads_store = reads_store
        self.violations: List[Tuple[int, int]] = []
        self._flagged: Set[Tuple[int, int]] = set()
        self._mutation_nodes = {
            (lineno, col)
            for lineno, col in _mutates_carrier_sites(fn, carrier)
        }

    def run(self) -> List[Tuple[int, int]]:  # type: ignore[override]
        super().run()
        return self.violations

    def initial_states(self) -> Set[_PathState]:
        return {_PathState((("guard", frozenset()),), frozenset())}

    def _event(
        self, node: ast.AST, states: Set[_PathState]
    ) -> Set[_PathState]:
        checked = _PathState((("guard", frozenset(["checked"])),), frozenset())
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == self.store
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return {checked}
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and dotted(node.func.value) == "self"
            and self.reads_store.get(node.func.attr, False)
        ):
            return {checked}
        site = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if site in self._mutation_nodes and self._is_mutation(node):
            for state in states:
                if "checked" not in state.receivers.get("guard", frozenset()):
                    if site not in self._flagged:
                        self._flagged.add(site)
                        self.violations.append(site)
        return states

    def _is_mutation(self, node: ast.AST) -> bool:
        return isinstance(
            node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete, ast.Call)
        )


def typestate_analysis(project: Project) -> TypestateAnalysis:
    """The shared per-project :class:`TypestateAnalysis` (same caching
    idiom as :func:`repro.analysis.effects.effect_analysis`)."""
    return project.shared(TypestateAnalysis)

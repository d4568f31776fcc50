"""FP001: static footprint soundness for base objects.

The partial-order reduction (:mod:`repro.engine.dpor`) commutes steps
whose declared footprints do not conflict.  The declaration lives in
:meth:`repro.base_objects.base.BaseObject.footprint`; the truth lives in
``step``.  A primitive that *changes* the state while its footprint can
declare mode ``"read"``, or that touches cells outside the declared
key, makes DPOR prune reachable interleavings — wrong verdicts under
``reduction=dpor``, with nothing crashing.

This module walks the AST of every ``BaseObject`` subclass:

* ``methods()`` is read as a literal tuple — the method universe;
* ``footprint()`` is *symbolically evaluated* once per method name
  (branches on ``method == "..."`` resolve concretely; unresolvable
  tests fork and union), yielding the set of ``(mode, key)`` pairs the
  declaration can return, where a key is ``whole``, ``arg:i`` (derived
  from ``args[i]``, possibly through ``freeze``/checker wrappers), or
  unresolvable;
* each ``step`` branch is scanned for what it does with its ``state``
  parameter: a branch that returns anything other than ``state`` as the
  new state writes it — the cells it stores into a copy of the state's
  container (``cells = list(state[1]); cells[args[0]] = ...``), or else
  the whole state; subscripts and ``.get`` calls on the state read the
  keyed cell, and any other use of it reads the whole state.

FP001 fires when a branch writes the state but the declaration can say
``read``, when an access is not covered by a declared ``arg:i`` cell,
when a branch mutates the state it was given (``step`` is pure), or when
the declaration is not statically analyzable at all (keeping footprints
simple is part of the contract).

:func:`static_footprint_map` exports the per-class per-method
``{"mode", "cell"}`` map; :mod:`repro.lint.dynamic` byte-compares it
(canonical JSON) against footprints recorded by a live
:class:`~repro.sim.runtime.Runtime`.
"""

from __future__ import annotations

import ast

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import Diagnostic

#: Attribute-call names treated as mutations of the receiver.
MUTATORS = {
    "append", "add", "clear", "pop", "popitem", "update", "extend",
    "insert", "remove", "discard", "setdefault", "sort", "reverse",
}

#: Key kinds: ``"whole"``, ``"arg:<i>"``, ``"other"`` (unresolvable).
WHOLE = "whole"
OTHER = "other"


@dataclass(frozen=True)
class Access:
    """One touch of the state inside a ``step`` branch."""

    kind: str  # "read" | "write" | "mutate"
    key: str  # WHOLE | "arg:i" | OTHER
    line: int
    col: int


@dataclass
class ClassAnalysis:
    """Everything FP001 derives about one BaseObject subclass."""

    name: str
    line: int
    col: int
    methods: Tuple[str, ...]
    #: method -> possible (mode, key) pairs; mode may be "?" when the
    #: declaration could not be evaluated.
    footprints: Dict[str, Set[Tuple[str, str]]]
    #: method -> state accesses of its step branch (plus shared preamble).
    accesses: Dict[str, List[Access]]

    def footprint_row(self, method: str) -> Dict[str, str]:
        """The exported ``{"mode", "cell"}`` row for one method."""
        pairs = self.footprints.get(method, {("write", WHOLE)})
        modes = sorted({mode for mode, _ in pairs})
        keyed = any(key.startswith("arg:") for _, key in pairs)
        return {"mode": "|".join(modes), "cell": "keyed" if keyed else WHOLE}


# ---------------------------------------------------------------------------
# symbolic evaluation of footprint()
# ---------------------------------------------------------------------------

#: Abstract values: ("str", s) | ("none",) | ("key", kind) | ("args",)
#: | ("other",)
_Abstract = Tuple


def _eval_key(values: Set[_Abstract]) -> Set[str]:
    keys: Set[str] = set()
    for value in values:
        if value[0] == "none":
            keys.add(WHOLE)
        elif value[0] == "key":
            keys.add(value[1])
        else:
            keys.add(OTHER)
    return keys


def _arg_key(node: ast.expr) -> Optional[str]:
    """``args[i]`` (possibly wrapped in a single-argument call such as
    ``freeze(...)`` or ``self._check_index(...)``) -> ``"arg:i"``."""
    while isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, int)
    ):
        return f"arg:{node.slice.value}"
    return None


class _FootprintEval:
    """Evaluate one footprint() body with ``method`` fixed."""

    def __init__(self, method: str):
        self.method = method
        self.env: Dict[str, Set[_Abstract]] = {}
        self.returns: Set[Tuple[str, str]] = set()
        self.unresolved = False

    def eval_expr(self, node: ast.expr) -> Set[_Abstract]:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return {("none",)}
            if isinstance(node.value, str):
                return {("str", node.value)}
            return {("other",)}
        if isinstance(node, ast.Name):
            if node.id == "method":
                return {("str", self.method)}
            if node.id == "args":
                return {("args",)}
            if node.id in self.env:
                return self.env[node.id]
            return {("other",)}
        arg = _arg_key(node)
        if arg is not None:
            return {("key", arg)}
        if isinstance(node, ast.IfExp):
            truth = self.eval_test(node.test)
            out: Set[_Abstract] = set()
            if True in truth:
                out |= self.eval_expr(node.body)
            if False in truth:
                out |= self.eval_expr(node.orelse)
            return out
        return {("other",)}

    def eval_test(self, node: ast.expr) -> Set[bool]:
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left = self.eval_expr(node.left)
            right = self.eval_expr(node.comparators[0])
            op = node.ops[0]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                if len(left) == 1 and len(right) == 1:
                    (lv,), (rv,) = left, right
                    if lv[0] == "str" and rv[0] == "str":
                        equal = lv[1] == rv[1]
                        return {equal if isinstance(op, ast.Eq) else not equal}
            if isinstance(op, (ast.In, ast.NotIn)):
                container = node.comparators[0]
                if (
                    len(left) == 1
                    and next(iter(left))[0] == "str"
                    and isinstance(container, (ast.Tuple, ast.List, ast.Set))
                    and all(
                        isinstance(e, ast.Constant) for e in container.elts
                    )
                ):
                    member = next(iter(left))[1] in {
                        e.value for e in container.elts  # type: ignore[union-attr]
                    }
                    return {member if isinstance(op, ast.In) else not member}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return {not value for value in self.eval_test(node.operand)}
        return {True, False}

    def exec_stmts(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) == 1 and isinstance(
                    stmt.targets[0], ast.Name
                ):
                    self.env[stmt.targets[0].id] = self.eval_expr(stmt.value)
                continue
            if isinstance(stmt, ast.Return):
                self._record_return(stmt)
                return
            if isinstance(stmt, ast.If):
                truth = self.eval_test(stmt.test)
                if truth == {True}:
                    self.exec_stmts(stmt.body)
                    if self._block_returns(stmt.body):
                        return
                elif truth == {False}:
                    self.exec_stmts(stmt.orelse)
                else:
                    self.exec_stmts(stmt.body)
                    self.exec_stmts(stmt.orelse)
                    if self._block_returns(stmt.body) and self._block_returns(
                        stmt.orelse
                    ):
                        return
                continue
            if isinstance(stmt, (ast.Raise, ast.Pass, ast.Expr)):
                continue
            self.unresolved = True

    def _block_returns(self, stmts: Sequence[ast.stmt]) -> bool:
        return bool(stmts) and isinstance(stmts[-1], (ast.Return, ast.Raise))

    def _record_return(self, stmt: ast.Return) -> None:
        value = stmt.value
        if not isinstance(value, ast.Tuple) or len(value.elts) != 2:
            self.unresolved = True
            return
        modes = self.eval_expr(value.elts[0])
        keys = _eval_key(self.eval_expr(value.elts[1]))
        for mode_value in modes:
            mode = mode_value[1] if mode_value[0] == "str" else "?"
            if mode not in ("read", "write"):
                mode = "?"
            for key in keys:
                self.returns.add((mode, key))


def _possible_footprints(
    funcdef: ast.FunctionDef, method: str
) -> Tuple[Set[Tuple[str, str]], bool]:
    """All ``(mode, key)`` pairs footprint() can return for ``method``."""
    evaluator = _FootprintEval(method)
    evaluator.exec_stmts(funcdef.body)
    if not evaluator.returns:
        evaluator.unresolved = True
    return evaluator.returns, evaluator.unresolved


# ---------------------------------------------------------------------------
# step() access collection
# ---------------------------------------------------------------------------

#: Calls that copy a container: ``cells = list(state[1])`` binds a
#: fresh copy whose keyed stores rebuild those cells of the state.
COPIERS = {"list", "dict"}


class _AccessCollector:
    """Collect the state accesses of one ``step`` branch.

    ``state`` (the step's state parameter), its constant-index items and
    its attributes are *state paths*; so are locals bound to one.  Using
    a state path as a value reads the whole state, subscripting it or
    calling ``.get`` on it reads the keyed cell.  A local bound to a copy
    of a state path is a *copy*: a keyed store into it rebuilds that
    cell.  A return whose new state is not ``state`` itself rebuilds the
    state: the cells its copies were stored at, or else the whole state.
    """

    def __init__(self, state_name: str):
        self.paths: Set[str] = {state_name}
        self.state_name = state_name
        self.copies: Set[str] = set()
        self.env: Dict[str, str] = {}  # local name -> "arg:i"
        self.accesses: List[Access] = []
        self.stores = 0

    def _key(self, node: ast.expr) -> str:
        arg = _arg_key(node)
        if arg is not None:
            return arg
        if isinstance(node, ast.Name) and node.id in self.env:
            return self.env[node.id]
        return OTHER

    def _is_path(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.paths
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            return self._is_path(node.value)
        if isinstance(node, ast.Attribute):
            return self._is_path(node.value)
        return False

    def _is_copy(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in COPIERS
            and len(node.args) == 1
            and self._is_path(node.args[0])
        )

    def _built_from_copies(self, node: ast.expr) -> bool:
        """Whether a new state holds nothing but constants and copies,
        through tuples, ``tuple(...)`` and state-class constructors: then
        the cells stored into the copies are all it rebuilt."""
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.copies
        if isinstance(node, ast.Tuple):
            return all(self._built_from_copies(e) for e in node.elts)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and (node.func.id == "tuple" or node.func.id[:1].isupper())
            and not node.keywords
        ):
            return all(self._built_from_copies(a) for a in node.args)
        return False

    def record(self, kind: str, key: str, node: ast.AST) -> None:
        self.accesses.append(Access(kind, key, node.lineno, node.col_offset))

    def collect(self, stmts: Sequence[ast.stmt]) -> List[Access]:
        for stmt in stmts:
            self.visit_stmt(stmt)
        return self.accesses

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._store(stmt.target)
            self.visit(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            self._return(stmt)
            return
        if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self.visit_stmt(child)
                elif isinstance(child, ast.expr):
                    self.visit(child)
            return
        self.visit(stmt)

    def _assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            if self._is_path(value):
                self.paths.add(name)
                return
            if self._is_copy(value):
                self.copies.add(name)
                return
            key = self._key(value)
            if key != OTHER:
                self.env[name] = key
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], (ast.Tuple, ast.List))
            and isinstance(value, ast.Name)
            and value.id == "args"
        ):
            # ``expected, new = args``: later uses resolve to arg:i.
            for index, element in enumerate(stmt.targets[0].elts):
                if isinstance(element, ast.Name):
                    self.env[element.id] = f"arg:{index}"
        for target in stmt.targets:
            self._store(target)
        self.visit(value)

    def _store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and base.id in self.copies:
                self.record("write", self._key(target.slice), target)
                self.stores += 1
            elif self._is_path(base):
                self.record("mutate", self._key(target.slice), target)
            self.visit(target.slice)
            return
        if isinstance(target, ast.Attribute) and self._is_path(target.value):
            self.record("mutate", WHOLE, target)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element)
        # Plain names are locals: nothing shared is touched.

    def _return(self, stmt: ast.Return) -> None:
        value = stmt.value
        if isinstance(value, ast.Tuple) and len(value.elts) == 2:
            result, new_state = value.elts
            self.visit(result)
            if isinstance(new_state, ast.Name) and new_state.id == self.state_name:
                return
            self.visit(new_state)
            if not self.stores or not self._built_from_copies(new_state):
                self.record("write", WHOLE, new_state)
            return
        if value is not None and _is_reject(value):
            return
        # Not a (result, state) pair: assume the whole state is rebuilt.
        if value is not None:
            self.visit(value)
        self.record("write", WHOLE, stmt)

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.expr) and self._is_path(node):
            self.record("read", WHOLE, node)
            return
        if isinstance(node, ast.Name) and node.id in self.copies:
            return  # the rebuilt container, not a read of the state
        if isinstance(node, ast.Subscript) and (
            self._is_path(node.value)
            or (isinstance(node.value, ast.Name) and node.value.id in self.copies)
        ):
            self.record("read", self._key(node.slice), node)
            self.visit(node.slice)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and self._is_path(node.func.value)
        ):
            method = node.func.attr
            if method in MUTATORS:
                self.record("mutate", WHOLE, node)
            elif method == "get" and node.args:
                self.record("read", self._key(node.args[0]), node)
            else:
                self.record("read", WHOLE, node)
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)
            return
        for child in ast.iter_child_nodes(node):
            self.visit(child)


def _is_reject(node: ast.expr) -> bool:
    """``self._reject(method)``: raises, returns nothing."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_reject"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    )


def _step_branches(
    funcdef: ast.FunctionDef,
) -> Tuple[Dict[str, List[ast.stmt]], List[ast.stmt]]:
    """Split step() into per-method branches plus shared statements."""
    branches: Dict[str, List[ast.stmt]] = {}
    common: List[ast.stmt] = []

    def method_of(test: ast.expr) -> Optional[str]:
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.left, ast.Name)
            and test.left.id == "method"
            and isinstance(test.comparators[0], ast.Constant)
            and isinstance(test.comparators[0].value, str)
        ):
            return test.comparators[0].value
        return None

    def walk(stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                method = method_of(stmt.test)
                if method is not None:
                    branches.setdefault(method, []).extend(stmt.body)
                    walk(stmt.orelse)
                    continue
            if isinstance(stmt, ast.Raise):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is not None and _is_reject(stmt.value)
            ):
                continue
            common.append(stmt)

    walk(funcdef.body)
    return branches, common


def _state_parameter(funcdef: ast.FunctionDef) -> str:
    """The name of step()'s state parameter (after ``self``)."""
    parameters = funcdef.args.args
    return parameters[1].arg if len(parameters) > 1 else "state"


# ---------------------------------------------------------------------------
# class discovery and the rule
# ---------------------------------------------------------------------------


def _base_object_classes(tree: ast.Module) -> List[ast.ClassDef]:
    """Classes whose base chain reaches ``BaseObject``."""
    classes = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    known: Set[str] = {"BaseObject"}
    changed = True
    while changed:
        changed = False
        for name, node in classes.items():
            if name in known:
                continue
            for base in node.bases:
                base_name = (
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else None
                )
                if base_name in known:
                    known.add(name)
                    changed = True
                    break
    return [
        classes[name]
        for name in classes
        if name in known and name != "BaseObject"
    ]


def _literal_methods(classdef: ast.ClassDef) -> Tuple[str, ...]:
    for node in classdef.body:
        if isinstance(node, ast.FunctionDef) and node.name == "methods":
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Return) and isinstance(
                    stmt.value, (ast.Tuple, ast.List)
                ):
                    names = []
                    for element in stmt.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                    return tuple(names)
    return ()


def _local_base_chain(
    classdef: ast.ClassDef, module_classes: Dict[str, ast.ClassDef]
) -> List[ast.ClassDef]:
    """``classdef`` followed by its same-module ancestors, nearest first."""
    chain = [classdef]
    seen = {classdef.name}
    frontier = [classdef]
    while frontier:
        current = frontier.pop(0)
        for base in current.bases:
            base_name = base.id if isinstance(base, ast.Name) else None
            parent = module_classes.get(base_name) if base_name else None
            if parent is not None and parent.name not in seen:
                seen.add(parent.name)
                chain.append(parent)
                frontier.append(parent)
    return chain


def analyze_class(
    classdef: ast.ClassDef,
    module_classes: Optional[Dict[str, ast.ClassDef]] = None,
) -> ClassAnalysis:
    """Derive the full FP001 view of one BaseObject subclass.

    ``module_classes`` (name -> classdef for the whole module) lets the
    analysis resolve same-module inheritance: a subclass overriding only
    ``footprint()`` is analyzed against its parent's ``methods()`` and
    ``step()``.  Cross-module inheritance is not resolved — base
    objects subclass :class:`~repro.base_objects.base.BaseObject`
    directly, and missing definitions fall back to the conservative
    defaults.
    """
    chain = _local_base_chain(classdef, module_classes or {})
    functions: Dict[str, ast.FunctionDef] = {}
    for ancestor in reversed(chain):  # nearest override wins
        for node in ancestor.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
    methods: Tuple[str, ...] = ()
    for ancestor in chain:
        methods = _literal_methods(ancestor)
        if methods:
            break
    footprint_def = functions.get("footprint")
    step_def = functions.get("step")

    branches: Dict[str, List[ast.stmt]] = {}
    common: List[ast.stmt] = []
    if step_def is not None:
        branches, common = _step_branches(step_def)

    universe = tuple(dict.fromkeys(list(methods) + sorted(branches)))

    footprints: Dict[str, Set[Tuple[str, str]]] = {}
    for method in universe:
        if footprint_def is None:
            footprints[method] = {("write", WHOLE)}
        else:
            returns, unresolved = _possible_footprints(footprint_def, method)
            if unresolved:
                returns = set(returns) | {("?", OTHER)}
            footprints[method] = returns

    accesses: Dict[str, List[Access]] = {}
    for method in universe:
        if step_def is None:
            accesses[method] = []
            continue
        collector = _AccessCollector(_state_parameter(step_def))
        accesses[method] = collector.collect(common + branches.get(method, []))
    return ClassAnalysis(
        name=classdef.name,
        line=classdef.lineno,
        col=classdef.col_offset,
        methods=universe,
        footprints=footprints,
        accesses=accesses,
    )


_ACCESS_VERBS = {"read": "reads", "write": "rebuilds", "mutate": "mutates"}


def check_footprints(
    tree: ast.Module, relpath: str, external: bool = False
) -> List[Diagnostic]:
    """Run FP001 over one module."""
    diagnostics: List[Diagnostic] = []
    module_classes = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    for classdef in _base_object_classes(tree):
        analysis = analyze_class(classdef, module_classes)
        for method in analysis.methods:
            pairs = analysis.footprints[method]
            accesses = analysis.accesses[method]
            writes = [a for a in accesses if a.kind != "read"]
            for access in accesses:
                if access.kind == "mutate":
                    diagnostics.append(
                        Diagnostic(
                            "FP001", relpath, access.line, access.col,
                            f"{analysis.name}.step() branch for {method!r} "
                            "mutates the state it was given; step() must "
                            "return a new state and leave its input as it is",
                        )
                    )
            for mode, key in sorted(pairs):
                if mode == "?":
                    diagnostics.append(
                        Diagnostic(
                            "FP001", relpath, analysis.line, analysis.col,
                            f"{analysis.name}.footprint() is not statically "
                            f"analyzable for method {method!r}; keep "
                            "footprint declarations symbolically simple",
                        )
                    )
                    continue
                if writes and mode == "read":
                    worst = writes[0]
                    diagnostics.append(
                        Diagnostic(
                            "FP001", relpath, worst.line, worst.col,
                            f"{analysis.name}.step() branch for {method!r} "
                            "returns a new state but footprint() can "
                            "declare mode 'read' — DPOR would commute a "
                            "mutation (unsound reduction)",
                        )
                    )
                if key == OTHER:
                    diagnostics.append(
                        Diagnostic(
                            "FP001", relpath, analysis.line, analysis.col,
                            f"{analysis.name}.footprint() key for "
                            f"{method!r} is not statically resolvable "
                            "(expected None or args[i])",
                        )
                    )
                    continue
                if key.startswith("arg:"):
                    for access in accesses:
                        if access.key != key:
                            touched = (
                                "the whole state"
                                if access.key == WHOLE
                                else f"cell {access.key}"
                            )
                            diagnostics.append(
                                Diagnostic(
                                    "FP001", relpath, access.line, access.col,
                                    f"{analysis.name}.step() branch for "
                                    f"{method!r} {_ACCESS_VERBS[access.kind]} "
                                    f"{touched} outside the declared cell "
                                    f"{key} — footprint under-approximates "
                                    "the touched set",
                                )
                            )
    return diagnostics


def static_footprint_map(
    sources: Dict[str, str]
) -> Dict[str, Dict[str, Dict[str, str]]]:
    """The per-class per-method ``{"mode", "cell"}`` map from source text.

    ``sources`` maps a label (path) to Python source; classes across all
    sources are merged (duplicate class names keep the last parse, which
    never happens in the package itself).
    """
    result: Dict[str, Dict[str, Dict[str, str]]] = {}
    for label, source in sources.items():
        tree = ast.parse(source, filename=label)
        module_classes = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        for classdef in _base_object_classes(tree):
            analysis = analyze_class(classdef, module_classes)
            result[analysis.name] = {
                method: analysis.footprint_row(method)
                for method in analysis.methods
            }
    return result

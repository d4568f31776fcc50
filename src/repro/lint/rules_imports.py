"""Unused-import rule (IM001).

A module-level import that the module never reads misstates what the
module depends on: a reader looks for a use that is not there, and the
import keeps a dependency (and its load time) alive for nothing.  IM001
flags every name a module-level ``import`` or ``from ... import`` binds
and no code of the module reads.

A name counts as read when the module loads it anywhere (including
annotations, quoted forward references among them) or lists it in
``__all__``.  Package ``__init__`` modules are skipped: their imports
are the package's exports.  A deliberate re-export elsewhere carries
``# noqa: F401`` on the imported name's line, which the suppression
index honours for IM001 (:mod:`repro.lint.diagnostics`).
"""

from __future__ import annotations

import ast

from typing import Iterator, List, Set, Tuple

from repro.lint.diagnostics import Diagnostic


def _module_imports(body: List[ast.stmt]) -> Iterator[Tuple[str, ast.alias]]:
    """``(bound name, alias)`` of every import in the module body,
    including those inside module-level ``if``/``try`` blocks."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield (alias.asname or alias.name.split(".")[0]), alias
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), alias
        elif isinstance(stmt, (ast.If, ast.Try)):
            for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(stmt, "handlers", []):
                yield from _module_imports(handler.body)


def _annotation_names(node: ast.AST, names: Set[str]) -> None:
    """Add the names a (possibly quoted) annotation refers to."""
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                parsed = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            _annotation_names(parsed, names)
        elif isinstance(part, ast.Name):
            names.add(part.id)


def _read_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _annotation_names(node.annotation, names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                _annotation_names(node.returns, names)
        elif isinstance(node, ast.AnnAssign):
            _annotation_names(node.annotation, names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for part in ast.walk(node.value):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names.add(part.value)
    return names


def check_imports(
    tree: ast.Module, relpath: str, external: bool = False
) -> List[Diagnostic]:
    """Run IM001 over one module."""
    if relpath.endswith("__init__.py"):
        return []
    read = _read_names(tree)
    diagnostics: List[Diagnostic] = []
    for name, alias in _module_imports(tree.body):
        if name not in read:
            diagnostics.append(
                Diagnostic(
                    "IM001", relpath, alias.lineno, alias.col_offset,
                    f"{name!r} is imported but never used; delete the "
                    "import, or mark a deliberate re-export with "
                    "'# noqa: F401'",
                )
            )
    return diagnostics

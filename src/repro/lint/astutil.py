"""Shared AST plumbing for the lint rules.

Every rule needs the same three things: a parent map (ast has none), an
import-alias table that resolves local names back to the dotted module
attribute they were imported as, and a resolver turning an expression
like ``dt.datetime.now`` into the dotted name ``datetime.datetime.now``.
"""

from __future__ import annotations

import ast

from typing import Dict, Optional


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent for every node in the tree."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, from the module's import statements.

    ``import time`` maps ``time -> time``; ``import datetime as dt``
    maps ``dt -> datetime``; ``from repro.obs.recorder import active as
    _obs_active`` maps ``_obs_active -> repro.obs.recorder.active``.
    Star imports are ignored (nothing in this repository uses them).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.partition(".")[0]] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``Name``/``Attribute`` chains to a dotted origin name.

    ``dt.datetime.now`` with ``dt -> datetime`` resolves to
    ``datetime.datetime.now``; unresolvable shapes (calls, subscripts)
    return ``None``.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def call_keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` in a call, or ``None``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None

"""Package re-exports resolved on first access (PEP 562).

A package whose ``__init__`` re-exports names from its submodules
lists them in an ``_EXPORTS`` mapping (submodule -> names) and
forwards its module-level ``__getattr__`` here::

    _EXPORTS = {"kernel": ("Implementation", "Op")}
    __all__ = [name for names in _EXPORTS.values() for name in names]

    def __getattr__(name: str) -> Any:
        return lazy_export(__name__, _EXPORTS, name)

Importing the package then loads none of its submodules; the first
``from package import Op`` imports ``package.kernel`` and binds ``Op``
on the package, so later lookups never reach ``__getattr__``.  A
re-exported name must not equal a submodule's name: importing the
submodule would rebind the package attribute to the module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Mapping, Sequence


def lazy_export(
    package: str, exports: Mapping[str, Sequence[str]], name: str
) -> Any:
    """The object ``name`` re-exported by ``package``, bound on the
    package once resolved; ``AttributeError`` for any other name."""
    for module, names in exports.items():
        if name in names:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            setattr(sys.modules[package], name, value)
            return value
    raise AttributeError(f"module {package!r} has no attribute {name!r}")

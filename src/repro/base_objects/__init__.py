"""Atomic base objects (the model's hardware primitives).

``__all__`` is the catalog of base-object classes that the footprint
lint (:mod:`repro.lint.dynamic`) audits.  The names resolve on first
access (:mod:`repro.util.lazy`): importing the package loads none of
its submodules.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

_EXPORTS = {
    "regfile": ("RegisterFile",),
    "base": ("BaseObject", "ObjectPool"),
    "register": ("AtomicRegister", "RegisterArray"),
    "cas": ("CompareAndSwap",),
    "tas": ("TestAndSet",),
    "counter": ("FetchAndIncrement",),
    "snapshot": ("AtomicSnapshot",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)

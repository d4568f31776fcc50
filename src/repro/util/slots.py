"""Mutable records on ``__slots__``, for state built once per step.

A ``__slots__`` class with a plain ``__init__`` has no per-instance
dict: it is smaller than a dataclass instance, costs about as much to
build as a non-frozen one, and raises ``AttributeError`` on a mistyped
attribute.
:class:`SlotsRecord` gives such a class the dataclass's ``repr`` text
and field-wise equality (``__slots__`` order is field order, and
instances stay unhashable, as a non-frozen dataclass with ``eq`` is),
so replacing a per-step dataclass changes no rendered text and no
comparison.
"""

from __future__ import annotations

from typing import Any, Tuple


class SlotsRecord:
    """Base for mutable records whose fields are their ``__slots__``."""

    __slots__: Tuple[str, ...] = ()

    def _values(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        rendered = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({rendered})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

"""Recursive freezing of plain data into hashable fingerprints.

:func:`freeze` converts any composition of dicts, lists, tuples, sets
and hashable leaves into a canonical hashable value such that equal
structures freeze equal.  Kernel fingerprints do not need it — process
memories hold immutable, hashable values by the kernel contract
(:mod:`repro.sim.kernel`); some liveness abstractions and the register
file's fingerprint still use it.

:class:`HashedKey` wraps such a value as a dictionary key whose hash is
computed once: the exploration engine's configuration keys are large
nested tuples that every dict lookup would otherwise re-hash in full.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple


_LEAF_TYPES = frozenset((int, float, str, bool, bytes, type(None)))


def freeze(value: Any) -> Hashable:
    """Return a canonical hashable form of ``value``.

    Dicts become sorted tuples of frozen items, lists and tuples become
    tuples, sets become frozensets.  Leaves must already be hashable.
    """
    kind = type(value)
    if kind in _LEAF_TYPES:
        return value
    if kind is dict:
        return ("dict", tuple(sorted([(k, freeze(v)) for k, v in value.items()])))
    if kind is tuple or kind is list:
        return ("seq", tuple([freeze(v) for v in value]))
    if kind is set or kind is frozenset:
        return ("set", frozenset([freeze(v) for v in value]))
    # Subclasses (namedtuples, OrderedDicts, ...) freeze like their base.
    if isinstance(value, dict):
        return freeze(dict(value))
    if isinstance(value, (list, tuple)):
        return freeze(tuple(value))
    if isinstance(value, (set, frozenset)):
        return freeze(frozenset(value))
    hash(value)  # raise early if a leaf is unhashable
    return value


def unhashable_item(mapping: Dict[Any, Any]) -> Optional[Tuple[Any, Any]]:
    """The first ``(key, value)`` of ``mapping`` whose value is not
    hashable, or ``None``: one hash call when all are, a walk only to
    name the culprit."""
    try:
        hash(tuple(mapping.values()))
        return None
    except TypeError:
        for key, value in mapping.items():
            try:
                hash(value)
            except TypeError:
                return key, value
        return None


class HashedKey:
    """A hashable value that hashes once and compares by exact value.

    A key equals, hashes and reprs exactly as its value, so using a key
    instead of its value — at the top of a fingerprint or nested inside
    one — changes no dedup decision and no rendered text; only the hash
    is cached.  A key pickles as its value and recomputes the hash on
    load (``str`` hashes are salted per interpreter, so a cached hash
    is valid only where it was computed).
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is HashedKey:
            return self._hash == other._hash and self.value == other.value
        return self.value == other

    def __reduce__(self) -> Tuple[Any, Tuple[Hashable]]:
        return (HashedKey, (self.value,))

    def __repr__(self) -> str:
        return repr(self.value)

"""Base objects: the atomic hardware primitives of the model (Section 2).

Implementations of high-level shared objects perform *atomic primitives*
on base objects.  In the simulator each primitive application is one
indivisible step: the kernel calls :meth:`BaseObject.apply` between two
scheduler decisions, so no interleaving can observe a half-applied
primitive — exactly the atomicity granted to base objects by the model.

Every base object exposes:

* ``apply(method, args)`` — execute one primitive and return its result;
* ``snapshot_state()`` — a hashable fingerprint of the current state,
  used by the lasso detector to certify infinite executions;
* ``reset()`` — return to the initial state (fresh runs without
  reallocation);
* ``capture_state()`` / ``restore_state(state)`` — a *restorable* copy
  of the full mutable state, used by the exploration engine
  (:mod:`repro.engine`) to snapshot configurations instead of replaying
  whole schedules.  The default implementation is a shallow copy of
  ``__dict__`` and works for every object whose attributes hold
  immutable, hashable values (a primitive rebinds an attribute, never
  mutates what it holds).  Objects that keep a list or dict and mutate
  it in place must override both: capture an immutable image (a tuple
  of the cells) and rebuild the container on restore.  The default
  capture raises :class:`~repro.util.errors.SimulationError` on an
  unhashable attribute rather than share it between snapshots.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.util.errors import SimulationError
from repro.util.freeze import unhashable_item


class BaseObject(ABC):
    """An atomic base object addressable by name inside a runtime."""

    def __init__(self, name: str):
        self.name = name

    @abstractmethod
    def methods(self) -> Tuple[str, ...]:
        """The primitive method names this object accepts."""

    @abstractmethod
    def apply(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Atomically execute ``method(*args)`` and return its result."""

    @abstractmethod
    def snapshot_state(self) -> Hashable:
        """A hashable fingerprint of the full current state."""

    @abstractmethod
    def reset(self) -> None:
        """Restore the initial state."""

    def footprint(self, method: str, args: Tuple[Any, ...]) -> Tuple[str, Hashable]:
        """Declare what one primitive touches, as ``(mode, key)``.

        ``mode`` is ``"read"`` or ``"write"``; ``key`` names the part of
        the object the primitive touches (``None`` means the whole
        object, which conflicts with every key).  The partial-order
        reduction (:mod:`repro.engine.dpor`) uses these declarations to
        decide when two steps of different processes commute; the
        declaration must be *conservative* — it may over-approximate the
        touched set (costing only pruning power), never under-approximate
        it (which would prune reachable verdict-relevant interleavings).

        The default declares a whole-object write: correct for every
        primitive, independent of nothing on the same object.
        """
        return ("write", None)

    def capture_state(self) -> Any:
        """A restorable copy of the full mutable state.

        The default is a shallow copy of ``__dict__``: attribute values
        are immutable, so the copy shares them.  An attribute that is
        not hashable (a list or dict mutated in place) would alias the
        live object, so it raises :class:`SimulationError` instead;
        such objects override both capture and restore.
        """
        state = dict(self.__dict__)
        culprit = unhashable_item(state)
        if culprit is not None:
            attribute, value = culprit
            raise SimulationError(
                f"base object {self.name!r} ({type(self).__name__}) "
                f"attribute {attribute!r} holds an unhashable "
                f"{type(value).__name__}; the default capture_state shares "
                "attribute values between snapshots, so override "
                "capture_state/restore_state to capture an immutable image "
                "of it"
            )
        return state

    def restore_state(self, state: Any) -> None:
        """Restore state previously returned by :meth:`capture_state`.

        Captured states are never mutated, so one capture may seed any
        number of restores (the engine restores the same snapshot once
        per explored successor) — which is what lets the pool share
        them between snapshots copy-on-write.  The default rebinds the
        captured attribute values, which are immutable.
        """
        self.__dict__.update(state)

    def _reject(self, method: str) -> Any:
        raise SimulationError(
            f"base object {self.name!r} ({type(self).__name__}) has no "
            f"primitive {method!r}; available: {self.methods()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} state={self.snapshot_state()!r}>"


class ObjectPool:
    """The set of base objects available to one run of an implementation.

    The pool owns the objects, routes primitive applications by object
    name, and aggregates their fingerprints into the pool part of the
    configuration keys (:meth:`snapshot_state`).  Each object's part is
    a ``(name, fingerprint)`` pair the pool keeps while the object is
    untouched and interns when it is rebuilt, so the keys a search
    stores share their pool parts instead of copying them.
    """

    def __init__(self, objects: Iterable[BaseObject] = ()):
        self._objects: Dict[str, BaseObject] = {}
        # Copy-on-write bookkeeping for capture(): the last captured (or
        # restored) state dict, never mutated in place, whose entries are
        # reusable while their objects stay clean.  Dirtiness is tracked
        # at the only mutation point the kernel has — apply().  The
        # fingerprint caches are invalidated the same way, which makes
        # snapshot_state() incremental: along an exploration path only
        # the one object a step touched is re-fingerprinted.
        self._baseline: Dict[str, Any] = {}
        self._dirty: set = set()
        #: name -> the ``(name, fingerprint)`` pair of its current state.
        self._pairs: Dict[str, Tuple[str, Hashable]] = {}
        #: Every pair built so far, by value: equal object states reached
        #: on different paths share one pair (and one fingerprint).
        self._interned: Dict[Tuple[str, Hashable], Tuple[str, Hashable]] = {}
        self._state: Optional[Tuple[Tuple[str, Hashable], ...]] = None
        self._sorted_names: List[str] = []
        for obj in objects:
            self.add(obj)

    def add(self, obj: BaseObject) -> None:
        """Register a base object; names must be unique within the pool."""
        if obj.name in self._objects:
            raise SimulationError(f"duplicate base object name {obj.name!r}")
        self._objects[obj.name] = obj
        self._sorted_names = sorted(self._objects)

    def get(self, name: str) -> BaseObject:
        """Look up a base object by name."""
        try:
            return self._objects[name]
        except KeyError:
            raise self._unknown(name) from None

    def _unknown(self, name: str) -> SimulationError:
        return SimulationError(
            f"unknown base object {name!r}; pool has {sorted(self._objects)}"
        )

    def apply(self, name: str, method: str, args: Tuple[Any, ...]) -> Any:
        """Route one atomic primitive application."""
        try:
            obj = self._objects[name]
        except KeyError:
            raise self._unknown(name) from None
        self._dirty.add(name)
        self._pairs.pop(name, None)
        self._state = None
        return obj.apply(method, args)

    def footprint(
        self, name: str, method: str, args: Tuple[Any, ...]
    ) -> Tuple[str, Hashable]:
        """The ``(mode, key)`` footprint one primitive would touch.

        Pure: consults the object's declaration without applying
        anything.  Used by the runtime's footprint recording
        (:mod:`repro.engine.dpor`)."""
        return self.get(name).footprint(method, args)

    def names(self) -> List[str]:
        """Names of all registered objects, sorted."""
        return sorted(self._objects)

    def snapshot_state(self) -> Tuple[Tuple[str, Hashable], ...]:
        """Combined fingerprint of every object in the pool.

        A tuple of ``(name, fingerprint)`` pairs in name order.
        Incremental: an object's fingerprint is recomputed only if it
        was applied to (or the pool restored without a fingerprint seed)
        since the last call, and the combined tuple only after some
        object was.  An untouched object contributes the very pair it
        contributed before, and a recomputed pair equal to one this pool
        built earlier is replaced by that one, so the keys of a search
        share one pair per object state instead of holding one per key.
        """
        state = self._state
        if state is None:
            pairs = self._pairs
            for name in self._sorted_names:
                if name not in pairs:
                    pair = (name, self._objects[name].snapshot_state())
                    pairs[name] = self._interned.setdefault(pair, pair)
            state = tuple([pairs[name] for name in self._sorted_names])
            self._state = state
        return state

    def cached_snapshot_state(self) -> Optional[Tuple[Tuple[str, Hashable], ...]]:
        """:meth:`snapshot_state` if it is already computed for the
        current state, else ``None`` (computing nothing)."""
        return self._state

    def reset(self) -> None:
        """Reset every object in the pool."""
        for obj in self._objects.values():
            obj.reset()
        self._baseline = {}
        self._dirty.clear()
        self._pairs = {}
        self._state = None

    def capture(self) -> Dict[str, Any]:
        """Restorable state of every object, keyed by name.

        Copy-on-write: objects untouched since the previous capture (or
        restore) contribute the *same* state value as before, so
        successive snapshots along an exploration path share everything
        except the one object the step mutated (and a capture with no
        object touched returns the previous dict itself).  Sharing is
        safe because captured states and dicts are never mutated (see
        :meth:`BaseObject.restore_state`).  Mutations that bypass
        :meth:`apply` (e.g. poking an object directly in a test) are
        invisible to the dirty tracking — the kernel never does that.
        """
        baseline = self._baseline
        if len(baseline) == len(self._objects):
            if not self._dirty:
                return baseline
            captured = dict(baseline)
            for name in self._dirty:
                captured[name] = self._objects[name].capture_state()
        else:
            captured = {
                name: obj.capture_state() for name, obj in self._objects.items()
            }
        self._baseline = captured
        self._dirty.clear()
        return captured

    def restore(
        self,
        captured: Dict[str, Any],
        fingerprints: Optional[Tuple[Tuple[str, Hashable], ...]] = None,
    ) -> None:
        """Restore a state previously returned by :meth:`capture`.

        The pool must contain exactly the captured object names — the
        engine restores into a fresh pool built by the same
        implementation's :meth:`~repro.sim.kernel.Implementation.create_pool`
        (or re-restores its scratch pool).  ``fingerprints`` optionally
        seeds the fingerprint caches with the :meth:`snapshot_state`
        recorded when ``captured`` was taken: its pairs become the
        objects' cached pairs and the tuple itself the combined state,
        so the next :meth:`snapshot_state` is incremental too and
        returns the recorded pairs.  Objects that are clean
        and whose last captured or restored state *is* the one being
        restored are skipped — they already hold it.
        """
        if captured.keys() != self._objects.keys():
            raise SimulationError(
                f"snapshot names {sorted(captured)} do not match pool "
                f"{sorted(self._objects)}"
            )
        baseline = self._baseline
        dirty = self._dirty
        for name, state in captured.items():
            if name in dirty or name not in baseline or baseline[name] is not state:
                self._objects[name].restore_state(state)
        self._baseline = captured
        dirty.clear()
        if fingerprints:
            self._pairs = dict(zip(self._sorted_names, fingerprints))
            self._state = fingerprints
        else:
            self._pairs = {}
            self._state = None

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

"""Base objects: the atomic hardware primitives of the model (Section 2).

Implementations of high-level shared objects perform *atomic primitives*
on base objects.  In the simulator each primitive application is one
indivisible step: the kernel applies it between two scheduler
decisions, so no interleaving can observe a half-applied primitive —
exactly the atomicity granted to base objects by the model.

A base object is a *description*, not a container: it names the object
and defines its primitives as a pure function over immutable state
values.  Every base object exposes:

* ``methods()`` — the primitive names it accepts;
* ``initial_state()`` — its state before any primitive, an immutable,
  hashable value;
* ``step(state, method, args)`` — apply one primitive to ``state`` and
  return ``(result, new_state)``.  ``step`` is pure: it never mutates
  ``state``, and a primitive that changes nothing (a read, a failed
  compare-and-swap, a scan) returns the very ``state`` it was given;
* ``footprint(method, args)`` — what the primitive touches, for the
  partial-order reduction.

The state value doubles as the object's part of the configuration
fingerprint, so two states are the same state exactly when they are
equal.  :class:`ObjectPool` holds the current states of one run as a
tuple of ``(name, state)`` pairs: a snapshot of the pool is that tuple,
and restoring one assigns it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.util.errors import SimulationError

#: The pool's state: one ``(name, state)`` pair per object, by name.
PoolState = Tuple[Tuple[str, Hashable], ...]

#: One sorted names tuple per set of object names, shared by every pool
#: holding those names, so a restore checks a snapshot's names by
#: identity (:meth:`ObjectPool.restore`).  An entry is an immutable
#: tuple equal to its key, so sharing one couples no two pools; the
#: table grows with the number of distinct object-name sets only.
_LAYOUTS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class BaseObject(ABC):
    """An atomic base object addressable by name inside a runtime."""

    def __init__(self, name: str):
        self.name = name

    @abstractmethod
    def methods(self) -> Tuple[str, ...]:
        """The primitive method names this object accepts."""

    @abstractmethod
    def initial_state(self) -> Hashable:
        """The object's state before any primitive is applied."""

    @abstractmethod
    def step(
        self, state: Any, method: str, args: Tuple[Any, ...]
    ) -> Tuple[Any, Hashable]:
        """Apply ``method(*args)`` to ``state``: ``(result, new_state)``.

        Pure: ``state`` is never mutated, and a primitive that changes
        nothing returns ``state`` itself as the new state."""

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
        A primitive declared ``read`` must return the state it was given.

        The default declares a whole-object write: correct for every
        primitive, independent of nothing on the same object.
        """
        return ("write", None)

    def _reject(self, method: str) -> Any:
        raise SimulationError(
            f"base object {self.name!r} ({type(self).__name__}) has no "
            f"primitive {method!r}; available: {self.methods()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ObjectPool:
    """The set of base objects available to one run of an implementation.

    The pool owns the object descriptions, routes primitive applications
    by object name, and holds the objects' current states as one tuple
    of ``(name, state)`` pairs in name order.  That tuple is the pool's
    snapshot (:meth:`capture` returns it, :meth:`restore` assigns it)
    and its part of the configuration keys (:meth:`snapshot_state`),
    where equal pairs are interned so that the keys a search stores
    share them instead of copying them.
    """

    def __init__(self, objects: Iterable[BaseObject] = ()):
        """Hold ``objects`` in their initial states; names must be
        unique within the pool."""
        by_name: Dict[str, BaseObject] = {}
        for obj in objects:
            if obj.name in by_name:
                raise SimulationError(f"duplicate base object name {obj.name!r}")
            by_name[obj.name] = obj
        names = tuple(sorted(by_name))
        #: The object names in state order, shared by every pool of the
        #: same names.
        self.layout: Tuple[str, ...] = _LAYOUTS.setdefault(names, names)
        #: name -> (position in the state tuple, object).
        self._slots: Dict[str, Tuple[int, BaseObject]] = {
            name: (index, by_name[name]) for index, name in enumerate(names)
        }
        pairs = []
        for name in names:
            initial = by_name[name].initial_state()
            _check_hashable(by_name[name], initial)
            pairs.append((name, initial))
        self._initial: PoolState = tuple(pairs)
        self._state: PoolState = self._initial
        #: The last tuple :meth:`snapshot_state` returned: all its pairs
        #: are interned.
        self._keyed: Optional[PoolState] = None
        #: Every pair keyed so far, by value: equal object states reached
        #: on different paths share one pair.
        self._interned: Dict[Tuple[str, Hashable], Tuple[str, Hashable]] = {}

    def get(self, name: str) -> BaseObject:
        """Look up a base object by name."""
        try:
            return self._slots[name][1]
        except KeyError:
            raise self._unknown(name) from None

    def state_of(self, name: str) -> Hashable:
        """The current state of one object."""
        try:
            index = self._slots[name][0]
        except KeyError:
            raise self._unknown(name) from None
        return self._state[index][1]

    def _unknown(self, name: str) -> SimulationError:
        return SimulationError(
            f"unknown base object {name!r}; pool has {list(self.layout)}"
        )

    def apply(self, name: str, method: str, args: Tuple[Any, ...]) -> Any:
        """Route one atomic primitive application.

        Steps the object's current state; a primitive that changes it
        replaces that object's pair, so the tuple the pool held before
        (and every snapshot sharing it) is untouched."""
        try:
            index, obj = self._slots[name]
        except KeyError:
            raise self._unknown(name) from None
        state = self._state
        current = state[index][1]
        result, new = obj.step(current, method, args)
        if new is not current:
            self._state = state[:index] + ((name, new),) + state[index + 1:]
        return result

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
        return list(self.layout)

    def snapshot_state(self) -> PoolState:
        """The pool's part of a configuration key.

        The state tuple itself, with each pair replaced by the equal
        pair this pool interned first: the keys of a search then share
        one pair per object state instead of holding one per key.
        Incremental: a pair that is the one the previous call returned
        at its position is interned already, so after one step only the
        stepped object's pair is looked up.  The interned tuple becomes
        the pool's state, so later captures share its pairs too.
        """
        state = self._state
        keyed = self._keyed
        if state is keyed:
            return state
        interned = self._interned
        pairs = list(state)
        changed = False
        for index, pair in enumerate(pairs):
            if keyed is not None and pair is keyed[index]:
                continue
            try:
                shared = interned.setdefault(pair, pair)
            except TypeError:
                name, value = pair
                _check_hashable(self._slots[name][1], value)
                raise
            if shared is not pair:
                pairs[index] = shared
                changed = True
        if changed:
            state = tuple(pairs)
        self._state = self._keyed = state
        return state

    def reset(self) -> None:
        """Return every object to its initial state."""
        self._state = self._initial

    def capture(self) -> PoolState:
        """The pool's state, restorable by :meth:`restore`.

        The tuple is never mutated (a step replaces it), so a capture
        is the tuple itself and snapshots share it."""
        return self._state

    def restore(
        self, state: PoolState, layout: Optional[Tuple[str, ...]] = None
    ) -> None:
        """Restore a state previously returned by :meth:`capture`.

        The pool must hold exactly the captured object names — the
        engine restores into a pool built by the same implementation's
        :meth:`~repro.sim.kernel.Implementation.create_pool`.  A caller
        that kept the capturing pool's :attr:`layout` passes it, and the
        names are then checked by its identity alone."""
        if layout is not self.layout:
            names = [pair[0] for pair in state]
            if names != list(self.layout):
                raise SimulationError(
                    f"snapshot names {sorted(names)} do not match pool "
                    f"{list(self.layout)}"
                )
        self._state = state

    def __len__(self) -> int:
        return len(self.layout)

    def __contains__(self, name: str) -> bool:
        return name in self._slots


def _check_hashable(obj: BaseObject, state: Any) -> None:
    """Raise :class:`SimulationError` naming ``obj`` if ``state`` is not
    hashable: states are shared between snapshots and keyed by value."""
    try:
        hash(state)
    except TypeError:
        raise SimulationError(
            f"base object {obj.name!r} ({type(obj).__name__}) state "
            f"{state!r} is not hashable; a base-object state must be an "
            "immutable, hashable value (a tuple, frozenset or scalar) that "
            "step() replaces rather than mutates"
        ) from None

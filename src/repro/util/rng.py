"""Deterministic random number generation.

All randomized components of the library (random schedulers, random workload
generators, hypothesis-independent fuzzing helpers) draw from a
:class:`DeterministicRng` seeded explicitly, so every experiment is
replayable from its parameters alone.  The class wraps :mod:`random.Random`
rather than the module-level functions to avoid any dependence on global
state.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.util.errors import UsageError

T = TypeVar("T")


def normalize_seed(seed: object = 0) -> int:
    """Normalize a seed-like value to an int, stably.

    Integers pass through unchanged (bools as 0/1).  Value-like seeds
    (strings, bytes, floats, tuples of such) are hashed through SHA-256
    of their canonical text, so the result is identical across
    processes and Python versions — unlike ``hash()``, which is salted.
    Anything else (objects whose ``repr`` includes a memory address
    would silently produce irreproducible streams) raises
    :class:`~repro.util.errors.UsageError`.
    """
    if isinstance(seed, bool):
        return int(seed)
    if isinstance(seed, int):
        return seed
    if isinstance(seed, (str, bytes, float)) or (
        isinstance(seed, tuple)
        and all(isinstance(part, (str, bytes, float, int)) for part in seed)
    ):
        text = seed if isinstance(seed, bytes) else repr(seed).encode("utf-8")
        return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")
    raise UsageError(
        f"seed must be an int or a value-like scalar/tuple, got "
        f"{type(seed).__name__!s} ({seed!r})"
    )


class DeterministicRng:
    """A seeded random source with a small, explicit API surface.

    Parameters
    ----------
    seed:
        Any hashable seed.  Two instances created with equal seeds produce
        identical streams.
    """

    def __init__(self, seed: object = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> object:
        """The seed this generator was created with."""
        return self._seed

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range ``[low, high]``."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self._random.randrange(len(items))]

    @property
    def getrandbits(self) -> Callable[[int], int]:
        """The stream's ``getrandbits``, for loops that inline :meth:`choice`.

        :meth:`choice` draws ``items[r]`` by rejection sampling: with
        ``n = len(items)`` and ``k = n.bit_length()``, ``r =
        getrandbits(k)`` is redrawn while ``r >= n`` (CPython's
        ``Random._randbelow``).  A loop that draws the same way consumes
        the same stream and picks the same items, without the three
        Python frames per draw of ``choice`` → ``randrange`` →
        ``_randbelow``.  ``tests/test_util.py`` pins the equivalence.
        """
        return self._random.getrandbits

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Return ``count`` distinct elements sampled from ``items``."""
        return self._random.sample(list(items), count)

    def random(self) -> float:
        """Return a float in ``[0.0, 1.0)``."""
        return self._random.random()

    def fork(self, label: object) -> "DeterministicRng":
        """Derive an independent generator keyed by ``label``.

        Forking lets one top-level seed drive several components without
        their draws interleaving (and therefore without one component's
        draw count perturbing another's stream).  The derived seed is a
        string because :class:`random.Random` (3.11+) only accepts
        ``int``/``float``/``str``/``bytes`` seeds.
        """
        return DeterministicRng(f"{self._seed!r}/{label!r}")

    def maybe(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        return self._random.random() < probability

    def __repr__(self) -> str:
        return f"DeterministicRng(seed={self._seed!r})"


def stable_choice(items: Sequence[T], key: int) -> Optional[T]:
    """Pick an element of ``items`` as a pure function of ``key``.

    Unlike :class:`DeterministicRng`, this helper has no internal state: the
    same ``(items, key)`` always yields the same element.  Used by scripted
    schedulers that must be replayable from a step index.
    """
    if not items:
        return None
    return items[key % len(items)]

"""Finite set-theoretic models of Sections 3–4.

Theorem 4.4 and Theorem 4.9 are statements of pure set arithmetic over

* a universe of histories,
* safety properties (prefix-closed subsets),
* liveness properties (supersets of ``Lmax``),
* implementations, each contributing its set of histories and its set
  of *fair* histories, and
* adversary sets (Definition 4.3).

Over a finite universe every one of these quantifiers is enumerable, so
the theorems can be *checked*, not just trusted.  A
:class:`FiniteModel` packages the universe, the ``Lmax`` set, and a
family of implementations; the functions below decide ensuring,
exclusion, adversary-set-hood, compute ``F(Lmax)`` and ``Gmax``, and
search for weakest-excluding / strongest-non-excluding liveness
properties by brute force.  :mod:`repro.setmodel.theorem44` and
:mod:`repro.setmodel.theorem49` wrap them into the experiment checks,
and :mod:`repro.setmodel.universe` builds concrete micro models from
actual object types.

Size guards: liveness enumeration is ``2^(|U| - |Lmax|)`` and adversary
enumeration ``2^(|S ∩ ¬Lmax|)``; both raise :class:`ModelError` beyond
``max_exponent`` rather than silently burning time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.core.history import History
from repro.util.errors import ModelError

HistorySet = FrozenSet[History]


@dataclass(frozen=True)
class ImplementationModel:
    """An implementation as the paper's theorems consume it.

    ``histories`` is ``{finite histories of A_I}`` (must be prefix-closed
    and include the empty history); ``fair`` is ``fair(A_I)`` restricted
    to the universe.
    """

    name: str
    histories: HistorySet
    fair: HistorySet

    def __post_init__(self) -> None:
        if not self.fair <= self.histories:
            raise ModelError(f"{self.name}: fair histories must be histories")

    def ensures_safety(self, safety: HistorySet) -> bool:
        """``I`` ensures ``S`` iff every (finite) history of ``A_I`` is
        in ``S``."""
        return self.histories <= safety

    def ensures_liveness(self, liveness: HistorySet) -> bool:
        """``I`` ensures ``L`` iff ``fair(A_I) ⊆ L``."""
        return self.fair <= liveness


@dataclass
class FiniteModel:
    """A finite instantiation of the paper's Section 3 definitions."""

    universe: HistorySet
    lmax: HistorySet
    implementations: Tuple[ImplementationModel, ...]
    name: str = "finite-model"
    max_exponent: int = 18

    def __post_init__(self) -> None:
        if not self.lmax <= self.universe:
            raise ModelError("Lmax must be a subset of the universe")
        for impl in self.implementations:
            if not impl.histories <= self.universe:
                raise ModelError(f"{impl.name}: histories escape the universe")
        self._check_prefix_closed(self.universe, "universe")
        for impl in self.implementations:
            self._check_prefix_closed(impl.histories, impl.name)

    @staticmethod
    def _check_prefix_closed(histories: HistorySet, label: str) -> None:
        for history in histories:
            if len(history) == 0:
                continue
            if history[: len(history) - 1] not in histories:
                raise ModelError(
                    f"{label} is not prefix-closed (missing prefix of {history})"
                )

    # -- basic notions ------------------------------------------------------------

    def complement(self, subset: HistorySet) -> HistorySet:
        """Complement within the universe (the paper's complement over
        all well-formed histories, relativised to the model)."""
        return self.universe - subset

    def is_liveness(self, candidate: HistorySet) -> bool:
        """Definition 3.2: a liveness property contains ``Lmax``."""
        return self.lmax <= candidate <= self.universe

    def liveness_properties(self) -> Iterator[HistorySet]:
        """Enumerate every liveness property of the model."""
        free = sorted(self.universe - self.lmax, key=lambda h: (len(h), repr(h)))
        if len(free) > self.max_exponent:
            raise ModelError(
                f"liveness enumeration needs 2^{len(free)} sets; raise "
                f"max_exponent explicitly if you mean it"
            )
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                yield self.lmax | frozenset(extra)

    def ensurers_of(self, safety: HistorySet) -> List[ImplementationModel]:
        """Implementations in the family ensuring ``S``."""
        return [impl for impl in self.implementations if impl.ensures_safety(safety)]

    def safety_is_implementable(self, safety: HistorySet) -> bool:
        """Section 3.1's first standing assumption, family-relative.

        "For any history ``h ∈ S`` there exists an implementation ``I``
        such that ``h`` is a history of ``A_I`` and ``I`` ensures
        ``S``."  Theorem 4.4's easy equivalence ("L excludes S iff an
        adversary set exists") genuinely needs it: for an
        unimplementable ``S``, every liveness property excludes ``S``
        vacuously while no non-empty adversary set may exist.
        """
        ensurers = self.ensurers_of(safety)
        for history in safety:
            if not any(history in impl.histories for impl in ensurers):
                return False
        return True

    def excludes(self, liveness: HistorySet, safety: HistorySet) -> bool:
        """Definition 4.1, relative to the implementation family."""
        return not any(
            impl.ensures_liveness(liveness)
            for impl in self.ensurers_of(safety)
        )

    # -- adversary sets (Definition 4.3) ---------------------------------------------

    def is_adversary_set(
        self, candidate: HistorySet, liveness: HistorySet, safety: HistorySet
    ) -> bool:
        """Conditions (1)-(3) of Definition 4.3, plus non-emptiness."""
        if not candidate:
            return False
        if not candidate <= safety:
            return False
        if not candidate <= self.complement(liveness):
            return False
        for impl in self.ensurers_of(safety):
            if not (impl.fair & candidate):
                return False
        return True

    def adversary_sets(
        self, liveness: HistorySet, safety: HistorySet
    ) -> List[HistorySet]:
        """All adversary sets w.r.t. ``L`` and ``S`` (enumerated).

        Candidates are subsets of ``S ∩ ¬L`` (conditions (1)+(2)), so
        the exponent is bounded by that intersection's size.
        """
        pool = sorted(
            safety & self.complement(liveness), key=lambda h: (len(h), repr(h))
        )
        if len(pool) > self.max_exponent:
            raise ModelError(
                f"adversary enumeration needs 2^{len(pool)} sets; raise "
                f"max_exponent explicitly if you mean it"
            )
        found: List[HistorySet] = []
        for r in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                candidate = frozenset(combo)
                if self.is_adversary_set(candidate, liveness, safety):
                    found.append(candidate)
        return found

    def gmax(self, safety: HistorySet) -> Optional[HistorySet]:
        """``Gmax`` = intersection of all adversary sets w.r.t. ``Lmax``;
        ``None`` when ``F(Lmax)`` is empty (then ``Lmax`` does not
        exclude ``S`` and the weakest-excluding question is moot)."""
        family = self.adversary_sets(self.lmax, safety)
        if not family:
            return None
        result = family[0]
        for other in family[1:]:
            result = result & other
        return result

    # -- extremal liveness searches ------------------------------------------------------

    def weakest_excluding(self, safety: HistorySet) -> Optional[HistorySet]:
        """The weakest liveness property excluding ``S``, if one exists.

        Brute force over the full liveness lattice: collect every
        excluding property and check whether one of them contains all
        others (weaker = superset).
        """
        excluding = [
            liveness
            for liveness in self.liveness_properties()
            if self.excludes(liveness, safety)
        ]
        if not excluding:
            return None
        for candidate in excluding:
            if all(other <= candidate for other in excluding):
                return candidate
        return None

    def strongest_non_excluding(self, safety: HistorySet) -> Optional[HistorySet]:
        """The strongest liveness property not excluding ``S``, if any.

        Stronger = subset; the strongest non-excluding property, if it
        exists, is contained in every other non-excluding property.
        """
        non_excluding = [
            liveness
            for liveness in self.liveness_properties()
            if not self.excludes(liveness, safety)
        ]
        if not non_excluding:
            return None
        for candidate in non_excluding:
            if all(candidate <= other for other in non_excluding):
                return candidate
        return None

    def strongest_liveness_of(self, impl: ImplementationModel) -> HistorySet:
        """Lemma 4.8's candidate: ``Lmax ∪ fair(A_I)``."""
        return self.lmax | impl.fair

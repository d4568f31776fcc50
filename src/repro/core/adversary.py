"""Adversary sets (Definition 4.3) at the core, declarative level.

An *adversary set* w.r.t. a liveness property ``L`` and a safety property
``S`` is a non-empty set of histories ``F`` with

1. ``F ⊆ S``,
2. ``F ⊆ complement(L)`` (every history in ``F`` violates ``L``), and
3. for every implementation ``I`` ensuring ``S`` there is a fair history
   of ``A_I`` in ``F``.

Conditions (1) and (2) are checkable per history.  Condition (3)
quantifies over all implementations; the library discharges it two ways:

* **exactly**, in :mod:`repro.setmodel`, where every implementation of a
  finite micro object type is enumerated; and
* **relative to a registry**, in :mod:`repro.analysis`, where an adversary
  *strategy* (:mod:`repro.adversaries`) is played against every registered
  implementation and must defeat each one.

This module holds the implementation-independent pieces: explicit finite
adversary sets, membership-predicate adversary sets, the intersection
operator behind ``Gmax`` of Theorem 4.4, and the disjointness argument the
paper uses for Corollaries 4.5 and 4.6.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional, Sequence

from repro.core.history import History
from repro.core.properties import SafetyProperty, Verdict


class AdversarySetSpec(ABC):
    """A (possibly intensional) set of histories used as an adversary set."""

    name: str = "adversary-set"

    @abstractmethod
    def contains(self, history: History) -> bool:
        """Membership test."""

    def check_safety_side(
        self, safety: SafetyProperty, histories: Iterable[History]
    ) -> Verdict:
        """Audit condition (1) on a sample: members of the set must be in
        ``S``."""
        for history in histories:
            if self.contains(history) and not safety.permits(history):
                return Verdict.failed(
                    f"{self.name} contains a history outside {safety.name}",
                    witness=history,
                )
        return Verdict.passed(f"sampled members of {self.name} all lie in {safety.name}")


class FiniteAdversarySet(AdversarySetSpec):
    """An explicitly enumerated adversary set.

    The paper's consensus adversary sets ``F1`` and ``F2`` (Section 4.1)
    are finite sets of short histories and are shipped in this form by
    :mod:`repro.adversaries.consensus_flp`.
    """

    def __init__(self, histories: Iterable[History], name: str = "F"):
        self.histories: FrozenSet[History] = frozenset(histories)
        if not self.histories:
            raise ValueError("an adversary set must be non-empty")
        self.name = name

    def contains(self, history: History) -> bool:
        return history in self.histories

    def __len__(self) -> int:
        return len(self.histories)

    def intersection(self, other: "FiniteAdversarySet") -> FrozenSet[History]:
        """Set intersection, the building block of ``Gmax``."""
        return self.histories & other.histories

    def is_disjoint_from(self, other: "FiniteAdversarySet") -> bool:
        """True iff the two adversary sets share no history."""
        return not (self.histories & other.histories)


class PredicateAdversarySet(AdversarySetSpec):
    """An adversary set given by a membership predicate.

    The TM adversary of Section 4.1 produces one history per TM
    implementation; the set of all such histories is intensional (it is
    parameterised by the universe of implementations), so membership is
    expressed as a predicate on histories — e.g. "history is a play of
    strategy ``A`` in which no ``tryC`` of ``p1`` ever commits".
    """

    def __init__(self, predicate: Callable[[History], bool], name: str = "F"):
        self._predicate = predicate
        self.name = name

    def contains(self, history: History) -> bool:
        return bool(self._predicate(history))


@dataclass(frozen=True)
class DisjointnessCertificate:
    """Evidence that two adversary sets are disjoint.

    The paper's route to Corollaries 4.5/4.6: exhibit two adversary sets
    w.r.t. ``Lmax`` and ``S`` whose intersection is empty; then ``Gmax``
    — the intersection of *all* adversary sets — is empty, hence not an
    adversary set (it is not even non-empty), and by Theorem 4.4 no
    weakest liveness property excluding ``S`` exists.

    ``separating_feature`` records *why* the sets cannot intersect, e.g.
    "every history of F1 begins with an event of p1, every history of F2
    with an event of p2".
    """

    left_name: str
    right_name: str
    disjoint: bool
    separating_feature: str = ""
    sample_left: Optional[History] = None
    sample_right: Optional[History] = None

    @property
    def gmax_is_empty(self) -> bool:
        """If the sets are disjoint, ``Gmax ⊆ F1 ∩ F2 = ∅``."""
        return self.disjoint


def certify_disjoint_by_first_event(
    left: FiniteAdversarySet,
    right: FiniteAdversarySet,
    left_process: int,
    right_process: int,
) -> DisjointnessCertificate:
    """Certify disjointness via the paper's first-event argument.

    Both corollaries argue that every history in one set begins with an
    event of one process and every history in the other set with an event
    of a different process.  This helper checks that shape explicitly and
    also verifies literal disjointness, so the certificate does not rely
    on the shape argument alone.
    """
    for history in left.histories:
        if len(history) == 0 or history[0].process != left_process:
            return DisjointnessCertificate(
                left_name=left.name,
                right_name=right.name,
                disjoint=left.is_disjoint_from(right),
                separating_feature=(
                    f"shape check failed: a history of {left.name} does not "
                    f"begin with an event of p{left_process}"
                ),
            )
    for history in right.histories:
        if len(history) == 0 or history[0].process != right_process:
            return DisjointnessCertificate(
                left_name=left.name,
                right_name=right.name,
                disjoint=left.is_disjoint_from(right),
                separating_feature=(
                    f"shape check failed: a history of {right.name} does not "
                    f"begin with an event of p{right_process}"
                ),
            )
    disjoint = left.is_disjoint_from(right)
    return DisjointnessCertificate(
        left_name=left.name,
        right_name=right.name,
        disjoint=disjoint,
        separating_feature=(
            f"every history of {left.name} begins with an event of "
            f"p{left_process}; every history of {right.name} begins with an "
            f"event of p{right_process}"
        ),
        sample_left=next(iter(left.histories)),
        sample_right=next(iter(right.histories)),
    )


def intersect_all(sets: Sequence[FiniteAdversarySet]) -> FrozenSet[History]:
    """``Gmax`` over an explicit family: the intersection of all members.

    Theorem 4.4's characterisation is stated for the family of *all*
    adversary sets w.r.t. ``Lmax``; :mod:`repro.setmodel.theorem44`
    enumerates that family exactly for micro types.  This helper is the
    shared set-arithmetic.
    """
    if not sets:
        raise ValueError("Gmax of an empty family is undefined")
    result = sets[0].histories
    for other in sets[1:]:
        result = result & other.histories
    return result

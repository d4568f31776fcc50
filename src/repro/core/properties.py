"""Correctness properties: verdicts and the safety/liveness base classes.

Section 3 of the paper defines a safety property as a prefix-closed and
limit-closed set of well-formed histories, and a liveness property as any
superset of ``Lmax`` (the strongest liveness requirement of the object
type).  This module provides the operational counterparts used by the
simulator and the checkers:

* :class:`SafetyProperty` — decides membership of *finite* histories.
  Prefix closure is an obligation on implementations of this interface
  (and is validated by the test suite for every shipped property);
  limit closure is automatic for properties decided by finite-history
  membership, since the limit of a chain of members has all its prefixes
  members.
* :class:`LivenessProperty` — evaluates an :class:`ExecutionSummary`, the
  abstraction of a (possibly infinite) fair execution that liveness
  properties in the paper actually depend on: which processes crash,
  which take infinitely many steps, and which make progress.

Verdicts carry a :class:`Certainty` tag because the simulator can only
certify infinite behaviour when it detects a lasso (or when a finite
execution is fairness-complete); otherwise the verdict is evidence at a
finite horizon.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any, FrozenSet, Iterable, Optional, Sequence

from repro.core.history import History


class Certainty(enum.Enum):
    """How strong the evidence behind a verdict is.

    ``PROVED``
        The verdict follows exactly from the semantics (finite history
        membership, a detected lasso, or a fairness-complete finite
        execution).
    ``HORIZON``
        The verdict is what a bounded run shows; the infinite extension is
        not certified.  Experiment reports always surface this tag.
    """

    PROVED = "proved"
    HORIZON = "horizon"


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a property.

    ``bool(verdict)`` is ``verdict.holds`` so verdicts compose naturally
    with assertions; the reason and witness make failures diagnosable.
    """

    holds: bool
    certainty: Certainty = Certainty.PROVED
    reason: str = ""
    witness: Any = None

    def __bool__(self) -> bool:
        return self.holds

    def __and__(self, other: "Verdict") -> "Verdict":
        """Conjunction: holds iff both hold; keeps the weaker certainty and
        the first failing reason."""
        holds = self.holds and other.holds
        certainty = (
            Certainty.HORIZON
            if Certainty.HORIZON in (self.certainty, other.certainty)
            else Certainty.PROVED
        )
        if not self.holds:
            reason, witness = self.reason, self.witness
        elif not other.holds:
            reason, witness = other.reason, other.witness
        else:
            reason = self.reason or other.reason
            witness = self.witness if self.witness is not None else other.witness
        return Verdict(holds=holds, certainty=certainty, reason=reason, witness=witness)

    @staticmethod
    def passed(reason: str = "", certainty: Certainty = Certainty.PROVED) -> "Verdict":
        """A passing verdict."""
        return Verdict(holds=True, certainty=certainty, reason=reason)

    @staticmethod
    def failed(
        reason: str,
        witness: Any = None,
        certainty: Certainty = Certainty.PROVED,
    ) -> "Verdict":
        """A failing verdict with a reason and optional witness."""
        return Verdict(holds=False, certainty=certainty, reason=reason, witness=witness)


@dataclass(frozen=True)
class ExecutionSummary:
    """The liveness-relevant abstraction of a fair execution.

    Liveness definitions in Section 5.1 quantify over three per-execution
    sets: the correct processes, the processes taking infinitely many
    steps, and the processes making progress.  The simulator computes the
    sets (exactly, when it can certify the infinite behaviour; at a
    horizon otherwise); the lattice module enumerates them symbolically.

    Attributes
    ----------
    n_processes:
        The total number of processes ``n`` in the system.
    correct:
        Processes that do not crash.
    steppers:
        Processes that take infinitely many steps.  For a finite
        fairness-complete execution this set is empty (everyone halts).
    progressors:
        Processes that make progress, under the object type's
        :class:`~repro.core.object_type.ProgressMode`.
    finite:
        True when the summary describes a finite, fairness-complete
        execution.
    certainty:
        Whether the sets are exact or horizon approximations.
    history:
        Optional underlying history (for diagnostics).
    """

    n_processes: int
    correct: FrozenSet[int]
    steppers: FrozenSet[int]
    progressors: FrozenSet[int]
    finite: bool = False
    certainty: Certainty = Certainty.PROVED
    history: Optional[History] = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        everyone = frozenset(range(self.n_processes))
        if not self.correct <= everyone:
            raise ValueError("correct set mentions unknown processes")
        if not self.steppers <= self.correct:
            raise ValueError("a crashed process cannot take infinitely many steps")
        if not self.progressors <= self.correct:
            raise ValueError("a crashed process cannot make progress")
        if self.finite and self.steppers:
            raise ValueError("a finite execution has no infinite steppers")

    @staticmethod
    def of(
        n_processes: int,
        correct: Iterable[int] = (),
        steppers: Iterable[int] = (),
        progressors: Iterable[int] = (),
        finite: bool = False,
        certainty: Certainty = Certainty.PROVED,
        history: Optional[History] = None,
    ) -> "ExecutionSummary":
        """Convenience constructor accepting any iterables."""
        return ExecutionSummary(
            n_processes=n_processes,
            correct=frozenset(correct),
            steppers=frozenset(steppers),
            progressors=frozenset(progressors),
            finite=finite,
            certainty=certainty,
            history=history,
        )

    def with_certainty(self, certainty: Certainty) -> "ExecutionSummary":
        """A copy of this summary tagged with the given certainty."""
        return replace(self, certainty=certainty)


class Property(ABC):
    """Common base for safety and liveness properties."""

    name: str = "property"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SafetyProperty(Property):
    """A safety property decided by finite-history membership.

    Implementations must be *prefix-closed*: if :meth:`check_history`
    passes on ``h`` it must pass on every prefix of ``h``.  The shipped
    checkers satisfy this by construction (each is tested for it), which
    by Definition 3.1 also yields limit closure for the induced set of
    infinite histories.
    """

    @abstractmethod
    def check_history(self, history: History) -> Verdict:
        """Decide whether the finite history belongs to the property."""

    def permits(self, history: History) -> bool:
        """Boolean convenience wrapper around :meth:`check_history`."""
        return bool(self.check_history(history))

    def check_prefix_closure(self, history: History) -> Verdict:
        """Audit prefix closure along one history.

        Checks that the verdict is monotone: once a prefix fails, every
        extension fails.  Used by the test suite on randomly generated
        histories.
        """
        failed_at: Optional[int] = None
        for length, prefix in enumerate(history.prefixes()):
            verdict = self.check_history(prefix)
            if failed_at is not None and verdict.holds:
                return Verdict.failed(
                    f"prefix of length {failed_at} fails but extension of "
                    f"length {length} passes: not prefix-closed",
                    witness=prefix,
                )
            if failed_at is None and not verdict.holds:
                failed_at = length
        return Verdict.passed("verdicts monotone along all prefixes")


class LivenessProperty(Property):
    """A liveness property evaluated on execution summaries.

    Per Definition 3.2 a liveness property is a superset of ``Lmax``; the
    shipped properties are all weakenings of
    :class:`~repro.core.liveness.Lmax` and the test suite verifies the
    containment on the enumerated abstract-execution space.
    """

    @abstractmethod
    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        """Decide whether the summarised fair execution satisfies the
        property."""

    def satisfied_by(self, summary: ExecutionSummary) -> bool:
        """Boolean convenience wrapper around :meth:`evaluate`."""
        return bool(self.evaluate(summary))

    # -- semantic comparison over a finite abstraction space ---------------

    def admits(self, summaries: Sequence[ExecutionSummary]) -> FrozenSet[int]:
        """Indices of ``summaries`` this property admits."""
        return frozenset(
            i for i, summary in enumerate(summaries) if self.satisfied_by(summary)
        )


class ConjunctionSafety(SafetyProperty):
    """Intersection of safety properties (itself a safety property).

    Definition 3.1's closure conditions are preserved by intersection;
    Section 5.3's counterexample property ``S`` is built this way from
    opacity and the timestamp abort rule.
    """

    def __init__(self, parts: Sequence[SafetyProperty], name: Optional[str] = None):
        if not parts:
            raise ValueError("conjunction needs at least one part")
        self.parts = tuple(parts)
        self.name = name or " ∧ ".join(part.name for part in self.parts)

    def check_history(self, history: History) -> Verdict:
        verdict = Verdict.passed()
        for part in self.parts:
            verdict = verdict & part.check_history(history)
            if not verdict.holds:
                return Verdict.failed(
                    f"{part.name}: {verdict.reason}", witness=verdict.witness
                )
        return verdict

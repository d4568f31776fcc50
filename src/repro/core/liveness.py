"""Concrete liveness properties (Sections 3.2 and 5.1).

``Lmax`` — the strongest liveness requirement of an object type — demands
progress from *every* correct process.  Instantiated per object type it is
wait-freedom (registers, consensus) or local progress (TM).  Every other
liveness property in the paper is a weakening of ``Lmax``; the classes in
this module and in :mod:`repro.core.freedom` implement the ones the paper
uses, all evaluated on
:class:`~repro.core.properties.ExecutionSummary` abstractions.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.properties import (
    Certainty,
    ExecutionSummary,
    LivenessProperty,
    Verdict,
)


class Lmax(LivenessProperty):
    """The strongest liveness property: all correct processes progress.

    For consensus objects this instance is called *wait-freedom*; for TM
    objects, *local progress*; the semantics is identical at the summary
    level — ``correct ⊆ progressors``.
    """

    name = "Lmax"

    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        starving = summary.correct - summary.progressors
        if starving:
            return Verdict.failed(
                f"correct processes {sorted(starving)} make no progress",
                witness=summary,
                certainty=summary.certainty,
            )
        return Verdict.passed(
            "every correct process makes progress", certainty=summary.certainty
        )


class WaitFreedom(Lmax):
    """Wait-freedom [19]: ``Lmax`` for one-shot and register-like objects."""

    name = "wait-freedom"


class LocalProgress(Lmax):
    """Local progress [4]: ``Lmax`` for transactional memory objects."""

    name = "local-progress"


class LockFreedom(LivenessProperty):
    """Lock-freedom: at least one correct process makes progress.

    Equal to :class:`~repro.core.freedom.LLockFreedom` with ``l=1``;
    provided under its usual name for readability.
    """

    name = "lock-freedom"

    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        if not summary.correct:
            return Verdict.passed(
                "no correct processes: nothing is required",
                certainty=summary.certainty,
            )
        if summary.progressors:
            return Verdict.passed(
                f"processes {sorted(summary.progressors)} make progress",
                certainty=summary.certainty,
            )
        return Verdict.failed(
            "no correct process makes progress",
            witness=summary,
            certainty=summary.certainty,
        )


class SoloTermination(LivenessProperty):
    """Obstruction-freedom read directly (Taubenfeld's 1-OF, 'steppers'
    consequent): whenever at most one process takes infinitely many steps,
    that process makes progress.

    Kept alongside the ``(l,k)``-freedom family because the literal and
    the paper's readings of k-obstruction-freedom differ; see
    :mod:`repro.core.freedom` for the full discussion.
    """

    name = "solo-termination"

    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        if len(summary.steppers) > 1:
            return Verdict.passed(
                "more than one eventual stepper: nothing is required",
                certainty=summary.certainty,
            )
        lagging = summary.steppers - summary.progressors
        if lagging:
            return Verdict.failed(
                f"solo stepper {sorted(lagging)} makes no progress",
                witness=summary,
                certainty=summary.certainty,
            )
        return Verdict.passed("solo steppers progress", certainty=summary.certainty)


def enumerate_summaries(
    n_processes: int,
    progress_requires_steps: bool = False,
    include_finite: bool = True,
) -> List[ExecutionSummary]:
    """Enumerate the abstract-execution space for ``n`` processes.

    An abstract execution is a triple ``(correct, steppers, progressors)``
    with ``steppers ⊆ correct`` and ``progressors ⊆ correct`` (and
    ``progressors ⊆ steppers`` when ``progress_requires_steps`` — the
    right constraint for long-lived objects, where making progress
    requires taking steps forever; one-shot objects allow a process to
    decide and then halt).

    Infinite executions have a non-empty stepper set; when
    ``include_finite`` is set, the triples with ``steppers = ∅`` are also
    produced, marked finite.  The space is the exact domain on which the
    paper's ``(l,k)``-freedom comparisons are decided, so subset tests on
    admitted sets are *proofs* of the stronger/weaker relation for the
    summary semantics.
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    everyone = list(range(n_processes))
    summaries: List[ExecutionSummary] = []
    for correct_mask in range(2 ** n_processes):
        correct = frozenset(p for p in everyone if correct_mask >> p & 1)
        correct_list = sorted(correct)
        for stepper_mask in range(2 ** len(correct_list)):
            steppers = frozenset(
                correct_list[i]
                for i in range(len(correct_list))
                if stepper_mask >> i & 1
            )
            if not steppers and not include_finite:
                continue
            progress_pool = sorted(steppers if progress_requires_steps else correct)
            for progress_mask in range(2 ** len(progress_pool)):
                progressors = frozenset(
                    progress_pool[i]
                    for i in range(len(progress_pool))
                    if progress_mask >> i & 1
                )
                summaries.append(
                    ExecutionSummary(
                        n_processes=n_processes,
                        correct=correct,
                        steppers=steppers,
                        progressors=progressors,
                        finite=not steppers,
                        certainty=Certainty.PROVED,
                    )
                )
    return summaries


def compare(
    left: LivenessProperty,
    right: LivenessProperty,
    summaries: Sequence[ExecutionSummary],
) -> str:
    """Classify the relation of two liveness properties over a space.

    Returns one of ``"equal"``, ``"stronger"`` (left stronger than right,
    i.e. admits a subset), ``"weaker"``, or ``"incomparable"``.
    """
    left_set = left.admits(summaries)
    right_set = right.admits(summaries)
    if left_set == right_set:
        return "equal"
    if left_set <= right_set:
        return "stronger"
    if right_set <= left_set:
        return "weaker"
    return "incomparable"

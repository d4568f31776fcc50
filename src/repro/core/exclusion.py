"""Exclusion of safety by liveness (Definition 4.1) — verdicts & reports.

``L`` excludes ``S`` iff no implementation ensures both.  A finite
artifact can certify the two directions differently:

* **Non-exclusion** is certified by a *witness implementation*: one
  implementation whose (exhaustively explored or sampled) runs all lie in
  ``S`` and all satisfy ``L``.
* **Exclusion** is certified *relative to a registry*: an adversary
  strategy defeats every registered implementation that ensures ``S`` —
  each play yields a fair run whose history is in ``S`` and whose
  execution violates ``L``.  (Exactly universal exclusion is available in
  :mod:`repro.setmodel` for finite micro types.)

The report dataclasses here are the common currency between the
adversaries and the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.properties import (
    Certainty,
    ExecutionSummary,
    LivenessProperty,
    SafetyProperty,
    Verdict,
)


@dataclass(frozen=True)
class GameOutcome:
    """One adversary-vs-implementation play (a fair run of ``A_I``).

    ``history`` and ``summary`` describe the run; the two verdicts record
    whether the history stayed in ``S`` (it must, if the implementation
    ensures ``S``) and whether the execution violated ``L`` (the
    adversary's goal).
    """

    implementation: str
    history: History
    summary: ExecutionSummary
    safety_verdict: Verdict
    liveness_verdict: Verdict

    @property
    def defeated(self) -> bool:
        """True when the play is a valid defeat: in ``S`` but not in
        ``L``."""
        return self.safety_verdict.holds and not self.liveness_verdict.holds

    @property
    def certainty(self) -> Certainty:
        """Horizon unless both verdicts are proved."""
        if (
            self.safety_verdict.certainty is Certainty.PROVED
            and self.liveness_verdict.certainty is Certainty.PROVED
        ):
            return Certainty.PROVED
        return Certainty.HORIZON


@dataclass
class ExclusionReport:
    """Outcome of checking ``L excludes S`` against a registry.

    ``holds`` is True when every registered implementation was defeated.
    """

    liveness: str
    safety: str
    outcomes: List[GameOutcome] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return bool(self.outcomes) and all(o.defeated for o in self.outcomes)

    @property
    def certainty(self) -> Certainty:
        if any(o.certainty is Certainty.HORIZON for o in self.outcomes):
            return Certainty.HORIZON
        return Certainty.PROVED

    def undefeated(self) -> List[str]:
        """Names of implementations the adversary failed to defeat."""
        return [o.implementation for o in self.outcomes if not o.defeated]

    def describe(self) -> str:
        """One-line summary for reports."""
        status = "EXCLUDES" if self.holds else "does NOT exclude (on this registry)"
        tag = "" if self.certainty is Certainty.PROVED else " [horizon]"
        return f"{self.liveness} {status} {self.safety}{tag}"


@dataclass
class NonExclusionReport:
    """Outcome of checking that some implementation ensures both ``S``
    and ``L``.

    ``runs`` holds every explored run of the witness implementation; the
    witness certifies non-exclusion only if *all* runs satisfy both
    properties.
    """

    liveness: str
    safety: str
    implementation: str
    runs: List[GameOutcome] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return bool(self.runs) and all(
            r.safety_verdict.holds and r.liveness_verdict.holds for r in self.runs
        )

    @property
    def certainty(self) -> Certainty:
        if any(r.certainty is Certainty.HORIZON for r in self.runs):
            return Certainty.HORIZON
        return Certainty.PROVED

    def violations(self) -> List[GameOutcome]:
        """Runs in which a property failed (empty when the witness
        stands)."""
        return [
            r
            for r in self.runs
            if not (r.safety_verdict.holds and r.liveness_verdict.holds)
        ]

    def describe(self) -> str:
        status = (
            f"{self.implementation} ensures both"
            if self.holds
            else f"{self.implementation} fails to ensure both"
        )
        tag = "" if self.certainty is Certainty.PROVED else " [horizon]"
        return f"{status} {self.safety} and {self.liveness}{tag}"


def build_exclusion_report(
    safety: SafetyProperty,
    liveness: LivenessProperty,
    plays: Iterable[Tuple[str, History, ExecutionSummary]],
) -> ExclusionReport:
    """Assemble an :class:`ExclusionReport` from adversary plays.

    Each play is ``(implementation_name, history, summary)``; the report
    evaluates safety on the history and liveness on the summary.
    """
    report = ExclusionReport(liveness=liveness.name, safety=safety.name)
    for name, history, summary in plays:
        report.outcomes.append(
            GameOutcome(
                implementation=name,
                history=history,
                summary=summary,
                safety_verdict=safety.check_history(history),
                liveness_verdict=liveness.evaluate(summary),
            )
        )
    return report


def build_non_exclusion_report(
    safety: SafetyProperty,
    liveness: LivenessProperty,
    implementation: str,
    runs: Iterable[Tuple[History, ExecutionSummary]],
) -> NonExclusionReport:
    """Assemble a :class:`NonExclusionReport` from witness runs."""
    report = NonExclusionReport(
        liveness=liveness.name, safety=safety.name, implementation=implementation
    )
    for history, summary in runs:
        report.runs.append(
            GameOutcome(
                implementation=implementation,
                history=history,
                summary=summary,
                safety_verdict=safety.check_history(history),
                liveness_verdict=liveness.evaluate(summary),
            )
        )
    return report

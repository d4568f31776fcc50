"""Exclusion of safety by liveness (Definition 4.1) — the judgement.

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

:func:`judge` makes that judgement over a registry's checked plays.  It
is the only place a cell of Figure 1 is decided: the grid classifier in
:mod:`repro.analysis.classification` builds one :class:`GameOutcome` per
play and renders the report it gets back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.history import History
from repro.core.properties import Certainty, ExecutionSummary, Verdict


@dataclass(frozen=True)
class GameOutcome:
    """One adversary-vs-implementation play (a fair run of ``A_I``).

    ``label`` names the play (its schedule or adversary); ``history``
    and ``summary`` describe the run; the two verdicts record whether the
    history stayed in ``S`` (it must, if the implementation ensures
    ``S``) and whether the execution violated ``L`` (the adversary's
    goal).
    """

    implementation: str
    label: str
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


def _weakest(outcomes: Sequence[GameOutcome]) -> Certainty:
    if any(o.certainty is Certainty.HORIZON for o in outcomes):
        return Certainty.HORIZON
    return Certainty.PROVED


@dataclass
class ExclusionReport:
    """Outcome of checking ``L excludes S`` against a registry.

    ``defeats`` maps each registered implementation to the play that
    defeats it, or to ``None`` when none does.  ``holds`` is True when
    every registered implementation was defeated.
    """

    liveness: str
    safety: str
    defeats: Dict[str, Optional[GameOutcome]] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return bool(self.defeats) and None not in self.defeats.values()

    @property
    def certainty(self) -> Certainty:
        return _weakest([o for o in self.defeats.values() if o is not None])

    def undefeated(self) -> List[str]:
        """Names of implementations the adversary failed to defeat."""
        return [name for name, o in self.defeats.items() if o is None]

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
    def safe(self) -> bool:
        """Every run's history lies in ``S``."""
        return all(r.safety_verdict.holds for r in self.runs)

    @property
    def live(self) -> bool:
        """Every run's execution satisfies ``L``."""
        return all(r.liveness_verdict.holds for r in self.runs)

    @property
    def holds(self) -> bool:
        return bool(self.runs) and self.safe and self.live

    @property
    def certainty(self) -> Certainty:
        return _weakest(self.runs)

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
    safety: str, liveness: str, outcomes: Mapping[str, Sequence[GameOutcome]]
) -> ExclusionReport:
    """Assemble an :class:`ExclusionReport` from checked plays.

    ``outcomes`` maps each registered implementation to its plays.  An
    implementation is defeated by its first PROVED defeating play, or
    else by its first defeating play; one with no plays is never
    defeated.
    """
    report = ExclusionReport(liveness=liveness, safety=safety)
    for name, runs in outcomes.items():
        defeating = [o for o in runs if o.defeated]
        proved = [o for o in defeating if o.certainty is Certainty.PROVED]
        report.defeats[name] = (proved or defeating or [None])[0]
    return report


def judge(
    safety: str, liveness: str, outcomes: Mapping[str, Sequence[GameOutcome]]
) -> Union[ExclusionReport, NonExclusionReport]:
    """Decide ``L excludes S`` over a registry's checked plays.

    Returns the :class:`ExclusionReport` when it holds, or else the
    :class:`NonExclusionReport` of the first implementation (in sorted
    order) whose runs all satisfy both properties.  When neither
    holds, the battery is incoherent and the (failing) exclusion
    report is returned.
    """
    exclusion = build_exclusion_report(safety, liveness, outcomes)
    if exclusion.holds:
        return exclusion
    for name in sorted(outcomes):
        witness = NonExclusionReport(liveness, safety, name, list(outcomes[name]))
        if witness.holds:
            return witness
    return exclusion

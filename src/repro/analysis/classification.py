"""Classifying the ``(l,k)`` grid against a safety property (Figure 1).

A grid point ``(l,k)`` is *excluded* (black in Figure 1) when no
implementation ensures both the safety property and
``(l,k)``-freedom.  Each point is judged by
:func:`repro.core.exclusion.judge` over the battery's plays: it is
**excluded** when the exclusion report holds (every registered
implementation has a play in the safety property that violates
``(l,k)``-freedom), and **not excluded** when some implementation's
plays all satisfy both (a witness).  Points that are neither would
indicate an incoherent battery and are flagged ``undetermined``; the
shipped batteries never produce them, and the tests assert so.

This module checks each play's safety once per grid, builds the
outcomes the judgement reads, and renders each report as a
:class:`GridPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.exclusion import (
    ExclusionReport,
    GameOutcome,
    NonExclusionReport,
    judge,
)
from repro.core.freedom import LKFreedom
from repro.core.history import History
from repro.core.properties import (
    Certainty,
    ExecutionSummary,
    LivenessProperty,
    SafetyProperty,
    Verdict,
)

#: One battery play: (history, summary, play label).
Play = Tuple[History, ExecutionSummary, str]


@dataclass(frozen=True)
class GridPoint:
    """Verdict for one ``(l,k)`` point."""

    l: int
    k: int
    excludes: bool
    certainty: Certainty
    evidence: str
    undetermined: bool = False

    @property
    def label(self) -> str:
        return f"({self.l},{self.k})"


@dataclass
class ClassifiedGrid:
    """A full Figure-1 panel."""

    n: int
    safety_name: str
    semantics: str
    points: List[GridPoint] = field(default_factory=list)

    def point(self, l: int, k: int) -> GridPoint:
        point = self.maybe_point(l, k)
        if point is None:
            # repro-lint: disable=ER001 -- mapping-protocol accessor, not a registry lookup; KeyError mirrors dict semantics and maybe_point() is the lenient path
            raise KeyError(f"no point ({l},{k})")
        return point

    def maybe_point(self, l: int, k: int) -> Optional[GridPoint]:
        """The point at ``(l,k)``, or ``None`` when the grid was
        classified over a subset that omits it."""
        for candidate in self.points:
            if candidate.l == l and candidate.k == k:
                return candidate
        return None

    def excluded_points(self) -> List[Tuple[int, int]]:
        return [(p.l, p.k) for p in self.points if p.excludes]

    def implementable_points(self) -> List[Tuple[int, int]]:
        return [(p.l, p.k) for p in self.points if not p.excludes]

    def matches(self, expected_excluded) -> bool:
        """Compare against a predicate ``expected_excluded(l, k)``."""
        return all(
            point.excludes == bool(expected_excluded(point.l, point.k))
            for point in self.points
        )


def check_plays(
    safety: SafetyProperty, plays_by_impl: Mapping[str, Sequence[Play]]
) -> Dict[str, List[Tuple[Play, Verdict]]]:
    """Each play with its safety verdict (opacity on long histories is
    the dominant cost, so a grid checks each play once)."""
    return {
        key: [(play, safety.check_history(play[0])) for play in plays]
        for key, plays in plays_by_impl.items()
    }


def play_outcomes(
    liveness: LivenessProperty, checked: Mapping[str, Sequence[Tuple[Play, Verdict]]]
) -> Dict[str, List[GameOutcome]]:
    """One :class:`GameOutcome` per checked play against ``liveness``."""
    return {
        key: [
            GameOutcome(
                key, label, history, summary, verdict, liveness.evaluate(summary)
            )
            for (history, summary, label), verdict in runs
        ]
        for key, runs in checked.items()
    }


def cell_reports(
    n: int,
    safety: SafetyProperty,
    plays_by_impl: Mapping[str, Sequence[Play]],
    semantics: str = "conditional",
    points: Optional[Sequence[Tuple[int, int]]] = None,
) -> Iterator[Tuple[LKFreedom, Union[ExclusionReport, NonExclusionReport]]]:
    """The judged certificate of each ``(l,k)`` point (see
    :func:`repro.core.exclusion.judge`)."""
    checked = check_plays(safety, plays_by_impl)
    if points is None:
        points = [(l, k) for k in range(1, n + 1) for l in range(1, k + 1)]
    for l, k in points:
        prop = LKFreedom(l, k, semantics=semantics)
        yield prop, judge(safety.name, prop.name, play_outcomes(prop, checked))


def classify_grid(
    n: int,
    safety: SafetyProperty,
    plays_by_impl: Mapping[str, Sequence[Play]],
    semantics: str = "conditional",
    points: Optional[Sequence[Tuple[int, int]]] = None,
) -> ClassifiedGrid:
    """Classify every ``(l,k)`` with ``1 <= l <= k <= n``.

    ``plays_by_impl`` maps implementation keys (all of which must
    ensure the safety property by design) to their battery plays.
    ``points`` restricts classification to a subset of the grid (the
    campaign ``lk`` axis); the default is the full triangle.
    """
    grid = ClassifiedGrid(n=n, safety_name=safety.name, semantics=semantics)
    for prop, report in cell_reports(n, safety, plays_by_impl, semantics, points):
        grid.points.append(_grid_point(prop, report))
    return grid


def _grid_point(
    prop: LKFreedom, report: Union[ExclusionReport, NonExclusionReport]
) -> GridPoint:
    """Render one judged cell."""
    if isinstance(report, NonExclusionReport):
        excludes, evidence = False, f"witness implementation: {report.implementation}"
    elif report.holds:
        excludes, evidence = True, "; ".join(
            f"{key} defeated by {outcome.label}"
            for key, outcome in sorted(report.defeats.items())
        )
    else:
        return GridPoint(
            prop.l,
            prop.k,
            excludes=False,
            certainty=Certainty.HORIZON,
            evidence="battery incoherent: no full defeat and no clean witness",
            undetermined=True,
        )
    return GridPoint(prop.l, prop.k, excludes, report.certainty, evidence)

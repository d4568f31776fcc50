"""Order-theoretic structure of liveness families (Sections 5.1–5.2, 6).

The stronger/weaker relation on liveness properties is set containment of
their execution sets (Section 3.2).  Over the finite abstract-execution
space of :func:`repro.core.liveness.enumerate_summaries` the relation is
decidable exactly, so this module computes, for any finite family of
liveness properties:

* the full relation matrix (equal / stronger / weaker / incomparable),
* the Hasse diagram of the induced partial order,
* maximal and minimal elements and explicit incomparability witnesses —
  the paper's own example being ``(1,3)``-freedom vs ``(2,2)``-freedom.

Figure 1 plots the ``(l,k)`` grid; the classification of grid points
against a safety property lives in :mod:`repro.analysis.classification`,
which consumes the orders computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.liveness import enumerate_summaries
from repro.core.properties import ExecutionSummary, LivenessProperty


@dataclass(frozen=True)
class Relation:
    """The comparison of two liveness properties over a summary space."""

    left: str
    right: str
    kind: str  # "equal" | "stronger" | "weaker" | "incomparable"
    left_only: Tuple[int, ...] = ()
    right_only: Tuple[int, ...] = ()


class LivenessOrder:
    """The stronger/weaker partial order of a family of liveness
    properties, decided over a finite abstract-execution space.

    Parameters
    ----------
    properties:
        The liveness properties to order.  Names must be unique.
    n_processes:
        System size used to build the abstraction space.
    progress_requires_steps:
        Forwarded to :func:`enumerate_summaries`; use ``True`` for
        long-lived object types.
    """

    def __init__(
        self,
        properties: Sequence[LivenessProperty],
        n_processes: int,
        progress_requires_steps: bool = False,
        summaries: Optional[Sequence[ExecutionSummary]] = None,
    ):
        names = [p.name for p in properties]
        if len(set(names)) != len(names):
            raise ValueError("liveness properties must have unique names")
        self.properties = list(properties)
        self.n_processes = n_processes
        self.summaries: List[ExecutionSummary] = list(
            summaries
            if summaries is not None
            else enumerate_summaries(
                n_processes, progress_requires_steps=progress_requires_steps
            )
        )
        self._admitted: Dict[str, FrozenSet[int]] = {
            prop.name: prop.admits(self.summaries) for prop in self.properties
        }

    # -- pairwise relations -------------------------------------------------

    def admitted(self, prop: LivenessProperty) -> FrozenSet[int]:
        """Indices of the summary space admitted by ``prop``."""
        if prop.name not in self._admitted:
            self._admitted[prop.name] = prop.admits(self.summaries)
        return self._admitted[prop.name]

    def relate(self, left: LivenessProperty, right: LivenessProperty) -> Relation:
        """Compare two properties, with witnesses for strict differences."""
        left_set = self.admitted(left)
        right_set = self.admitted(right)
        left_only = tuple(sorted(left_set - right_set))
        right_only = tuple(sorted(right_set - left_set))
        if not left_only and not right_only:
            kind = "equal"
        elif not left_only:
            kind = "stronger"  # left admits a subset: left is stronger
        elif not right_only:
            kind = "weaker"
        else:
            kind = "incomparable"
        return Relation(
            left=left.name,
            right=right.name,
            kind=kind,
            left_only=left_only,
            right_only=right_only,
        )

    def is_stronger(self, left: LivenessProperty, right: LivenessProperty) -> bool:
        """True iff ``left`` is (non-strictly) stronger than ``right``."""
        return self.admitted(left) <= self.admitted(right)

    def incomparability_witnesses(
        self, left: LivenessProperty, right: LivenessProperty
    ) -> Optional[Tuple[ExecutionSummary, ExecutionSummary]]:
        """For incomparable properties, a pair of abstract executions
        ``(only_left_admits, only_right_admits)``; ``None`` otherwise."""
        relation = self.relate(left, right)
        if relation.kind != "incomparable":
            return None
        return (
            self.summaries[relation.left_only[0]],
            self.summaries[relation.right_only[0]],
        )

    # -- global structure -----------------------------------------------------

    def relation_matrix(self) -> Dict[Tuple[str, str], str]:
        """The full pairwise relation table, keyed by property names."""
        matrix: Dict[Tuple[str, str], str] = {}
        for left in self.properties:
            for right in self.properties:
                matrix[(left.name, right.name)] = self.relate(left, right).kind
        return matrix

    def strictly_stronger_pairs(self) -> List[Tuple[str, str]]:
        """All pairs ``(a, b)`` with ``a`` strictly stronger than ``b``."""
        pairs: List[Tuple[str, str]] = []
        for left in self.properties:
            for right in self.properties:
                if left is right:
                    continue
                relation = self.relate(left, right)
                if relation.kind == "stronger":
                    pairs.append((left.name, right.name))
        return pairs

    def hasse_edges(self) -> List[Tuple[str, str]]:
        """Covering pairs of the strictly-stronger order.

        ``(a, b)`` is an edge iff ``a`` is strictly stronger than ``b``
        with no property strictly between them.  Properties with equal
        execution sets are collapsed onto the first representative.
        """
        representative: Dict[str, str] = {}
        for prop in self.properties:
            key = self.admitted(prop)
            found = None
            for other in self.properties:
                if other.name in representative.values() and self.admitted(other) == key:
                    found = other.name
                    break
            representative[prop.name] = found or prop.name
        stronger = {
            (a, b)
            for a, b in self.strictly_stronger_pairs()
            if representative[a] == a and representative[b] == b
        }
        edges: List[Tuple[str, str]] = []
        for a, b in sorted(stronger):
            if any((a, c) in stronger and (c, b) in stronger for c in representative.values()):
                continue
            edges.append((a, b))
        return edges

    def maximal_elements(self) -> List[str]:
        """Properties with no strictly stronger property in the family."""
        stronger = self.strictly_stronger_pairs()
        dominated = {b for _, b in stronger}
        return [p.name for p in self.properties if p.name not in dominated]

    def minimal_elements(self) -> List[str]:
        """Properties with no strictly weaker property in the family."""
        stronger = self.strictly_stronger_pairs()
        dominating = {a for a, _ in stronger}
        return [p.name for p in self.properties if p.name not in dominating]

    def is_totally_ordered(self) -> bool:
        """True iff no pair in the family is incomparable.

        Section 6 contrasts families that are totally ordered
        (``(n,x)``-liveness) with antichains (singleton ``S``-freedom) and
        the partially ordered ``(l,k)`` grid.
        """
        for left in self.properties:
            for right in self.properties:
                if self.relate(left, right).kind == "incomparable":
                    return False
        return True

    def strongest_below(self, candidates: Sequence[LivenessProperty]) -> List[str]:
        """Maximal elements among ``candidates`` w.r.t. this order."""
        names = {c.name for c in candidates}
        stronger = [
            (a, b)
            for a, b in self.strictly_stronger_pairs()
            if a in names and b in names
        ]
        dominated = {b for _, b in stronger}
        return [c.name for c in candidates if c.name not in dominated]

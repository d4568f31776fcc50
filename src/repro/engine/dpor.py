"""Dynamic partial-order reduction: sleep sets over decision footprints.

The exhaustive engine deduplicates by exact configuration *and* history,
so it still enumerates every Mazurkiewicz representative — all
interleavings of independent decisions that differ in event order or in
an intermediate configuration.  This module prunes those: per applied
decision the kernel reports a :class:`~repro.sim.kernel.Footprint`
(acting process, visibility kind, pool cells read/written), an
*independence relation* over footprints says when two adjacent decisions
of different processes commute without changing any verdict, and
Flanagan–Godefroid style **sleep sets** — seeded, as in the source-set
formulation, from the already-explored siblings at each node — skip the
commuted re-explorations.

Independence relation
---------------------
Two decisions ``a`` (of process p) and ``b`` (of process q) are
*dependent* when any of:

* ``p == q`` — same process: program order is sacred;
* either is a crash — conservatively global;
* their pool footprints conflict: same object, overlapping keys (equal,
  or either is ``None`` = whole object), at least one a write;
* both are visible (emit a history event) and — under the safety
  relation — of *different* kinds, i.e. an invocation against a
  response.  Swapping an adjacent invocation/response pair of different
  processes changes the real-time precedence relation
  (response-before-invocation) that every safety checker judges.
  Adjacent same-kind events (invocation/invocation,
  response/response) of different processes leave per-process order and
  every response-before-invocation pair intact, so safety verdicts are
  invariant under the swap — the checkers in :mod:`repro.objects`
  consult exactly that partial order.  The liveness relation
  (``visible_commutes=False``) declares *all* visible pairs dependent,
  because liveness classification additionally reads event timing
  against step windows.

Soundness under stateful search
-------------------------------
Classic sleep sets assume a tree search; the engine deduplicates by
fingerprint, and a state first explored with sleep set ``Z1`` has only
its ``enabled − Z1`` futures covered.  When a later path reaches the
same state with sleep ``Z2 ⊄ Z1``-compatible (i.e. some decision slept
in ``Z1`` is awake in ``Z2``), treating it as a plain dedup hit would
lose coverage.  :class:`SleepSets` applies the standard state-caching
repair: remember the sleep set each expanded state was explored with,
and on such a revisit *re-expand* the state with the intersection
``Z1 ∩ Z2`` (never larger than either, hence sound; strictly smaller
than the stored set, hence terminating).  States that were never
expanded (leaves, depth-capped nodes) carry no stored sleep and dedup
exactly as before.  The store keeps only the labels of ``Z1``, and
nothing when ``Z1`` is empty (such a state is covered by every
revisit): the intersection's footprints are read from ``Z2``, which
holds the same ones for the same state.

Obs counters (namespace ``dpor/``): ``dpor/sleep_blocked`` counts
enabled transitions skipped because they were asleep,
``dpor/pruned`` counts nodes whose *every* enabled transition was
asleep (entire subtrees cut), ``dpor/revisit_repairs`` counts
re-expansions forced by the state-caching repair.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.sim.kernel import Footprint

#: Reduction modes accepted throughout the engine and the verify facade.
#: ``dpor-parity`` runs the unreduced and the reduced search and asserts
#: identical *verdicts* (not identical history sets).
REDUCTIONS = ("none", "dpor", "dpor-parity")


class DporParityError(AssertionError):
    """The reduced and unreduced searches produced different verdicts."""


def check_reduction(reduction: str, allowed: Tuple[str, ...] = REDUCTIONS) -> str:
    """Validate a reduction mode name."""
    if reduction not in allowed:
        raise ValueError(
            f"reduction must be one of {allowed}, got {reduction!r}"
        )
    return reduction


def _cells_conflict(
    a: Tuple[Tuple[str, Any], ...], b: Tuple[Tuple[str, Any], ...]
) -> bool:
    for obj_a, key_a in a:
        for obj_b, key_b in b:
            if obj_a != obj_b:
                continue
            if key_a is None or key_b is None or key_a == key_b:
                return True
    return False


def conflicts(a: Footprint, b: Footprint, visible_commutes: bool = True) -> bool:
    """Whether two decisions are *dependent* (see module docstring)."""
    if a.pid == b.pid:
        return True
    if a.kind == "crash" or b.kind == "crash":
        return True
    if a.visible and b.visible:
        if not visible_commutes or a.kind != b.kind:
            return True
    if _cells_conflict(a.writes, b.writes):
        return True
    if _cells_conflict(a.writes, b.reads):
        return True
    if _cells_conflict(a.reads, b.writes):
        return True
    return False


def independent(a: Footprint, b: Footprint, visible_commutes: bool = True) -> bool:
    """Negation of :func:`conflicts`, for readable call sites."""
    return not conflicts(a, b, visible_commutes)


#: A sleep set: still-asleep decision labels mapped to the footprint
#: each had when it was put to sleep.  Footprints of a process's next
#: decision are functions of its local frame state, and any decision of
#: the same process is dependent (removing the entry), so a surviving
#: entry's cached footprint is still the footprint the decision would
#: have if taken now.
Sleep = Dict[Any, Footprint]


class SleepSets:
    """Sleep-set bookkeeping for one search, including the stateful
    dedup repair (see module docstring)."""

    def __init__(self, visible_commutes: bool = True):
        self.visible_commutes = visible_commutes
        #: Dedup key -> the labels of the non-empty sleep set the state
        #: was (last) expanded with.  A state expanded with an empty
        #: sleep has no entry: nothing it skipped can be missing later.
        self._expanded: Dict[Hashable, Tuple[Any, ...]] = {}

    # -- sleep propagation -------------------------------------------------

    def child_sleep(
        self,
        sleep: Sleep,
        explored_siblings: Iterable[Tuple[Any, Footprint]],
        executed: Footprint,
    ) -> Sleep:
        """The sleep set of the child reached by ``executed``.

        Entries inherited from the parent and the parent's
        already-explored earlier siblings survive exactly when they are
        independent of the executed decision — the classic sleep-set
        recurrence, with the sibling seeding standing in for explicit
        source sets."""
        child: Sleep = {}
        for label, footprint in sleep.items():
            if independent(footprint, executed, self.visible_commutes):
                child[label] = footprint
        for label, footprint in explored_siblings:
            if independent(footprint, executed, self.visible_commutes):
                child[label] = footprint
        return child

    # -- stateful dedup repair ---------------------------------------------

    def note_expansion(self, key: Hashable, sleep: Sleep) -> None:
        """Record that the state ``key`` is first being expanded with
        ``sleep`` (once per state; later expansions are repairs, which
        :meth:`revisit_sleep` records).  Only the labels are kept, and
        only when there are any."""
        if sleep:
            self._expanded[key] = tuple(sleep)

    def revisit_sleep(
        self, key: Hashable, sleep: Sleep, enabled: Optional[Iterable[Any]] = None
    ) -> Optional[Sleep]:
        """Decide what a revisit of an already-seen state must do.

        Returns ``None`` when the revisit is covered — the state was
        never expanded, or every label its stored sleep suppressed (and
        this path would explore) is suppressed here too — i.e. plain
        dedup is sound.  Otherwise returns the intersection sleep the
        state must be *re-expanded* with, and lowers the stored sleep to
        it so repairs strictly shrink and terminate (an empty
        intersection drops the entry).  ``enabled`` limits the coverage
        question to currently enabled labels; ``None`` conservatively
        treats every stored label as enabled (used by the liveness
        search, which dedups before computing its options).

        The intersection takes its footprints from ``sleep``, the set
        this path arrives with.  They equal the ones the stored labels
        had: an equal key means equal process frames, and a sleeping
        decision's footprint is a function of its process's frame (see
        :data:`Sleep`)."""
        stored = self._expanded.get(key)
        if stored is None:
            return None
        if enabled is None:
            covered = all(label in sleep for label in stored)
        else:
            enabled_set = set(enabled)
            covered = all(
                label in sleep or label not in enabled_set for label in stored
            )
        if covered:
            return None
        merged = {label: sleep[label] for label in stored if label in sleep}
        if merged:
            self._expanded[key] = tuple(merged)
        else:
            del self._expanded[key]
        return merged

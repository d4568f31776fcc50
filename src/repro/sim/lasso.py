"""Lasso detection: certifying infinite executions of deterministic runs.

A run under a deterministic driver, crash plan and implementation is a
deterministic trajectory through global configurations
``(driver state, base objects, process memories and frames)``.  If a
configuration repeats, the trajectory is ``stem · cycle^ω`` — a genuine
infinite execution — and liveness verdicts over it are exact rather than
horizon-bounded: the processes taking infinitely many steps are exactly
those stepping inside the cycle, and the good responses occurring
infinitely often are exactly those emitted inside the cycle.

Detection uses a hash map from configuration fingerprints to step
numbers.  Fingerprints come in two kinds:

* **exact** — driver fingerprint × pool state × process states.  Sound
  unconditionally (given the determinism contract of
  :mod:`repro.sim.kernel`).
* **abstract** — an implementation-provided quotient
  (:meth:`repro.sim.kernel.Implementation.liveness_abstraction`) used
  when the exact state grows monotonically (round counters,
  timestamps).  Sound when the abstraction is a bisimulation quotient;
  the certificate records which kind fired so reports can distinguish.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.sim.record import LassoCertificate


class LassoDetector:
    """Incremental repeated-configuration detector.

    Parameters
    ----------
    check_every:
        Only fingerprint every ``check_every``-th step (fingerprinting
        hashes the full state; for long runs a stride keeps the overhead
        linear with a small constant).  A lasso whose period is not a
        multiple of the stride is still found once the stride divides a
        multiple of the period, at the cost of a longer reported cycle —
        soundness is unaffected.
    """

    def __init__(self, check_every: int = 1):
        if check_every < 1:
            raise ValueError("check_every must be positive")
        self.check_every = check_every
        self._seen_exact: Dict[Hashable, int] = {}
        self._seen_abstract: Dict[Hashable, int] = {}

    def observe(
        self,
        step: int,
        exact: Optional[Hashable],
        abstract: Optional[Hashable],
    ) -> Optional[LassoCertificate]:
        """Record a configuration; return a certificate if it repeats.

        ``exact`` being ``None`` means the driver (or a component)
        declined to be fingerprinted; ``abstract`` being ``None`` means
        the implementation offers no quotient.  Exact matches are
        preferred when both fire on the same step.
        """
        if step % self.check_every != 0:
            return None
        if exact is not None:
            previous = self._seen_exact.get(exact)
            if previous is not None:
                return LassoCertificate(
                    cycle_start=previous, cycle_end=step, fingerprint_kind="exact"
                )
            self._seen_exact[exact] = step
        if abstract is not None:
            previous = self._seen_abstract.get(abstract)
            if previous is not None:
                return LassoCertificate(
                    cycle_start=previous,
                    cycle_end=step,
                    fingerprint_kind="abstract",
                )
            self._seen_abstract[abstract] = step
        return None

    def reset(self) -> None:
        """Forget all observed configurations.

        Must be called on every *restart* path — any run that begins
        from a fresh (or restored) configuration while reusing the
        detector.  Stale fingerprints from a previous run would match a
        configuration of the new run and fabricate a bogus cross-run
        "lasso"; the liveness search resets its detector at the start
        of every :meth:`~repro.sim.liveness_search.LivenessSearch.runs`
        call, which ``tests/test_liveness_backend.py`` pins down.
        """
        self._seen_exact.clear()
        self._seen_abstract.clear()

    # -- branch bookkeeping (the liveness search) ---------------------------

    def snapshot(self) -> Tuple[Dict[Hashable, int], Dict[Hashable, int]]:
        """The observed-configuration maps, copied.

        A lasso is a repetition *along one run*; a search that branches
        over scheduler choices must therefore fork the detector state at
        every branch point (a repeat across two sibling branches is a
        DAG merge, not a cycle).  ``snapshot``/``restore`` make the
        per-path maps restorable exactly like kernel configurations.
        """
        return (dict(self._seen_exact), dict(self._seen_abstract))

    def restore(
        self, state: Tuple[Dict[Hashable, int], Dict[Hashable, int]]
    ) -> None:
        """Overwrite the maps with a :meth:`snapshot` (copied again, so
        one snapshot may seed many branches)."""
        exact, abstract = state
        self._seen_exact = dict(exact)
        self._seen_abstract = dict(abstract)

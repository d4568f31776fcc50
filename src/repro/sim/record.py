"""Run records: what a simulation produces and how it is summarised.

A :class:`RunResult` carries the externally visible history, per-process
step statistics, the stop reason, and — when the lasso detector fired —
a certificate of the infinite continuation.  Its :meth:`RunResult.summary`
method derives the :class:`~repro.core.properties.ExecutionSummary` that
liveness properties consume, applying one of three semantics:

* **finite, fairness-complete** runs — nobody takes infinitely many
  steps; progressors are the processes whose demands were met
  (``EVENTUAL``: at least one good response; ``REPEATED``: at least one
  good response, or no invocation issued at all);
* **lasso-certified** runs — the run is ``stem · cycle^ω``; steppers are
  the processes stepping in the cycle, progressors the processes with a
  good response in the cycle (``REPEATED``) or anywhere (``EVENTUAL``);
* **horizon** runs — the run hit the step budget; the final window
  (a configurable fraction of the run) approximates the limit, and all
  verdicts carry :attr:`~repro.core.properties.Certainty.HORIZON`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.core.history import History
from repro.core.object_type import ProgressMode
from repro.core.properties import Certainty, ExecutionSummary


@dataclass(frozen=True)
class LassoCertificate:
    """Evidence that the run repeats forever from ``cycle_start``.

    ``fingerprint_kind`` records whether the matched fingerprint was the
    exact global configuration (``"exact"``) or an implementation-provided
    abstraction (``"abstract"``); abstract certificates are sound exactly
    when the abstraction is a bisimulation quotient, which each providing
    implementation documents.
    """

    cycle_start: int
    cycle_end: int
    fingerprint_kind: str

    @property
    def cycle_length(self) -> int:
        return self.cycle_end - self.cycle_start


@dataclass
class ProcessStats:
    """Per-process counters accumulated by the runtime."""

    pid: int
    steps: int = 0
    last_step: int = -1
    invocations: int = 0
    responses: int = 0
    good_responses: int = 0
    good_response_steps: List[int] = field(default_factory=list)
    crashed: bool = False
    pending_at_end: bool = False


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    history: History
    n_processes: int
    total_steps: int
    stop_reason: str
    fairness_complete: bool
    stats: Dict[int, ProcessStats]
    lasso: Optional[LassoCertificate] = None
    driver_name: str = ""
    implementation_name: str = ""

    # -- convenience accessors ------------------------------------------------

    def crashed(self) -> FrozenSet[int]:
        """Processes that crashed during the run."""
        return frozenset(p for p, s in self.stats.items() if s.crashed)

    def correct(self) -> FrozenSet[int]:
        """Processes that did not crash."""
        return frozenset(range(self.n_processes)) - self.crashed()

    def good_responses(self, pid: int) -> int:
        """Count of good responses received by ``pid``."""
        return self.stats[pid].good_responses

    # -- ExecutionSummary derivation -------------------------------------------

    def summary(
        self,
        progress_mode: ProgressMode,
        window_fraction: float = 0.25,
    ) -> ExecutionSummary:
        """Derive the liveness-level summary of this run.

        ``window_fraction`` controls the suffix window used by horizon
        runs (the final fraction of steps standing in for 'the limit').
        """
        correct = self.correct()
        if self.fairness_complete and self.lasso is None:
            progressors = frozenset(
                pid
                for pid in correct
                if self._finite_progress(self.stats[pid], progress_mode)
            )
            return ExecutionSummary(
                n_processes=self.n_processes,
                correct=correct,
                steppers=frozenset(),
                progressors=progressors,
                finite=True,
                certainty=Certainty.PROVED,
                history=self.history,
            )
        if self.lasso is not None:
            start = self.lasso.cycle_start
            steppers = frozenset(
                pid for pid in correct if self.stats[pid].last_step >= start
            )
            progressors = frozenset(
                pid
                for pid in correct
                if self._limit_progress(self.stats[pid], progress_mode, start)
            )
            return ExecutionSummary(
                n_processes=self.n_processes,
                correct=correct,
                steppers=steppers,
                progressors=progressors & steppers
                if progress_mode is ProgressMode.REPEATED
                else progressors,
                finite=False,
                certainty=Certainty.PROVED,
                history=self.history,
            )
        # Horizon semantics: the final window approximates the limit.
        window_start = max(0, int(self.total_steps * (1.0 - window_fraction)))
        steppers = frozenset(
            pid for pid in correct if self.stats[pid].last_step >= window_start
        )
        progressors = frozenset(
            pid
            for pid in correct
            if self._limit_progress(self.stats[pid], progress_mode, window_start)
        )
        if progress_mode is ProgressMode.REPEATED:
            progressors = progressors & steppers
        return ExecutionSummary(
            n_processes=self.n_processes,
            correct=correct,
            steppers=steppers,
            progressors=progressors,
            finite=False,
            certainty=Certainty.HORIZON,
            history=self.history,
        )

    @staticmethod
    def _finite_progress(stats: ProcessStats, mode: ProgressMode) -> bool:
        """Progress in a complete finite execution.

        A process that never invoked anything has no demand and counts as
        progressing (liveness requires good responses only for processes
        that want them); a process with a pending invocation at the end
        of a fairness-complete run is starved by the implementation.
        """
        if stats.pending_at_end:
            return False
        if stats.invocations == 0:
            return True
        return stats.good_responses > 0

    @staticmethod
    def _limit_progress(
        stats: ProcessStats, mode: ProgressMode, window_start: int
    ) -> bool:
        """Progress in an infinite (lasso or horizon) execution."""
        if mode is ProgressMode.EVENTUAL:
            return stats.good_responses > 0
        return any(mark >= window_start for mark in stats.good_response_steps)

    def describe(self) -> str:
        """One-line human-readable account of the run."""
        kind = (
            "finite-fair"
            if self.fairness_complete and self.lasso is None
            else ("lasso" if self.lasso else "horizon")
        )
        good = sum(s.good_responses for s in self.stats.values())
        return (
            f"{self.implementation_name} / {self.driver_name}: "
            f"{self.total_steps} steps, {len(self.history)} events, "
            f"{good} good responses, stop={self.stop_reason} [{kind}]"
        )

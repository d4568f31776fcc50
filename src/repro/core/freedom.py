"""The ``(l,k)``-freedom family (Section 5.1).

The paper combines two parameterised progress requirements:

* ``l``-lock-freedom (independent, minimal): at least ``l`` processes make
  progress when at least ``l`` processes are correct; otherwise all
  correct processes make progress.
* ``k``-obstruction-freedom (dependent, maximal): progress is required
  whenever at most ``k`` processes take infinitely many steps.

``(l,k)``-freedom (Definition 5.1, with ``l ≤ k``) is stated in
conditional form, and the paper also asserts that its execution set equals
``LF_l ∪ OF_k``.  The two statements coincide exactly when
``k``-obstruction-freedom's consequent is read as *all correct processes
make progress* (rather than Taubenfeld's literal *all of the ≤ k stepping
processes make progress*).  This module implements both consequents:

* ``consequent="correct"`` (default) — the reading under which
  ``(l,k) = LF_l ∪ OF_k`` is a theorem (verified by the test suite over
  the full abstract-execution space);
* ``consequent="steppers"`` — the literal reading, under which the union
  and the conditional forms differ on executions where a correct process
  is prevented from taking steps (the tests exhibit such an execution).

All Figure 1 classifications agree under both readings.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from repro.core.properties import ExecutionSummary, LivenessProperty, Verdict


def _lock_freedom_holds(summary: ExecutionSummary, l: int) -> Tuple[bool, str]:
    """The ``l``-lock-freedom consequent on a summary."""
    if len(summary.correct) >= l:
        if len(summary.progressors) >= l:
            return True, f"{len(summary.progressors)} >= {l} processes progress"
        return (
            False,
            f"only {len(summary.progressors)} of the required {l} processes progress",
        )
    starving = summary.correct - summary.progressors
    if starving:
        return (
            False,
            f"fewer than {l} correct processes, yet {sorted(starving)} starve",
        )
    return True, "fewer correct processes than l and all of them progress"


class LLockFreedom(LivenessProperty):
    """``l``-lock-freedom: an independent, minimal progress guarantee.

    ``l = 1`` is lock-freedom; ``l = n`` is wait-freedom (every correct
    process progresses, regardless of how many are correct).
    """

    def __init__(self, l: int):
        if l < 1:
            raise ValueError("l must be at least 1")
        self.l = l
        self.name = f"{l}-lock-freedom"

    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        holds, reason = _lock_freedom_holds(summary, self.l)
        if holds:
            return Verdict.passed(reason, certainty=summary.certainty)
        return Verdict.failed(reason, witness=summary, certainty=summary.certainty)


class KObstructionFreedom(LivenessProperty):
    """``k``-obstruction-freedom: a dependent, maximal progress guarantee.

    Vacuously satisfied by executions in which more than ``k`` processes
    take infinitely many steps.  See the module docstring for the two
    consequent readings.
    """

    def __init__(self, k: int, consequent: str = "correct"):
        if k < 1:
            raise ValueError("k must be at least 1")
        if consequent not in ("correct", "steppers"):
            raise ValueError("consequent must be 'correct' or 'steppers'")
        self.k = k
        self.consequent = consequent
        self.name = f"{k}-obstruction-freedom[{consequent}]"

    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        if len(summary.steppers) > self.k:
            return Verdict.passed(
                f"more than {self.k} eventual steppers: nothing is required",
                certainty=summary.certainty,
            )
        demanded: FrozenSet[int]
        if self.consequent == "correct":
            demanded = summary.correct
        else:
            demanded = summary.steppers
        starving = demanded - summary.progressors
        if starving:
            return Verdict.failed(
                f"at most {self.k} steppers but {sorted(starving)} make no progress",
                witness=summary,
                certainty=summary.certainty,
            )
        return Verdict.passed(
            "obstruction condition satisfied", certainty=summary.certainty
        )


class LKFreedom(LivenessProperty):
    """``(l,k)``-freedom (Definition 5.1), requiring ``l ≤ k``.

    ``semantics="conditional"`` implements Definition 5.1 verbatim:
    executions with more than ``k`` eventual steppers satisfy the property
    vacuously; otherwise the ``l``-lock-freedom consequent applies.

    ``semantics="union"`` implements the execution set ``LF_l ∪ OF_k``,
    with the obstruction consequent chosen by ``of_consequent``.  With the
    default ``of_consequent="correct"`` the two semantics provably
    coincide (see the property tests); the option exists to make the
    difference under the literal Taubenfeld consequent observable.
    """

    def __init__(
        self,
        l: int,
        k: int,
        semantics: str = "conditional",
        of_consequent: str = "correct",
    ):
        if l < 1 or k < 1:
            raise ValueError("l and k must be at least 1")
        if l > k:
            raise ValueError(f"(l,k)-freedom requires l <= k, got ({l},{k})")
        if semantics not in ("conditional", "union"):
            raise ValueError("semantics must be 'conditional' or 'union'")
        self.l = l
        self.k = k
        self.semantics = semantics
        self._lock = LLockFreedom(l)
        self._obstruction = KObstructionFreedom(k, consequent=of_consequent)
        self.name = f"({l},{k})-freedom"
        if semantics != "conditional" or of_consequent != "correct":
            self.name += f"[{semantics};{of_consequent}]"

    def evaluate(self, summary: ExecutionSummary) -> Verdict:
        if self.semantics == "union":
            lock = self._lock.evaluate(summary)
            if lock.holds:
                return lock
            obstruction = self._obstruction.evaluate(summary)
            if obstruction.holds:
                return obstruction
            return Verdict.failed(
                f"neither {self._lock.name} nor {self._obstruction.name} holds: "
                f"{lock.reason}; {obstruction.reason}",
                witness=summary,
                certainty=summary.certainty,
            )
        # Conditional form of Definition 5.1.
        if len(summary.steppers) > self.k:
            return Verdict.passed(
                f"more than {self.k} eventual steppers: nothing is required",
                certainty=summary.certainty,
            )
        holds, reason = _lock_freedom_holds(summary, self.l)
        if holds:
            return Verdict.passed(reason, certainty=summary.certainty)
        return Verdict.failed(reason, witness=summary, certainty=summary.certainty)

    @staticmethod
    def grid(n: int, **kwargs) -> List["LKFreedom"]:
        """All ``(l,k)``-freedom properties with ``1 <= l <= k <= n``.

        The domain of Figure 1's two panels.
        """
        return [
            LKFreedom(l, k, **kwargs)
            for k in range(1, n + 1)
            for l in range(1, k + 1)
        ]

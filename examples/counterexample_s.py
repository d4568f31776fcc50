"""Section 5.3 end to end: the safety property that defeats
(l,k)-freedom's weakest-exclusion question.

1. Runs Algorithm 1 (I(1,2)) under two-process schedules: commits
   happen, the history satisfies S = opacity + timestamp rule, and
   (1,2)-freedom holds (Lemma 5.4).
2. Unleashes the three-process concurrent-start adversary: all three
   same-numbered transactions abort, forever, with a proved lasso —
   (1,3)-freedom excludes S.
3. Shows the ordering facts that finish the argument: (1,2) is weaker
   than both (1,3) and (2,2), which are incomparable — so the set of
   excluding (l,k)-freedom properties has no weakest member.

Usage::

    python examples/counterexample_s.py
"""

from repro.adversaries.counterexample import CounterexampleAdversary
from repro.algorithms.tm import I12TransactionalMemory
from repro.analysis.experiments import run_sec53
from repro.core.freedom import LKFreedom
from repro.core.lattice import LivenessOrder
from repro.objects.counterexample_s import counterexample_safety
from repro.objects.tm import tm_object_type
from repro.sim import ComposedDriver, GroupScheduler, TransactionWorkload, play


def main() -> None:
    safety = counterexample_safety()
    mode = tm_object_type().progress_mode

    print("1. I(1,2) under a two-process schedule (Lemma 5.4):")
    result = play(
        I12TransactionalMemory(3, variables=(0,)),
        ComposedDriver(GroupScheduler([0, 1]), TransactionWorkload(3, 2, variables=(0,))),
        max_steps=2_000,
    )
    summary = result.summary(mode)
    print(f"   {result.describe()}")
    print(f"   S holds: {bool(safety.check_history(result.history))}")
    print(f"   (1,2)-freedom: {bool(LKFreedom(1, 2).evaluate(summary))}")
    print()

    print("2. The three-process adversary (S's timestamp rule bites):")
    adversary = CounterexampleAdversary((0, 1, 2))
    result = play(
        I12TransactionalMemory(3, variables=(0,)), adversary, max_steps=10_000
    )
    summary = result.summary(mode)
    print(f"   {result.describe()}")
    print(f"   commits: {sum(result.stats[p].good_responses for p in range(3))}")
    print(f"   S holds on the play: {bool(safety.check_history(result.history))}")
    verdict = LKFreedom(1, 3).evaluate(summary)
    print(f"   (1,3)-freedom: {bool(verdict)} ({verdict.certainty.value})")
    print()

    print("3. Order facts (no weakest excluding (l,k)-freedom):")
    order = LivenessOrder(
        [LKFreedom(1, 2), LKFreedom(1, 3), LKFreedom(2, 2)], 3
    )
    print(
        "   (1,3) vs (2,2):",
        order.relate(LKFreedom(1, 3), LKFreedom(2, 2)).kind,
    )
    print(
        "   (1,2) weaker than (1,3):",
        order.is_stronger(LKFreedom(1, 3), LKFreedom(1, 2)),
    )
    print(
        "   (1,2) weaker than (2,2):",
        order.is_stronger(LKFreedom(2, 2), LKFreedom(1, 2)),
    )
    print()

    print("Full experiment (paper-vs-measured):")
    print(run_sec53(n=3).render())


if __name__ == "__main__":
    main()

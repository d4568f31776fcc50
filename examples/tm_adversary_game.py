"""The Section 4.1 TM adversary, played move by move.

Pits the paper's three-step local-progress adversary against three TMs:

* AGP (lock-free, opaque) — the victim starves while the helper commits
  forever: local progress and (2,2)-freedom fall, lock-freedom stands;
* the trivial always-abort TM — defeated in three steps with a proved
  lasso;
* the paper's I(1,2) — same starvation as AGP (with n=2 the timestamp
  rule never fires, so I(1,2) behaves exactly like its AGP base).

Usage::

    python examples/tm_adversary_game.py
"""

from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.algorithms.tm import (
    AgpTransactionalMemory,
    I12TransactionalMemory,
    TrivialTransactionalMemory,
)
from repro.core.freedom import LKFreedom
from repro.core.liveness import LocalProgress, LockFreedom
from repro.objects.opacity import OpacityChecker
from repro.objects.tm import tm_object_type
from repro.sim import play


def game(name, implementation, max_steps=400):
    adversary = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
    result = play(implementation, adversary, max_steps=max_steps)
    mode = tm_object_type().progress_mode
    summary = result.summary(mode)
    print(f"== adversary vs {name}")
    print(f"   {result.describe()}")
    print(f"   victim commits: {result.stats[0].good_responses}, "
          f"helper commits: {result.stats[1].good_responses}")
    print(f"   escaped: {adversary.escaped}")
    opacity = OpacityChecker().check_history(result.history)
    print(f"   opacity on the play: {bool(opacity)}")
    for prop in (LocalProgress(), LKFreedom(2, 2), LKFreedom(1, 2), LockFreedom()):
        verdict = prop.evaluate(summary)
        print(f"   {prop.name}: {bool(verdict)} ({verdict.certainty.value})")
    print()


def main() -> None:
    game("AGP (lock-free)", AgpTransactionalMemory(2, variables=(0,)))
    game("trivial always-abort TM", TrivialTransactionalMemory(2))
    game("I(1,2) / Algorithm 1", I12TransactionalMemory(2, variables=(0,)))
    print(
        "Every opaque TM loses some liveness to this strategy — but only\n"
        "the biprogressing properties: the plays all satisfy (1,2)-freedom\n"
        "(except the trivial TM, which satisfies nothing demanding a\n"
        "commit).  That asymmetry is exactly Theorem 5.3's boundary."
    )


if __name__ == "__main__":
    main()

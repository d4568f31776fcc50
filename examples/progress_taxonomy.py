"""The Herlihy–Shavit progress taxonomy, live (Section 5.1's framing).

Shows each cell of the maximal/minimal × dependent/independent grid on
real implementations:

* wait-freedom (maximal, independent)  — CAS consensus decides under
  every schedule; exhaustive interleaving check included;
* lock-freedom (minimal, independent)  — AGP TM: someone always
  commits, but the three-step adversary starves a chosen victim;
* obstruction-freedom (maximal, dependent) — the intent TM commits
  solo but livelocks in lockstep, separating it from lock-freedom;
* starvation-freedom for locks — bakery grants every contender under
  fair schedules, while a TAS lock admits a schedule that starves one
  forever.

Usage::

    python examples/progress_taxonomy.py
"""

from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.algorithms.consensus import CasConsensus
from repro.algorithms.locks import GRANTED, BakeryLock, TasLock
from repro.algorithms.tm import AgpTransactionalMemory, IntentTransactionalMemory
from repro.core.liveness import LockFreedom, WaitFreedom
from repro.core.object_type import ProgressMode
from repro.core.progress import TAXONOMY
from repro.objects.consensus import AgreementValidity
from repro.sim import (
    ComposedDriver,
    LockstepScheduler,
    RoundRobinScheduler,
    ScriptedWorkload,
    SoloScheduler,
    TransactionWorkload,
    check_all_histories,
    play,
    propose_workload,
)


def banner(name: str) -> None:
    cell = TAXONOMY.get(name)
    suffix = f"  [{cell.describe()}]" if cell else ""
    print(f"== {name}{suffix}")


def main() -> None:
    banner("wait-freedom")
    report = check_all_histories(
        lambda: CasConsensus(2),
        {0: [("propose", (0,))], 1: [("propose", (1,))]},
        AgreementValidity(),
    )
    print(
        f"   CAS consensus: every one of {report.runs_checked} interleavings "
        f"decides safely (exhaustive)."
    )
    result = play(
        CasConsensus(2),
        ComposedDriver(LockstepScheduler([0, 1]), propose_workload([0, 1])),
        max_steps=1_000,
    )
    summary = result.summary(ProgressMode.EVENTUAL)
    print(f"   lockstep contention: wait-freedom {bool(WaitFreedom().evaluate(summary))}")
    print()

    banner("lock-freedom")
    adversary = TMLocalProgressAdversary(victim=0, helper=1, variable=0)
    result = play(AgpTransactionalMemory(2, variables=(0,)), adversary, max_steps=400)
    summary = result.summary(ProgressMode.REPEATED)
    print(
        f"   AGP under the starver: victim commits "
        f"{result.stats[0].good_responses}, helper "
        f"{result.stats[1].good_responses} — lock-freedom "
        f"{bool(LockFreedom().evaluate(summary))}, wait-freedom "
        f"{bool(WaitFreedom().evaluate(summary))}."
    )
    print()

    banner("obstruction-freedom")
    solo = play(
        IntentTransactionalMemory(2, variables=(0,)),
        ComposedDriver(SoloScheduler(0), TransactionWorkload(2, 2, variables=(0,))),
        max_steps=2_000,
    )
    contended = play(
        IntentTransactionalMemory(2, variables=(0,)),
        ComposedDriver(
            LockstepScheduler([0, 1]), TransactionWorkload(2, 1, variables=(0,))
        ),
        max_steps=2_000,
    )
    print(
        f"   intent TM solo: {solo.stats[0].good_responses} commits; "
        f"lockstep: {sum(s.good_responses for s in contended.stats.values())} "
        "commits (livelock) — obstruction-free but not lock-free."
    )
    print()

    banner("starvation-freedom (locks)")
    workload = ScriptedWorkload(
        {pid: [("acquire", ()), ("release", ())] * 3 for pid in range(2)}
    )
    result = play(
        BakeryLock(2),
        ComposedDriver(RoundRobinScheduler(), workload),
        max_steps=20_000,
    )
    grants = {
        pid: sum(1 for e in result.history.responses(pid) if e.value == GRANTED)
        for pid in range(2)
    }
    print(f"   bakery under round-robin: grants {grants} — everyone served.")
    print(
        "   (the TAS lock admits a schedule granting one process forever;\n"
        "    see tests/test_locks.py::TestStarvationSeparation)"
    )


if __name__ == "__main__":
    main()

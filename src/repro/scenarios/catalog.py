"""The shipped scenario catalog.

Every named instance the repository verifies lives here — the former
fuzz workload registry (same ids, same plans, same expectations, so
fixed-seed fuzz runs reproduce exactly), widened with the remaining
implementations of the analysis registries (TAS/silent consensus, the
trivial, global-lock, and intent TMs).  Registration happens at import
time; :mod:`repro.scenarios` imports this module, so
``from repro.scenarios import iter_scenarios`` always sees the full
catalog.

The exhaustive benchmarks and the CI gates (``benchmarks/
bench_exhaustive.py``, ``benchmarks/gates.py``) take their workloads
from here, so ``agp-opacity`` is the one instance whose snapshot-vs-
replay, fuzz-vs-exhaustive and cached-verify ratios are gated — the
comparisons are therefore like for like.  The
``-deep`` and 3-process variants open the regime exhaustive search
cannot reach; they are fuzz-only (no ``small`` tag).

Tag vocabulary: ``consensus``/``tm`` (object kind), ``small``
(exhaustible, hence oracle-eligible), ``satisfying``/``violating``
(the expected *safety* verdict), ``registers-only`` (the hypothesis of
the register-model corollaries), ``liveness`` (carries a liveness
property and is runnable under ``backend=liveness`` — its expected
liveness verdict is ``Scenario.expect_liveness_violation``, declared
independently of the safety expectation: the paper's headline cases
are exactly *safety holds, liveness violated*).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.adversaries.consensus_flp import LockstepConsensusAdversary
from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.algorithms.consensus import (
    CasConsensus,
    CommitAdoptConsensus,
    InventingConsensus,
    SilentConsensus,
    StubbornConsensus,
    TasConsensus,
)
from repro.algorithms.tm import (
    AgpTransactionalMemory,
    GlobalLockTransactionalMemory,
    I12TransactionalMemory,
    IntentTransactionalMemory,
    TrivialTransactionalMemory,
)
from repro.core.liveness import LocalProgress, WaitFreedom
from repro.objects.consensus import AgreementValidity
from repro.objects.opacity import OpacityChecker
from repro.scenarios.registry import register
from repro.scenarios.scenario import (
    TAG_LIVENESS,
    TAG_SATISFYING,
    TAG_SMALL,
    TAG_VIOLATING,
    Bounds,
    Scenario,
)
from repro.sim.explore import InvocationPlan

PROPOSE_PLAN: InvocationPlan = {0: [("propose", (0,))], 1: [("propose", (1,))]}

TM_PLAN: InvocationPlan = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}

TM_DEEP_PLAN: InvocationPlan = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ()), ("start", ()), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}

TM_3P_PLAN: InvocationPlan = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("write", (0, 2)), ("tryC", ())],
    2: [("start", ()), ("read", (0,)), ("tryC", ())],
}

#: The all-abort TM rejects ``start`` itself, so the only well-formed
#: *static* plan against it is repeated start attempts (the reactive
#: ``TransactionWorkload`` of the battery experiments adapts instead).
TM_START_ONLY_PLAN: InvocationPlan = {
    0: [("start", ()), ("start", ())],
    1: [("start", ()), ("start", ())],
}


def _scenario(
    scenario_id: str,
    factory,
    plan: InvocationPlan,
    safety_factory,
    kind: str,
    expect_violation: bool = False,
    small: bool = False,
    extra_tags: Tuple[str, ...] = (),
    bounds: Optional[Bounds] = None,
    notes: str = "",
    liveness_factory=None,
    adversary_factory=None,
    expect_liveness_violation: bool = False,
) -> Scenario:
    """Build-and-register helper keeping the derived tags consistent."""
    tags = (kind,)
    tags += (TAG_VIOLATING,) if expect_violation else (TAG_SATISFYING,)
    if small:
        tags += (TAG_SMALL,)
    if liveness_factory is not None:
        tags += (TAG_LIVENESS,)
    tags += extra_tags
    return register(
        Scenario(
            scenario_id=scenario_id,
            factory=factory,
            plan=plan,
            safety_factory=safety_factory,
            bounds=bounds if bounds is not None else Bounds(),
            tags=tags,
            expect_violation=expect_violation,
            notes=notes,
            liveness_factory=liveness_factory,
            adversary_factory=adversary_factory,
            expect_liveness_violation=expect_liveness_violation,
        )
    )


# -- consensus ---------------------------------------------------------------

_scenario(
    "cas-consensus",
    lambda: CasConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    small=True,
    notes="wait-free consensus; satisfying oracle instance",
)
_scenario(
    "tas-consensus",
    lambda: TasConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    small=True,
    notes="wait-free for 2 processes (consensus number 2)",
)
_scenario(
    "commit-adopt-consensus",
    lambda: CommitAdoptConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    extra_tags=("registers-only",),
    notes="obstruction-free register consensus; its round counter "
    "blows up the depth-64 configuration graph (~7.5k maximal "
    "runs, tens of seconds exhaustive), so it is fuzz-only",
)
_scenario(
    "silent-consensus",
    lambda: SilentConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    small=True,
    extra_tags=("registers-only",),
    notes="never responds (Theorem 4.9's trivial implementation); "
    "safety holds vacuously on every interleaving",
)
_scenario(
    "stubborn-consensus",
    lambda: StubbornConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    expect_violation=True,
    small=True,
    extra_tags=("registers-only",),
    notes="planted agreement violation (negative fixture)",
)
_scenario(
    "inventing-consensus",
    lambda: InventingConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    expect_violation=True,
    small=True,
    extra_tags=("registers-only",),
    notes="planted validity violation (negative fixture)",
)

# -- transactional memory ----------------------------------------------------

_scenario(
    "agp-opacity",
    lambda: AgpTransactionalMemory(2, variables=(0,)),
    TM_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    notes="the reference TM instance of every CI gate (benchmarks/gates.py)",
)
_scenario(
    "i12-opacity",
    lambda: I12TransactionalMemory(2, variables=(0,)),
    TM_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    notes="the paper's Algorithm 1 under the reference TM plan",
)
_scenario(
    "trivial-opacity",
    lambda: TrivialTransactionalMemory(2, variables=(0,)),
    TM_START_ONLY_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    notes="aborts everything (even start, hence the start-only plan); "
    "the degenerate safe corner",
)
_scenario(
    "global-lock-opacity",
    lambda: GlobalLockTransactionalMemory(2, variables=(0,)),
    TM_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    notes="blocking TM; opaque, marks the non-blocking boundary",
)
_scenario(
    "intent-opacity",
    lambda: IntentTransactionalMemory(2, variables=(0,)),
    TM_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    notes="obstruction-free intent TM; livelocks under contention "
    "but every history stays opaque",
)
_scenario(
    "agp-opacity-deep",
    lambda: AgpTransactionalMemory(2, variables=(0,)),
    TM_DEEP_PLAN,
    OpacityChecker,
    kind="tm",
    notes="double-depth plan; exhaustive search takes ~10s here",
)
_scenario(
    "agp-opacity-3p",
    lambda: AgpTransactionalMemory(3, variables=(0,)),
    TM_3P_PLAN,
    OpacityChecker,
    kind="tm",
    notes="3-process regime beyond the exhaustive benchmarks",
)

# -- liveness: the paper's safety–liveness exclusion -------------------------
#
# Theorem 5.3's negative half operationalised: the Section 4.1 three-step
# adversary (F1, and its process-swapped twin F2) starves its victim
# against every opaque TM while the history stays opaque — so each
# scenario below is *safety-satisfying* under the safety backends and
# *liveness-violating* under ``backend=liveness``.  Against the trivial
# always-abort TM the strategy state repeats and the verdict is an exact
# lasso-certified proof; against the committing TMs the stored read
# values grow without bound, so the verdict is horizon evidence (both
# documented in the tm_local_progress module docstring).


def _f1_adversary():
    return TMLocalProgressAdversary(victim=0, helper=1, variable=0)


def _f2_adversary():
    return TMLocalProgressAdversary(victim=1, helper=0, variable=0)


_scenario(
    "trivial-local-progress-f1",
    lambda: TrivialTransactionalMemory(2, variables=(0,)),
    TM_START_ONLY_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    liveness_factory=LocalProgress,
    adversary_factory=_f1_adversary,
    expect_liveness_violation=True,
    notes="F1 adversary vs the always-abort TM: exact lasso, the "
    "one-command starvation proof of the paper's headline",
)
_scenario(
    "trivial-local-progress-f2",
    lambda: TrivialTransactionalMemory(2, variables=(0,)),
    TM_START_ONLY_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    liveness_factory=LocalProgress,
    adversary_factory=_f2_adversary,
    expect_liveness_violation=True,
    notes="the process-swapped F2 twin (Corollary 4.6's second set)",
)
_scenario(
    "agp-local-progress",
    lambda: AgpTransactionalMemory(2, variables=(0,)),
    TM_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    liveness_factory=LocalProgress,
    adversary_factory=_f1_adversary,
    expect_liveness_violation=True,
    notes="F1 starves the victim against AGP; stored read values grow, "
    "so the verdict is horizon evidence rather than a lasso",
)
_scenario(
    "i12-local-progress",
    lambda: I12TransactionalMemory(2, variables=(0,)),
    TM_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    liveness_factory=LocalProgress,
    adversary_factory=_f1_adversary,
    expect_liveness_violation=True,
    notes="F1 vs the paper's Algorithm I(1,2): (1,2)-freedom survives "
    "but local progress falls (horizon evidence)",
)
_scenario(
    "trivial-local-progress-schedules",
    lambda: TrivialTransactionalMemory(2, variables=(0,)),
    TM_START_ONLY_PLAN,
    OpacityChecker,
    kind="tm",
    small=True,
    liveness_factory=LocalProgress,
    expect_liveness_violation=True,
    notes="no adversary: exhaustive branching over every scheduler "
    "choice of the start-only plan; every fair schedule starves "
    "both processes (finite-certificate proof)",
)
_scenario(
    "commit-adopt-starvation",
    lambda: CommitAdoptConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    extra_tags=("registers-only",),
    liveness_factory=WaitFreedom,
    adversary_factory=LockstepConsensusAdversary,
    expect_liveness_violation=True,
    notes="the CIL lockstep adversary vs commit-adopt: abstract-lasso "
    "proof that neither proposer ever decides (Theorem 5.2's "
    "negative half); fuzz-only for the safety backends like "
    "commit-adopt-consensus",
)
_scenario(
    "cas-escapes-lockstep",
    lambda: CasConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    small=True,
    liveness_factory=WaitFreedom,
    adversary_factory=LockstepConsensusAdversary,
    expect_liveness_violation=False,
    notes="the escaping implementation: CAS consensus decides under "
    "the same lockstep adversary, so wait-freedom holds (proof)",
)
_scenario(
    "cas-wait-freedom-schedules",
    lambda: CasConsensus(2),
    PROPOSE_PLAN,
    AgreementValidity,
    kind="consensus",
    small=True,
    liveness_factory=WaitFreedom,
    expect_liveness_violation=False,
    notes="wait-freedom over every scheduler choice of the propose "
    "plan: all maximal runs complete fairly with both deciding",
)

"""Exhaustive interleaving exploration: model-checking small workloads.

Random schedules sample the interleaving space; for small workloads the
space can be *exhausted*.  :func:`explore_histories` enumerates every
schedule of a fixed invocation plan (each process's operation sequence)
up to a depth bound, deduplicating configurations by fingerprint so the
exponential tree collapses to the reachable configuration DAG, and
yields the history of every maximal run.  :func:`check_all_histories`
wraps it into a verdict: a safety property holds on *every* reachable
interleaving, or here is the counterexample schedule.

The search itself is the unified exploration engine
(:class:`repro.engine.explorer.KernelExplorer`); this module only
translates the invocation plan into the engine's callbacks.  The
default ``snapshot`` mode expands each DAG edge by restoring an
incremental snapshot of the kernel configuration — O(configuration)
per node.  The seed's
replay-based expansion (re-execute the run from scratch per edge,
O(depth) per node) remains available as ``mode="replay"``, and
``mode="parity"`` runs both in lockstep and fails loudly on the first
divergence.  The search is serial; it scales through partial-order
reduction (``reduction="dpor"``), not through a process pool.

The fingerprint is the same exact-configuration fingerprint the lasso
detector uses — sound dedup under the determinism contract of
:mod:`repro.sim.kernel`.

Used by the test suite to verify, e.g., that *every* interleaving of
two AGP transactions is opaque and that every interleaving of two
CAS-consensus proposals decides consistently — exhaustive guarantees no
battery of random seeds can give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.history import History
from repro.core.properties import SafetyProperty
from repro.engine.config import KernelConfig
from repro.engine.dpor import DporParityError, check_reduction
from repro.engine.explorer import KernelExplorer, SearchBudgetExceeded
from repro.obs.recorder import active as _obs_active
from repro.sim.drivers import Decision, InvokeDecision, StepDecision
from repro.sim.kernel import Implementation

#: One process's planned invocations: a list of (operation, args).
InvocationPlan = Dict[int, List[Tuple[str, Tuple[Any, ...]]]]

#: A schedule is a list of decisions: ("invoke", pid) or ("step", pid).
Choice = Tuple[str, int]


@dataclass
class ExploredRun:
    """One maximal run of the exploration."""

    schedule: Tuple[Choice, ...]
    history: History
    complete: bool  # all planned invocations issued and completed


@dataclass
class ExplorationReport:
    """Outcome of checking a safety property over all interleavings."""

    property_name: str
    runs_checked: int
    counterexample: Optional[ExploredRun] = None
    #: Set only by ``reduction="dpor-parity"``: how many runs the
    #: unreduced search checked (the reduced count is ``runs_checked``).
    runs_checked_unreduced: Optional[int] = None

    @property
    def holds(self) -> bool:
        return self.counterexample is None


def plan_successors(plan: InvocationPlan) -> Callable[[KernelConfig], List]:
    """Engine callback: legal labelled decisions under the plan.

    A pending process may step; an idle, uncrashed process with planned
    invocations left may invoke its next one.  The cursor is the
    process's invocation count — the runtime already tracks it.

    Public because the schedule fuzzer (:mod:`repro.fuzz`) walks the
    same labelled decision space the exhaustive engine enumerates — one
    successor relation, two search disciplines.
    """

    # Labels and decisions are immutable, so each (pid) step and each
    # (pid, cursor) invocation is built once and shared by every call.
    pids = sorted(plan)
    steps = {pid: (("step", pid), StepDecision(pid)) for pid in pids}
    invokes = {
        pid: [
            (("invoke", pid), InvokeDecision(pid, operation, args))
            for operation, args in plan[pid]
        ]
        for pid in pids
    }

    def successors(config: KernelConfig) -> List[Tuple[Choice, Decision]]:
        runtime = config.runtime
        out: List[Tuple[Choice, Decision]] = []
        for pid in pids:
            state = runtime.processes[pid]
            if state.crashed:
                continue
            if state.frame is not None:
                out.append(steps[pid])
            else:
                cursor = runtime.stats[pid].invocations
                if cursor < len(invokes[pid]):
                    out.append(invokes[pid][cursor])
        return out

    return successors


def _plan_complete(config_pending: Callable[[int], bool], invocations_of, plan) -> bool:
    return all(
        invocations_of(pid) >= len(plan[pid]) and not config_pending(pid)
        for pid in plan
    )


def explore_histories(
    implementation_factory: Callable[[], Implementation],
    plan: InvocationPlan,
    max_depth: int = 64,
    max_configurations: int = 100_000,
    mode: str = "snapshot",
    reduction: str = "none",
) -> Iterator[ExploredRun]:
    """Yield one run per maximal schedule (modulo configuration dedup).

    Deduplication merges schedules that reach the same configuration,
    so each *configuration* is expanded once; the histories yielded are
    those of representatives of maximal runs.  Since safety properties
    are prefix-closed and history membership depends only on the events
    (determined by the configuration path), checking the yielded
    histories covers every reachable interleaving's history up to the
    dedup equivalence.

    The dedup key is the configuration *and* the history: two
    interleavings can commute to the same configuration while their
    histories differ in real-time order (e.g. response-before-invocation
    vs invocation-before-response), and safety verdicts depend on that
    order.  Including the event sequence keeps dedup sound — equal
    history means equal safety obligations, equal configuration means
    equal futures — while still collapsing the dominant explosion
    source: permutations of internal steps that emit no events.

    ``reduction="dpor"`` additionally prunes interleavings that are
    equivalent up to commutation of independent decisions — including
    event-order permutations the history-carrying dedup key cannot merge
    — via sleep sets over kernel-reported footprints
    (:mod:`repro.engine.dpor`).  The runs yielded are then Mazurkiewicz
    *representatives*: every safety verdict is preserved, but the set of
    histories is a (much smaller) subset of the unreduced one.
    """
    check_reduction(reduction, ("none", "dpor"))
    successors = plan_successors(plan)
    try:
        explorer = KernelExplorer(
            implementation_factory,
            successors,
            mode=mode,
            strategy="dfs",
            max_depth=max_depth,
            max_configurations=max_configurations,
            reduction=reduction,
        )
        for visit in explorer.run():
            run = _visit_to_run(visit.schedule, visit.choices, visit.depth,
                                max_depth, visit.config, plan)
            if run is not None:
                yield run
    except SearchBudgetExceeded:
        # Re-raise with the exploration-level budget in the message; the
        # type (a RuntimeError subclass) is part of the API — the verify
        # facade turns it into a ``budget-exhausted`` verdict.
        raise SearchBudgetExceeded(
            f"exploration exceeded {max_configurations} configurations"
        ) from None


def _visit_to_run(
    schedule, choices, depth, max_depth, config: KernelConfig, plan
) -> Optional[ExploredRun]:
    """Maximal-run filter: leaves are depth-bounded or choice-free."""
    if choices and depth < max_depth:
        return None
    return ExploredRun(
        schedule=tuple(schedule),
        history=config.history(),
        complete=_plan_complete(config.is_pending, config.invocations_of, plan),
    )


def check_all_histories(
    implementation_factory: Callable[[], Implementation],
    plan: InvocationPlan,
    safety: SafetyProperty,
    max_depth: int = 64,
    max_configurations: int = 100_000,
    mode: str = "snapshot",
    reduction: str = "none",
) -> ExplorationReport:
    """Check a safety property over every reachable interleaving.

    ``reduction="dpor"`` checks one representative per commutation class
    (see :func:`explore_histories`); ``reduction="dpor-parity"`` runs
    the unreduced and reduced searches and raises
    :class:`~repro.engine.dpor.DporParityError` unless both agree on the
    verdict and on counterexample reachability — the executable form of
    the reduction's soundness claim.  The parity report returned is the
    reduced one."""
    if reduction == "dpor-parity":
        unreduced = check_all_histories(
            implementation_factory, plan, safety, max_depth,
            max_configurations, mode=mode,
        )
        reduced = check_all_histories(
            implementation_factory, plan, safety, max_depth,
            max_configurations, mode=mode, reduction="dpor",
        )
        if unreduced.holds != reduced.holds:
            raise DporParityError(
                f"verdict divergence on {safety.name}: unreduced "
                f"{'holds' if unreduced.holds else 'violated'} "
                f"({unreduced.runs_checked} runs) vs dpor "
                f"{'holds' if reduced.holds else 'violated'} "
                f"({reduced.runs_checked} runs)"
            )
        reduced.runs_checked_unreduced = unreduced.runs_checked
        return reduced
    runs_checked = 0
    counterexample: Optional[ExploredRun] = None
    rec = _obs_active()
    for run in explore_histories(
        implementation_factory,
        plan,
        max_depth,
        max_configurations,
        mode=mode,
        reduction=reduction,
    ):
        runs_checked += 1
        if rec is None:
            holds = safety.check_history(run.history).holds
        else:
            rec.count("safety/checks")
            with rec.span("safety/check"):
                holds = safety.check_history(run.history).holds
        if not holds:
            counterexample = run
            break
    return ExplorationReport(
        property_name=safety.name,
        runs_checked=runs_checked,
        counterexample=counterexample,
    )

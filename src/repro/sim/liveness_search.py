"""Branching liveness exploration: classify every maximal run.

Safety backends judge *histories*; the liveness backend judges *runs* —
who keeps stepping, who keeps getting good responses.  This module
drives a schedule policy (an adversary strategy, or unrestricted
scheduler choice over an invocation plan) through the snapshot engine's
:class:`~repro.engine.config.KernelConfig`, branching exhaustively over
every choice the policy offers, and classifies each maximal run:

* **lasso** — the per-path :class:`~repro.sim.lasso.LassoDetector`
  found a repeated configuration: the run is ``stem · cycle^ω``, a
  genuine infinite execution, and the derived
  :class:`~repro.core.properties.ExecutionSummary` is exact
  (``Certainty.PROVED``).
* **finite** — the policy stopped fairly with nothing in flight: a
  complete finite execution, also exact.
* **horizon** — the step horizon truncated the run: the summary is
  approximate (``Certainty.HORIZON``).

Engine budget overruns raise
:class:`~repro.engine.explorer.SearchBudgetExceeded`, which the
``verify`` facade folds into its ``budget-exhausted`` outcome.

This is the one place a run is judged a lasso: :func:`repro.sim.runtime.play`
runs every battery and experiment play as the straight-line case of
this search (an :class:`AdversaryPolicy` over the play's driver, with a
configuration budget equal to the step horizon).

Branch bookkeeping
------------------
A lasso is a repetition *along one run*, so the detector state forks at
every branch point (``LassoDetector.snapshot``/``restore``) — a repeat
across sibling branches is a DAG merge, never a cycle.  Branching
policies additionally deduplicate merged configurations: the dedup key
extends the lasso fingerprint with the per-process
invocation/response/good-response counters, so a *genuine* cycle (whose
revisit always differs in those counters — a cycle that changed nothing
would be empty) is never mistaken for a merge, while schedules that
commute to the same liveness-relevant state collapse to one
representative.  Horizon classifications of merged schedules can differ
only in step *timing* (the suffix-window approximation), which carries
``Certainty.HORIZON`` precisely because it is approximate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.events import Response
from repro.core.history import History
from repro.engine.config import KernelConfig
from repro.engine.dpor import Sleep, SleepSets, check_reduction
from repro.engine.explorer import SearchBudgetExceeded
from repro.sim.drivers import (
    Decision,
    Driver,
    InvokeDecision,
    StepDecision,
    StopDecision,
)
from repro.obs.recorder import active as _obs_active
from repro.sim.lasso import LassoDetector
from repro.sim.record import ProcessStats, RunResult
from repro.sim.runtime import abstract_state_fingerprint

#: How a maximal run ended (mirrors ``RunResult``'s stop semantics).
RUN_KINDS = ("lasso", "finite", "horizon")


@dataclass
class LivenessRun:
    """One classified maximal run of the search."""

    #: The exact decision sequence that produced the run (the stem+cycle
    #: split for lasso runs is ``decisions[:cycle_start]`` /
    #: ``decisions[cycle_start:cycle_end]``).
    decisions: Tuple[Decision, ...]
    result: RunResult
    kind: str  # one of RUN_KINDS
    #: Whether the policy reported the implementation escaped its
    #: strategy (adversary policies only).
    escaped: bool = False


class SchedulePolicy(ABC):
    """What the liveness search consults each step.

    A policy owns the *choice structure* of the explored runs: given the
    runtime view it returns either the legal next decisions (the search
    branches over all of them) or a :class:`StopDecision` ending the
    run.  Policies must be deterministic functions of their captured
    state plus the view — the search re-derives ``options`` after every
    branch restore.
    """

    name: str = "policy"
    #: Branching policies opt into configuration dedup (merged schedules
    #: collapse to one representative); adversary strategies are
    #: fan-out-1 and every step of every path is classified.
    branching: bool = False

    @abstractmethod
    def options(self, view) -> Union[StopDecision, List[Decision]]:
        """Legal next decisions, or a stop ending the run."""

    def fingerprint(self, view) -> Optional[Hashable]:
        """Policy part of the lasso/dedup fingerprint (``None`` disables
        both for runs under this policy)."""
        return None

    def capture(self) -> Any:
        """Restorable policy state (branch bookkeeping)."""
        return None

    def restore(self, state: Any) -> None:
        """Restore a :meth:`capture` result."""

    def reset(self) -> None:
        """Return to the initial state (fresh search)."""

    @property
    def escaped(self) -> bool:
        """Whether the implementation escaped the strategy."""
        return False


class AdversaryPolicy(SchedulePolicy):
    """Wrap an adversary :class:`~repro.sim.drivers.Driver` as a policy.

    Adversary strategies decide both schedule and inputs, so their
    fan-out is one — the search walks a single deterministic trajectory
    per strategy, certified by the lasso detector whenever driver and
    implementation state cooperate.
    """

    def __init__(self, driver: Driver):
        self.driver = driver
        self.name = getattr(driver, "name", "adversary")

    def options(self, view) -> Union[StopDecision, List[Decision]]:
        decision = self.driver.decide(view)
        if isinstance(decision, StopDecision):
            return decision
        return [decision]

    def fingerprint(self, view) -> Optional[Hashable]:
        return self.driver.fingerprint()

    def capture(self) -> Any:
        return self.driver.capture_state()

    def restore(self, state: Any) -> None:
        self.driver.restore_state(state)

    def reset(self) -> None:
        self.driver.reset()

    @property
    def escaped(self) -> bool:
        return bool(getattr(self.driver, "escaped", False))


class PlanPolicy(SchedulePolicy):
    """Branch over *every* scheduler choice of an invocation plan.

    The liveness counterpart of
    :func:`repro.sim.explore.plan_successors`: a pending process may
    step, an idle uncrashed process with planned invocations left may
    invoke its next one, and the search explores all of it.  The run
    stops — fairly iff nothing is in flight — when nobody has a move,
    exactly like a :class:`~repro.sim.drivers.ComposedDriver` would.
    """

    branching = True

    def __init__(self, plan: Dict[int, List[Tuple[str, Tuple[Any, ...]]]]):
        self.plan = {pid: list(ops) for pid, ops in plan.items()}
        self._pids = sorted(self.plan)
        self.name = "plan-schedules"

    def options(self, view) -> Union[StopDecision, List[Decision]]:
        out: List[Decision] = []
        for pid in self._pids:
            if view.is_crashed(pid):
                continue
            if view.is_pending(pid):
                out.append(StepDecision(pid))
            else:
                cursor = view.invocation_count(pid)
                if cursor < len(self.plan[pid]):
                    operation, args = self.plan[pid][cursor]
                    out.append(InvokeDecision(pid, operation, tuple(args)))
        if not out:
            fair = not any(
                view.is_pending(pid) for pid in range(view.n_processes)
            )
            return StopDecision(reason="plan exhausted", fair=fair)
        return out

    def fingerprint(self, view) -> Optional[Hashable]:
        # The workload cursors are *not* part of the kernel fingerprint
        # (they live in runtime statistics), yet they determine which
        # invocations remain — so they belong to the policy's share of
        # the lasso/dedup key, exactly as a ComposedDriver folds its
        # workload fingerprint into the runtime's.
        return ("plan",) + tuple(
            view.invocation_count(pid) for pid in self._pids
        )


def _decision_label(decision: Decision) -> Hashable:
    """Sleep-set identity of a decision.

    Two options at a node get the same label only when they are the same
    decision; a surviving sleep entry must match the decision a later
    path would take, so invocations carry their operation and arguments
    (a process's *next* step, by contrast, is determined by its pid)."""
    if isinstance(decision, InvokeDecision):
        return ("invoke", decision.pid, decision.operation, decision.args)
    if isinstance(decision, StepDecision):
        return ("step", decision.pid)
    return (type(decision).__name__, getattr(decision, "pid", None))


def _copy_stats(
    runtime,
) -> Dict[int, ProcessStats]:
    """Detach per-process statistics from a runtime that will be
    restored (and therefore mutated in place) after the run is
    yielded."""
    out: Dict[int, ProcessStats] = {}
    for pid, stats in runtime.stats.items():
        out[pid] = ProcessStats(
            pid=pid,
            steps=stats.steps,
            last_step=stats.last_step,
            invocations=stats.invocations,
            responses=stats.responses,
            good_responses=stats.good_responses,
            good_response_steps=list(stats.good_response_steps),
            crashed=stats.crashed,
            pending_at_end=runtime.processes[pid].pending,
        )
    return out


def _rebuild_last_response(runtime) -> None:
    """Recompute the per-process last responses from the event list.

    Snapshots do not carry the ``last_response`` map (the engine's
    safety searches never read it), but adversary strategies consult it
    through the view — so every restore re-derives it.
    """
    runtime.last_response.clear()
    for event in runtime.events:
        if isinstance(event, Response):
            runtime.last_response[event.process] = event


class LivenessSearch:
    """Exhaustive, budgeted exploration of a policy's maximal runs.

    Parameters
    ----------
    factory:
        Fresh-implementation factory (the object under test).
    policy:
        The :class:`SchedulePolicy` supplying choices (and, for
        adversaries, inputs).
    max_depth:
        Step horizon: runs still alive here are classified ``horizon``.
    max_configurations:
        Budget on explored configurations across all branches; raises
        :class:`~repro.engine.explorer.SearchBudgetExceeded`.
    lasso_stride:
        Fingerprint every n-th step (see
        :class:`~repro.sim.lasso.LassoDetector`; a stride never misses
        a lasso, it only lengthens the reported cycle).
    reduction:
        ``"dpor"`` prunes runs that commute with an already-explored
        run via sleep sets over kernel footprints
        (:mod:`repro.engine.dpor`).  The liveness relation is stricter
        than the safety one — *every* pair of visible decisions is
        dependent (``visible_commutes=False``), because liveness
        classification reads event timing against step windows, not
        just the response-before-invocation order — so only invisible
        internal steps commute.  Fan-out-1 policies (adversaries) are
        unaffected.
    """

    def __init__(
        self,
        factory,
        policy: SchedulePolicy,
        max_depth: int = 2_000,
        max_configurations: int = 200_000,
        lasso_stride: int = 1,
        reduction: str = "none",
    ):
        check_reduction(reduction, ("none", "dpor"))
        self.factory = factory
        self.policy = policy
        self.max_depth = max_depth
        self.max_configurations = max_configurations
        self.reduction = reduction
        self._detector = LassoDetector(check_every=lasso_stride)
        self._implementation = factory()
        self._config = KernelConfig(self._implementation)
        if reduction == "dpor":
            self._config.runtime.record_footprints = True
        #: The initial configuration; every `runs()` call restarts here
        #: (fingerprinted first, so the snapshot carries the hashes).
        self._config.kernel_fingerprint()
        self._root = self._config.capture()
        #: Configurations explored / branch merges pruned by the most
        #: recent :meth:`runs` call (read after exhausting the
        #: iterator; surfaced in the verify backend's stats).
        self.configurations = 0
        self.merges = 0

    # -- fingerprints --------------------------------------------------------

    def _exact_fingerprint(self, policy_fp: Optional[Hashable]) -> Optional[Hashable]:
        if policy_fp is None:
            return None
        return (policy_fp, self._config.kernel_fingerprint())

    def _abstract_fingerprint(
        self, policy_fp: Optional[Hashable]
    ) -> Optional[Hashable]:
        if policy_fp is None:
            return None
        abstraction = abstract_state_fingerprint(self._config.runtime)
        if abstraction is None:
            return None
        return (policy_fp, abstraction)

    def _dedup_key(
        self, exact: Optional[Hashable]
    ) -> Optional[Hashable]:
        """Merge key: the lasso fingerprint *plus* the monotone run
        counters.  A true cycle revisit always differs in the counters
        (an empty cycle is no cycle), so dedup can never swallow a lasso
        before the detector sees it."""
        if exact is None:
            return None
        runtime = self._config.runtime
        counters = tuple(
            (
                runtime.stats[pid].invocations,
                runtime.stats[pid].responses,
                runtime.stats[pid].good_responses,
            )
            for pid in range(self._implementation.n_processes)
        )
        return (exact, counters)

    # -- run assembly --------------------------------------------------------

    def _finish(
        self,
        decisions: List[Decision],
        stop_reason: str,
        fairness_complete: bool,
        lasso,
        kind: str,
    ) -> LivenessRun:
        runtime = self._config.runtime
        result = RunResult(
            history=History(list(runtime.events), validate=False),
            n_processes=self._implementation.n_processes,
            total_steps=runtime.step_count,
            stop_reason=stop_reason,
            fairness_complete=fairness_complete,
            stats=_copy_stats(runtime),
            lasso=lasso,
            driver_name=self.policy.name,
            implementation_name=self._implementation.name,
        )
        rec = _obs_active()
        if rec is not None:
            rec.count("liveness/runs")
            rec.count(f"liveness/{kind}_runs")
        return LivenessRun(
            decisions=tuple(decisions),
            result=result,
            kind=kind,
            escaped=self.policy.escaped,
        )

    # -- the search ----------------------------------------------------------

    def runs(self) -> Iterator[LivenessRun]:
        """Yield one classified :class:`LivenessRun` per maximal run.

        Re-entrant: every call restarts from the initial configuration
        with a reset policy and a reset lasso detector — forgetting the
        detector reset here is exactly the stale-fingerprint leak the
        regression tests guard against.
        """
        config = self._config
        view = config.view
        policy = self.policy
        detector = self._detector
        rec = _obs_active()
        policy.reset()
        detector.reset()
        seen: set = set()
        self.configurations = 0
        self.merges = 0
        reduce = self.reduction == "dpor"
        # All visible pairs are dependent under the liveness relation:
        # classification reads step timing, not just real-time order.
        sleeps = SleepSets(visible_commutes=False) if reduce else None
        # Stack entries: (snapshot, policy state, decision prefix,
        # detector state, pending decision, sleep set at the branch
        # point, sibling footprints).  ``siblings`` is a list *shared*
        # by all options of one branch point; LIFO pop order equals
        # options order, so when option[i] pops, the list holds exactly
        # the footprints of the already-executed options[:i].  The root
        # entry, the only one with no pending decision, carries no
        # policy or detector state: both were just reset, so a policy
        # that cannot capture (a composed or scripted driver) can still
        # be walked straight-line.
        stack: List[
            Tuple[Any, Any, Tuple[Decision, ...], Any, Optional[Decision],
                  Sleep, Optional[List[Tuple[Hashable, Any]]]]
        ] = [(self._root, None, (), None, None, {}, None)]
        while stack:
            snapshot, state, prefix, detector_state, pending, sleep, siblings = (
                stack.pop()
            )
            config.restore_from(snapshot)
            _rebuild_last_response(config.runtime)
            if pending is not None:
                policy.restore(state)
                detector.restore(detector_state)
            decisions = list(prefix)
            while True:
                from_branch = None
                if pending is not None:
                    decision, pending = pending, None
                    from_branch = siblings
                else:
                    if config.runtime.step_count >= self.max_depth:
                        yield self._finish(
                            decisions, "max-steps", False, None, "horizon"
                        )
                        break
                    options = policy.options(view)
                    if isinstance(options, StopDecision):
                        fairness = options.fair and not any(
                            s.pending for s in config.runtime.processes
                        )
                        yield self._finish(
                            decisions,
                            f"driver-stop: {options.reason}",
                            fairness,
                            None,
                            "finite" if fairness else "horizon",
                        )
                        break
                    if reduce and sleep:
                        awake = []
                        for option in options:
                            if _decision_label(option) in sleep:
                                if rec is not None:
                                    rec.count("dpor/sleep_blocked")
                            else:
                                awake.append(option)
                        if not awake:
                            # Every continuation commutes with an
                            # already-explored run: cut the subtree.
                            if rec is not None:
                                rec.count("dpor/pruned")
                            break
                        options = awake
                    if len(options) > 1:
                        if rec is not None:
                            rec.count("liveness/branch_points")
                        branch_snapshot = config.capture()
                        branch_state = policy.capture()
                        branch_detector = detector.snapshot()
                        branch_siblings: Optional[List] = [] if reduce else None
                        for option in reversed(options):
                            stack.append(
                                (
                                    branch_snapshot,
                                    branch_state,
                                    tuple(decisions),
                                    branch_detector,
                                    option,
                                    sleep,
                                    branch_siblings,
                                )
                            )
                        break
                    decision = options[0]
                config.apply(decision)
                if reduce:
                    executed = config.runtime.last_footprint
                    if from_branch is not None:
                        # Branch option: sleep inherits the branch
                        # point's surviving entries plus the earlier
                        # siblings this decision commutes with, then
                        # records its own footprint for later siblings.
                        sleep = sleeps.child_sleep(sleep, from_branch, executed)
                        from_branch.append(
                            (_decision_label(decision), executed)
                        )
                    elif sleep:
                        sleep = sleeps.child_sleep(sleep, (), executed)
                decisions.append(decision)
                self.configurations += 1
                if rec is not None:
                    rec.count("liveness/configurations")
                if self.configurations > self.max_configurations:
                    raise SearchBudgetExceeded(
                        f"liveness search exceeded "
                        f"{self.max_configurations} configurations"
                    )
                policy_fp = policy.fingerprint(view)
                exact = self._exact_fingerprint(policy_fp)
                certificate = detector.observe(
                    config.runtime.step_count,
                    exact,
                    self._abstract_fingerprint(policy_fp),
                )
                if certificate is not None:
                    yield self._finish(
                        decisions, "lasso", False, certificate, "lasso"
                    )
                    break
                if policy.branching:
                    key = self._dedup_key(exact)
                    if key is not None:
                        if key in seen:
                            if reduce:
                                # Stateful-dedup repair (see
                                # repro.engine.dpor): merging is sound
                                # only when this path's sleep covers
                                # everything the first visit slept.
                                merged = sleeps.revisit_sleep(key, sleep)
                                if merged is not None:
                                    if rec is not None:
                                        rec.count("dpor/revisit_repairs")
                                    sleep = merged
                                    continue
                            self.merges += 1
                            if rec is not None:
                                rec.count("liveness/merges")
                            break  # merged into an explored schedule
                        seen.add(key)
                        if reduce:
                            sleeps.note_expansion(key, sleep)

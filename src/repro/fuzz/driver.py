"""The randomized schedule/crash fuzzer.

Where the exhaustive engine *enumerates* the configuration DAG of an
invocation plan, :class:`FuzzDriver` *samples* it: thousands of seeded
random interleavings per second, each a complete labelled schedule whose
history is judged by the workload's safety property.  Three mechanisms
make the sampling fast and the coverage broad:

**Snapshot restarts.**  The driver owns one scratch
:class:`~repro.engine.config.KernelConfig` and a bounded *corpus* of
:class:`~repro.engine.config.KernelSnapshot`\\ s captured at
previously-unvisited configurations.  Most iterations restore a corpus
snapshot (O(configuration), a few microseconds) and walk a fresh random
tail from there — each iteration still yields a complete interleaving
(corpus prefix + tail), but pays only for the tail.  This is the same
restore machinery the exhaustive engine uses per DAG edge, driven by a
sampler instead of a frontier.

**Swarm scheduler mutation.**  Periodic *exploration* walks start from
the root under a freshly mutated scheduler — uniform random, a
weight-biased :class:`~repro.sim.schedulers.WeightedRandomScheduler`,
or a shuffled :class:`~repro.sim.schedulers.PriorityScheduler` — plus
randomized crash-point injection: the mutator draws a crash pattern in
the campaign grammar (``p0@7``), parses it with
:func:`~repro.sim.crash.parse_crash_spec`, and consults the resulting
plan each step exactly as a :class:`~repro.sim.drivers.ComposedDriver`
would.  Different swarms reach different corners of the schedule space;
the corpus then amortizes whatever they discover.

**Coverage map.**  Exploration walks fingerprint every configuration
they traverse (the engine's exact configuration-and-history key).
Fingerprints not seen before grow the coverage map and may be captured
into the corpus — so restarts are steered toward the frontier of
unvisited states rather than re-sampling the well-trodden prefix region.

Verdicts are only ever produced by the real safety checker on real
histories, so the fuzzer cannot report a false violation; a ``holds``
verdict is horizon-certain only (the budget ran out), which the
differential oracle (:mod:`repro.fuzz.oracle`) quantifies against the
exhaustive engine on small instances.
"""

from __future__ import annotations

import time

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.engine.config import KernelConfig, KernelSnapshot
from repro.obs.recorder import active as _obs_active
from repro.sim.crash import CrashPlan, parse_crash_spec
from repro.sim.drivers import CrashDecision, InvokeDecision, StepDecision
from repro.sim.explore import Choice, InvocationPlan
from repro.sim.schedulers import (
    PriorityScheduler,
    Scheduler,
    WeightedRandomScheduler,
)
from repro.util.errors import UsageError
from repro.util.rng import DeterministicRng, normalize_seed


@dataclass(frozen=True)
class FuzzViolation:
    """A sampled schedule whose history fails the safety property."""

    schedule: Tuple[Choice, ...]
    history: Any  # History; kept loose for frozen-dataclass hashing
    reason: str
    iteration: int


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    workload: str
    seed: int
    iterations: int
    #: Complete interleavings executed (== iterations unless stopped
    #: early by a violation).
    interleavings: int
    #: Unique configuration fingerprints seen by exploration walks.
    coverage: int
    #: Snapshots available for restarts at the end of the run.
    corpus: int
    #: Distinct complete histories that were safety-checked.
    histories_checked: int
    elapsed: float
    violation: Optional[FuzzViolation] = None

    @property
    def holds(self) -> bool:
        """No violation found within the budget (horizon evidence)."""
        return self.violation is None

    @property
    def interleavings_per_second(self) -> float:
        return self.interleavings / self.elapsed if self.elapsed > 0 else 0.0


@dataclass
class _CorpusEntry:
    snapshot: KernelSnapshot
    schedule: Tuple[Choice, ...]
    depth: int


class FuzzDriver:
    """Coverage-guided random sampler over one fuzz workload.

    Parameters
    ----------
    factory, plan, safety:
        The instance under test (see
        :class:`~repro.scenarios.scenario.Scenario`); ``safety=None``
        disables checking (throughput measurements).
    seed:
        Master seed; every random choice derives from it, so equal
        seeds reproduce schedules, coverage, and verdicts exactly.
    max_depth:
        Walk length cap (safety stays checkable on truncated runs
        because safety properties are prefix-closed).
    crash:
        Explicit crash pattern (:func:`~repro.sim.crash.parse_crash_spec`
        grammar) applied to every exploration walk; ``None`` lets the
        swarm mutator inject random crash points instead.
    scheduler_factory:
        Pinned scheduler for *directed* fuzzing: when given, every
        exploration walk uses a fresh instance from this factory
        instead of a mutated random swarm (fast corpus walks keep
        their uniform tails).  ``None`` (the default) keeps the swarm
        mutation.
    crash_probability:
        Chance that a mutated exploration walk draws a random crash
        point (ignored when ``crash`` is given).
    corpus_size, min_corpus_depth:
        Restart-snapshot pool bound, and the depth below which states
        are not worth capturing (restarting at depth 1 is no cheaper
        than the root).
    explore_every:
        Every n-th iteration is a coverage-tracked exploration walk
        from the root; the rest are fast corpus restarts.  ``1`` makes
        every walk an exploration walk (maximum steering, lowest
        throughput).
    stop_on_violation:
        Stop at the first violating schedule (the default; shrinking
        and reporting want exactly one witness).
    """

    #: Relative likelihood of each swarm scheduler family.
    _FAMILIES = ("uniform", "weighted", "priority")

    def __init__(
        self,
        factory: Callable[[], Any],
        plan: InvocationPlan,
        safety=None,
        seed: object = 0,
        max_depth: int = 64,
        crash: Optional[str] = None,
        scheduler_factory: Optional[Callable[[], Scheduler]] = None,
        crash_probability: float = 0.25,
        corpus_size: int = 128,
        min_corpus_depth: int = 4,
        explore_every: int = 8,
        stop_on_violation: bool = True,
    ):
        if max_depth < 1:
            raise UsageError(f"max_depth must be >= 1, got {max_depth}")
        if explore_every < 1:
            raise UsageError(f"explore_every must be >= 1, got {explore_every}")
        self.factory = factory
        self.plan = {pid: list(ops) for pid, ops in plan.items()}
        self.safety = safety
        self.seed = normalize_seed(seed)
        self.max_depth = max_depth
        self.crash_spec = crash
        self.scheduler_factory = scheduler_factory
        self._crash_factory = parse_crash_spec(crash)
        self.crash_probability = crash_probability
        self.corpus_size = corpus_size
        self.min_corpus_depth = min_corpus_depth
        self.explore_every = explore_every
        self.stop_on_violation = stop_on_violation

        self._pids = sorted(self.plan)
        self._rng = DeterministicRng(self.seed)
        # Fast walks draw from a dedicated stream so their cost is one
        # draw per step, not one rng construction per iteration.
        self._walk_rng = self._rng.fork("fast-walks")
        self._config = KernelConfig(factory())
        # A capture carries only fingerprints already cached, and
        # exploration walks fingerprint the root after every restore of
        # it: hash it once here so the root snapshot carries the hashes.
        self._config.kernel_fingerprint()
        self._root = self._config.capture()
        self._coverage: Set[Any] = set()
        self._corpus: List[_CorpusEntry] = []
        self._checked: Set[Tuple[Any, ...]] = set()
        # Decisions are immutable, so the walk loops reuse one instance
        # per (pid) step and per (pid, cursor) invocation instead of
        # allocating a dataclass per applied step.
        self._step_decisions = {pid: StepDecision(pid) for pid in self._pids}
        self._invoke_decisions = {
            pid: [
                InvokeDecision(pid, operation, tuple(args))
                for operation, args in self.plan[pid]
            ]
            for pid in self._pids
        }
        self._step_labels = {pid: ("step", pid) for pid in self._pids}
        self._invoke_labels = {pid: ("invoke", pid) for pid in self._pids}
        self._plan_lengths = {pid: len(ops) for pid, ops in self.plan.items()}

    # -- walk primitives ----------------------------------------------------

    def _eligible(self, config: KernelConfig) -> List[int]:
        """Pids with a legal move (the labelled-successor relation of
        :func:`~repro.sim.explore.plan_successors`, pid-level)."""
        out: List[int] = []
        for pid in self._pids:
            if config.is_crashed(pid):
                continue
            if config.is_pending(pid) or (
                config.invocations_of(pid) < len(self.plan[pid])
            ):
                out.append(pid)
        return out

    def _apply_pid(self, config: KernelConfig, pid: int) -> Choice:
        """Move ``pid`` (step if pending, else its next invocation)."""
        if config.is_pending(pid):
            config.apply(self._step_decisions[pid])
            return self._step_labels[pid]
        config.apply(self._invoke_decisions[pid][config.invocations_of(pid)])
        return self._invoke_labels[pid]

    def _mutate_scheduler(self, rng: DeterministicRng) -> Optional[Scheduler]:
        if self.scheduler_factory is not None:
            return self.scheduler_factory()
        family = rng.choice(self._FAMILIES)
        if family == "weighted":
            weights = [rng.randint(1, 8) for _ in range(len(self._pids))]
            return WeightedRandomScheduler(weights, seed=rng.randint(0, 2**31))
        if family == "priority":
            order = list(self._pids)
            rng.shuffle(order)
            return PriorityScheduler(order)
        return None  # uniform: pick directly off the walk rng

    def _mutate_crash_plan(self, rng: DeterministicRng) -> Optional[CrashPlan]:
        if self._crash_factory is not None:
            return self._crash_factory()
        if not rng.maybe(self.crash_probability):
            return None
        pid = rng.choice(self._pids)
        step = rng.randint(1, self.max_depth)
        crash_factory = parse_crash_spec(f"p{pid}@{step}")
        assert crash_factory is not None
        return crash_factory()

    # -- the two walk kinds -------------------------------------------------

    def _explore_walk(self, rng: DeterministicRng) -> Tuple[Choice, ...]:
        """Coverage-tracked walk from the root under a mutated swarm."""
        config = self._config
        config.restore_from(self._root)
        scheduler = self._mutate_scheduler(rng)
        crash_plan = self._mutate_crash_plan(rng)
        schedule: List[Choice] = []
        view = config.view
        while len(schedule) < self.max_depth:
            if crash_plan is not None:
                victim = crash_plan.next_crash(view)
                if victim is not None:
                    config.apply(CrashDecision(victim))
                    schedule.append(("crash", victim))
                    continue
            eligible = self._eligible(config)
            if not eligible:
                break
            if scheduler is None:
                pid = eligible[0] if len(eligible) == 1 else rng.choice(eligible)
            else:
                pid = scheduler.pick(eligible, view)
            schedule.append(self._apply_pid(config, pid))
            fingerprint = config.fingerprint()
            if fingerprint not in self._coverage:
                self._coverage.add(fingerprint)
                depth = len(schedule)
                if (
                    depth >= self.min_corpus_depth
                    and depth < self.max_depth
                    and rng.maybe(0.3)
                    # Terminal configurations make useless restart
                    # points: a restart there replays the identical
                    # schedule with an empty tail.
                    and self._eligible(config)
                ):
                    self._corpus_add(
                        _CorpusEntry(config.capture(), tuple(schedule), depth),
                        rng,
                    )
        return tuple(schedule)

    def _fast_walk(self) -> Tuple[Tuple[Choice, ...], List[Choice]]:
        """Corpus restart plus uniform random tail, as (prefix, tail).

        The hot loop: no fingerprinting, no snapshot bookkeeping, and
        decisions applied straight to the runtime, bypassing
        :meth:`KernelConfig.apply`'s per-step cache invalidation.  The
        processes the tail moved are invalidated once at the end
        instead: the next ``restore_from`` is a delta restore and would
        otherwise skip them as still holding their snapshot state.  The
        schedule is returned as corpus prefix + fresh tail and only
        concatenated when a caller actually needs it (a violation), so
        the per-iteration cost is restore + the tail's kernel steps.
        """
        rng = self._walk_rng
        config = self._config
        if self._corpus:
            # Power-of-two-choices, biased deep: sample two corpus
            # entries and restart from the deeper one.  Deeper restarts
            # mean shorter (cheaper) tails while the pair-sampling keeps
            # the restart distribution spread over the whole pool.
            count = len(self._corpus)
            entry = self._corpus[rng.randint(0, count - 1)]
            other = self._corpus[rng.randint(0, count - 1)]
            if other.depth > entry.depth:
                entry = other
            config.restore_from(entry.snapshot)
            prefix = entry.schedule
            depth = entry.depth
        else:
            config.restore_from(self._root)
            prefix = ()
            depth = 0
        runtime = config.runtime
        apply_decision = runtime.apply_decision
        processes = runtime.processes
        stats = runtime.stats
        tail: List[Choice] = []
        while depth < self.max_depth:
            eligible = [
                pid
                for pid in self._pids
                if not processes[pid].crashed
                and (
                    processes[pid].frame is not None
                    or stats[pid].invocations < self._plan_lengths[pid]
                )
            ]
            if not eligible:
                break
            pid = eligible[0] if len(eligible) == 1 else rng.choice(eligible)
            if processes[pid].frame is not None:
                apply_decision(self._step_decisions[pid])
                tail.append(self._step_labels[pid])
            else:
                apply_decision(self._invoke_decisions[pid][stats[pid].invocations])
                tail.append(self._invoke_labels[pid])
            depth += 1
        config.invalidate({label[1] for label in tail})
        return prefix, tail

    def _corpus_add(self, entry: _CorpusEntry, rng: DeterministicRng) -> None:
        rec = _obs_active()
        if rec is not None:
            rec.count("fuzz/corpus_adds")
        if len(self._corpus) < self.corpus_size:
            self._corpus.append(entry)
        else:  # reservoir-style replacement keeps the pool fresh
            self._corpus[rng.randint(0, self.corpus_size - 1)] = entry

    # -- the fuzz loop ------------------------------------------------------

    def run(self, iterations: int, workload_name: str = "") -> FuzzReport:
        """Sample ``iterations`` interleavings; return the report.

        Deterministic in ``(seed, iterations, construction options)``:
        every draw derives from the master seed, so equal inputs
        reproduce schedules, coverage, and verdicts exactly.
        Exploration walks additionally fork a fresh rng keyed by their
        iteration index; fast walks share one stream and restart from
        the evolving corpus, so individual fast-walk schedules *do*
        depend on everything sampled before them — only whole runs are
        reproducible, not arbitrary resumption points.
        """
        started = time.perf_counter()
        interleavings = 0
        violation: Optional[FuzzViolation] = None
        # Fetched once per run: the disabled-metrics cost per iteration
        # is one `is None` check (the ~400ns/step fast-walk budget rules
        # out anything per *step*; step totals are flushed per walk).
        rec = _obs_active()
        for iteration in range(iterations):
            if iteration % self.explore_every == 0:
                # A fresh fork per exploration walk keeps mutated swarms
                # independent of how many draws earlier walks consumed.
                if rec is None:
                    prefix = self._explore_walk(self._rng.fork(iteration))
                else:
                    with rec.span("fuzz/explore_walk"):
                        prefix = self._explore_walk(self._rng.fork(iteration))
                    rec.count("fuzz/explore_walks")
                    rec.count("kernel/steps", len(prefix))
                tail: List[Choice] = []
            else:
                if rec is None:
                    prefix, tail = self._fast_walk()
                else:
                    with rec.span("fuzz/fast_walk"):
                        prefix, tail = self._fast_walk()
                    rec.count("fuzz/fast_walks")
                    # Fast walks bypass KernelConfig.apply (and with it
                    # the kernel/decisions counter), so their executed
                    # steps — the restored prefix costs nothing — are
                    # flushed here in one aggregate add.
                    rec.count("kernel/steps", len(tail))
            interleavings += 1
            if self.safety is not None:
                verdict_failure = self._check(prefix, tail, iteration)
                if verdict_failure is not None:
                    violation = verdict_failure
                    if self.stop_on_violation:
                        break
        if rec is not None:
            rec.gauge("fuzz/coverage", len(self._coverage))
            rec.gauge("fuzz/corpus", len(self._corpus))
        return FuzzReport(
            workload=workload_name,
            seed=self.seed,
            iterations=iterations,
            interleavings=interleavings,
            coverage=len(self._coverage),
            corpus=len(self._corpus),
            histories_checked=len(self._checked),
            elapsed=time.perf_counter() - started,
            violation=violation,
        )

    def _check(
        self, prefix: Tuple[Choice, ...], tail: List[Choice], iteration: int
    ) -> Optional[FuzzViolation]:
        """Judge the just-sampled history, deduplicating checks.

        Many sampled schedules repeat histories (that is the price of
        sampling without a dedup frontier); caching verdicts by event
        sequence makes the checked mode's cost proportional to the
        *distinct* histories reached, like the exhaustive engine's.
        """
        rec = _obs_active()
        key = tuple(self._config.runtime.events)
        if key in self._checked:
            if rec is not None:
                rec.count("fuzz/check_cache_hits")
            return None
        self._checked.add(key)
        if rec is None:
            verdict = self.safety.check_history(self._config.history())
        else:
            rec.count("safety/checks")
            with rec.span("safety/check"):
                verdict = self.safety.check_history(self._config.history())
        if verdict.holds:
            return None
        return FuzzViolation(
            schedule=prefix + tuple(tail),
            history=self._config.history(),
            reason=verdict.reason,
            iteration=iteration,
        )


def fuzz_workload(
    scenario,
    seed: object = 0,
    iterations: int = 2_000,
    max_depth: int = 64,
    crash: Optional[str] = None,
    check_safety: bool = True,
    **options,
) -> FuzzReport:
    """One-call convenience: fuzz one scenario.

    ``scenario`` is any object with the
    :class:`~repro.scenarios.scenario.Scenario` surface — ``factory``,
    ``plan``, ``safety_factory``, ``name``, and optionally a pinned
    ``scheduler_factory`` (the scenario registry's entries, or an
    ad-hoc stand-in in tests).
    """
    options.setdefault(
        "scheduler_factory", getattr(scenario, "scheduler_factory", None)
    )
    driver = FuzzDriver(
        scenario.factory,
        scenario.plan,
        safety=scenario.safety_factory() if check_safety else None,
        seed=seed,
        max_depth=max_depth,
        crash=crash,
        **options,
    )
    return driver.run(iterations, workload_name=scenario.name)

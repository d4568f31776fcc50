"""Delta-debugging shrinker for violating schedules.

A fuzzer-found counterexample is typically long and noisy — dozens of
steps of which only a handful matter.  :func:`shrink_schedule` minimizes
it with the classic ddmin loop (remove ever-smaller chunks while the
violation persists) followed by a one-at-a-time sweep, yielding a
**locally minimal** schedule: removing any single remaining step either
makes the schedule invalid or makes the violation disappear.

A candidate is *interesting* iff it replays **validly** (no stepping of
idle processes, no invoking past the plan — the runtime rejects such
candidates instead of patching them up) *and* the replayed history
still fails the safety property.

Every candidate ``current[:k] + current[k+c:]`` shares its first ``k``
labels with the current witness, so candidates are not replayed from
step 0.  :class:`WitnessCheckpoints` keeps one scratch
:class:`~repro.engine.config.KernelConfig` and a snapshot of every
prefix of the witness; a candidate restores the snapshot at its common
prefix with the witness and applies only its own tail, under the same
runtime validity rules.  The input witness itself is confirmed by a
from-scratch :func:`~repro.fuzz.trace.replay_schedule` on the plain
runtime.  The shrunk schedule's independence from the snapshot engine
comes afterwards: callers re-execute it from scratch on the plain
runtime with a fresh checker (``_counterexample`` in
:mod:`repro.scenarios.verify`, and ``python -m repro fuzz`` before it
writes an artifact).

The whole procedure is deterministic: candidate order is a pure
function of the input schedule, and replays are deterministic by the
kernel's determinism contract.  Equal inputs shrink to equal outputs,
which the regression tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.properties import SafetyProperty
from repro.engine.config import KernelConfig, KernelSnapshot
from repro.fuzz.trace import LabelDecoder, replay_schedule
from repro.obs.recorder import active as _obs_active
from repro.sim.explore import Choice, InvocationPlan
from repro.util.errors import SimulationError, UsageError


@dataclass
class ShrinkResult:
    """A minimized schedule plus shrink statistics."""

    schedule: Tuple[Choice, ...]
    original_length: int
    candidates_tried: int
    replays: int
    #: Kernel decisions applied by the checkpointed replays.
    steps: int = 0

    @property
    def removed(self) -> int:
        return self.original_length - len(self.schedule)


def _shared_prefix(left: Sequence[Choice], right: Sequence[Choice]) -> int:
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


class WitnessCheckpoints:
    """Replays schedules from snapshots of a witness's prefixes.

    ``snapshots[i]`` is the configuration after the witness's first
    ``i`` labels.  :meth:`replay` restores the snapshot at a schedule's
    common prefix with the witness and applies the rest;
    :meth:`accept` makes a schedule the new witness, re-walking only
    the tail it does not share with the old one.  Both run on one
    scratch configuration, so every restore is a delta restore.
    """

    def __init__(self, factory, plan: InvocationPlan, witness: Sequence[Choice]):
        self.decoder = LabelDecoder(plan)
        self.config = KernelConfig(factory())
        self.witness: Tuple[Choice, ...] = ()
        self.snapshots: List[KernelSnapshot] = [self.config.capture()]
        #: Decisions applied so far (the ``shrink/steps`` counter).
        self.steps = 0
        self.accept(witness)

    def replay(self, schedule: Sequence[Choice]) -> Optional[History]:
        """The schedule's history, or ``None`` if it replays invalidly."""
        start = self._rewind(schedule)
        config = self.config
        try:
            for label in schedule[start:]:
                self._apply(label)
        except SimulationError:
            # The failing decision may have moved its process half-way
            # (an algorithm error after a memory write) without
            # invalidating it; the next delta restore must not skip a
            # process as clean.
            config.invalidate(range(config.n_processes))
            return None
        return config.history()

    def accept(self, witness: Sequence[Choice]) -> None:
        """Make a validly replaying schedule the witness."""
        witness = tuple(witness)
        start = self._rewind(witness)
        del self.snapshots[start + 1:]
        for label in witness[start:]:
            self._apply(label)
            self.snapshots.append(self.config.capture())
        self.witness = witness

    def _rewind(self, schedule: Sequence[Choice]) -> int:
        """Restore the snapshot at the schedule's common prefix with the
        witness; returns the prefix length."""
        start = _shared_prefix(schedule, self.witness)
        self.config.restore_from(self.snapshots[start])
        return start

    def _apply(self, label: Choice) -> None:
        config = self.config
        decision = self.decoder.decision(label, config.invocations_of)
        self.steps += 1
        config.apply(decision)


def shrink_schedule(
    factory,
    plan: InvocationPlan,
    schedule: Sequence[Choice],
    safety: SafetyProperty,
    max_replays: int = 10_000,
) -> ShrinkResult:
    """Minimize a violating schedule to a locally minimal one.

    Raises :class:`~repro.util.errors.UsageError` if the input schedule
    does not itself replay to a violation (shrinking needs a true
    starting witness).  ``max_replays`` bounds the work on pathological
    inputs; the partially shrunk (still violating) schedule is returned
    when the budget runs out.
    """
    stats = {"replays": 0, "candidates": 0}
    cache: Dict[Tuple[Choice, ...], bool] = {}
    checkpoints: Optional[WitnessCheckpoints] = None

    def interesting(candidate: Tuple[Choice, ...]) -> bool:
        stats["candidates"] += 1
        if candidate in cache:
            return cache[candidate]
        if stats["replays"] >= max_replays:
            return False  # budget exhausted: reject, keep current witness
        stats["replays"] += 1
        if checkpoints is None:
            violates = replay_schedule(factory, plan, candidate, safety).violates
        else:
            history = checkpoints.replay(candidate)
            violates = (
                history is not None and not safety.check_history(history).holds
            )
        cache[candidate] = violates
        return violates

    current = tuple(schedule)
    if not interesting(current):
        raise UsageError(
            "cannot shrink: the input schedule does not replay to a "
            "safety violation"
        )
    checkpoints = WitnessCheckpoints(factory, plan, current)

    # Phase 1: ddmin — remove chunks, halving the chunk size on failure.
    chunk = max(len(current) // 2, 1)
    while chunk >= 1:
        shrunk_this_round = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate != current and interesting(candidate):
                current = candidate
                checkpoints.accept(current)
                shrunk_this_round = True
                # re-test the same start: the next chunk slid into place
            else:
                start += chunk
        if not shrunk_this_round:
            if chunk == 1:
                break
            chunk = max(chunk // 2, 1)

    # Phase 2: one-at-a-time sweep to a fixpoint (local minimality).
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if interesting(candidate):
                current = candidate
                checkpoints.accept(current)
                changed = True
                break

    rec = _obs_active()
    if rec is not None:
        rec.count("shrink/candidates", stats["candidates"])
        rec.count("shrink/replays", stats["replays"])
        rec.count("shrink/steps", checkpoints.steps)
        rec.count("shrink/removed_steps", len(schedule) - len(current))
    return ShrinkResult(
        schedule=current,
        original_length=len(schedule),
        candidates_tried=stats["candidates"],
        replays=stats["replays"],
        steps=checkpoints.steps,
    )

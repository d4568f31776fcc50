"""Replayable schedule traces: the fuzzer's counterexample artifact.

A violating fuzz run is persisted as a small JSON document — the
invocation plan plus the labelled schedule that reached the violation —
and replayed through the ordinary simulation runtime
(:class:`~repro.sim.runtime.Runtime` driving a
:class:`~repro.sim.drivers.ScriptedDriver`), i.e. through a code path
entirely independent of the engine's snapshot machinery.  A trace is
therefore both a regression artifact (check it into a bug report, replay
it anywhere) and a soundness check: a violation that does not reproduce
under plain replay would indicate an engine bug, not an implementation
bug.

Schedule labels are the exploration engine's
(:data:`repro.sim.explore.Choice` plus crash): ``("invoke", pid)``
issues the process's next planned invocation, ``("step", pid)``
advances its pending operation by one primitive, ``("crash", pid)``
crashes it.

Trace document (format version 1)::

    {
      "format": "repro-fuzz-trace", "version": 1,
      "workload": "stubborn-consensus",        # optional registry name
      "implementation": "stubborn-consensus",  # informational
      "plan": {"0": [["propose", [0]]], "1": [["propose", [1]]]},
      "schedule": [["invoke", 0], ["step", 0], ...],
      "safety": "agreement-validity",          # informational
      "holds": false,                          # recorded verdict
      "reason": "...",                         # recorded failure reason
      "seed": 2025                             # fuzz seed (optional)
    }
"""

from __future__ import annotations

import json

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.properties import SafetyProperty, Verdict
from repro.sim.drivers import (
    CrashDecision,
    Decision,
    InvokeDecision,
    ScriptedDriver,
    StepDecision,
)
from repro.sim.explore import Choice, InvocationPlan
from repro.sim.runtime import Runtime
from repro.util.errors import SimulationError, UsageError

TRACE_FORMAT = "repro-fuzz-trace"
TRACE_VERSION = 1


def _plain(value: Any) -> Any:
    """Tuples to lists, recursively (JSON encoding)."""
    if isinstance(value, (tuple, list)):
        return [_plain(part) for part in value]
    return value


def _tupled(value: Any) -> Any:
    """Lists to tuples, recursively (JSON decoding; invocation args must
    be hashable)."""
    if isinstance(value, list):
        return tuple(_tupled(part) for part in value)
    return value


class LabelDecoder:
    """Translates schedule labels into runtime decisions over one plan.

    ``invoked(pid)`` is how many invocations the process has issued so
    far: ``("invoke", pid)`` takes the plan's next one.  Over-running
    the plan raises :class:`~repro.util.errors.SimulationError` like any
    other invalid schedule, so shrink candidates that drop too much
    fail cleanly.

    Decisions are immutable, so the decoder builds each one once and
    returns the same instance whenever a label asks for it again: one
    step decision per process and one invoke decision per (process,
    plan cursor).  Shrinking replays the same labels thousands of
    times; the decoder lives as long as the replays that share it.
    """

    __slots__ = ("steps", "invokes")

    def __init__(self, plan: InvocationPlan):
        #: pid -> its step decision (the planned processes' built up front).
        self.steps: Dict[int, StepDecision] = {pid: StepDecision(pid) for pid in plan}
        #: pid -> its invoke decisions, in plan order.
        self.invokes: Dict[int, List[InvokeDecision]] = {
            pid: [
                InvokeDecision(pid, operation, tuple(args))
                for operation, args in operations
            ]
            for pid, operations in plan.items()
        }

    def decision(self, label: Choice, invoked: Callable[[int], int]) -> Decision:
        """The decision for one label, given the invocation counts."""
        kind, pid = label[0], int(label[1])
        if kind == "step":
            step = self.steps.get(pid)
            if step is None:
                step = self.steps[pid] = StepDecision(pid)
            return step
        if kind == "invoke":
            invokes = self.invokes.get(pid, ())
            cursor = invoked(pid) if invokes else 0
            if cursor >= len(invokes):
                raise SimulationError(
                    f"schedule invokes p{pid} beyond its plan (cursor {cursor})"
                )
            return invokes[cursor]
        if kind == "crash":
            return CrashDecision(pid)
        raise UsageError(f"unknown schedule label kind {kind!r}")


def schedule_to_decisions(
    plan: InvocationPlan, schedule: Sequence[Choice]
) -> List[Decision]:
    """Translate a whole labelled schedule into runtime decisions
    (:meth:`LabelDecoder.decision` with a per-pid cursor over ``plan``)."""
    decoder = LabelDecoder(plan)
    cursors: Dict[int, int] = {}

    def invoked(pid: int) -> int:
        return cursors.get(pid, 0)

    decisions: List[Decision] = []
    for label in schedule:
        decision = decoder.decision(label, invoked)
        if isinstance(decision, InvokeDecision):
            cursors[decision.pid] = cursors.get(decision.pid, 0) + 1
        decisions.append(decision)
    return decisions


@dataclass
class ReplayResult:
    """Outcome of replaying a schedule through the plain runtime."""

    history: History
    verdict: Optional[Verdict]
    valid: bool
    error: Optional[str] = None

    @property
    def violates(self) -> bool:
        """Replayed validly and the safety property failed."""
        return self.valid and self.verdict is not None and not self.verdict.holds


def replay_schedule(
    factory,
    plan: InvocationPlan,
    schedule: Sequence[Choice],
    safety: Optional[SafetyProperty] = None,
) -> ReplayResult:
    """Re-execute a labelled schedule from scratch on a fresh runtime.

    An invalid schedule (stepping an idle process, invoking past the
    plan, …) yields ``valid=False`` rather than raising — the shrinker
    treats invalidity as "candidate rejected".
    """
    try:
        decisions = schedule_to_decisions(plan, schedule)
    except SimulationError as exc:
        return ReplayResult(History(), None, valid=False, error=str(exc))
    runtime = Runtime(
        factory(),
        ScriptedDriver(decisions, name="fuzz-replay"),
        max_steps=len(decisions) + 1,
    )
    try:
        result = runtime.run()
    except SimulationError as exc:
        return ReplayResult(History(), None, valid=False, error=str(exc))
    verdict = safety.check_history(result.history) if safety is not None else None
    return ReplayResult(result.history, verdict, valid=True)


@dataclass
class ReplayTrace:
    """The persisted counterexample artifact (see module docstring)."""

    plan: InvocationPlan
    schedule: Tuple[Choice, ...]
    workload: Optional[str] = None
    implementation: Optional[str] = None
    safety: Optional[str] = None
    holds: Optional[bool] = None
    reason: str = ""
    seed: Optional[int] = None

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "plan": {
                str(pid): [[op, _plain(args)] for op, args in ops]
                for pid, ops in sorted(self.plan.items())
            },
            "schedule": [[kind, pid] for kind, pid in self.schedule],
        }
        for key in ("workload", "implementation", "safety", "holds", "seed"):
            value = getattr(self, key)
            if value is not None:
                document[key] = value
        if self.reason:
            document["reason"] = self.reason
        return document

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "ReplayTrace":
        if document.get("format") != TRACE_FORMAT:
            raise UsageError(
                f"not a {TRACE_FORMAT} document (format="
                f"{document.get('format')!r})"
            )
        if document.get("version") != TRACE_VERSION:
            raise UsageError(
                f"unsupported trace version {document.get('version')!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        plan: InvocationPlan = {
            int(pid): [(op, _tupled(args)) for op, args in ops]
            for pid, ops in document["plan"].items()
        }
        schedule = tuple(
            (str(kind), int(pid)) for kind, pid in document["schedule"]
        )
        return cls(
            plan=plan,
            schedule=schedule,
            workload=document.get("workload"),
            implementation=document.get("implementation"),
            safety=document.get("safety"),
            holds=document.get("holds"),
            reason=document.get("reason", ""),
            seed=document.get("seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ReplayTrace":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad trace JSON: {exc}") from None
        return cls.from_document(document)


def save_trace(path: str, trace: ReplayTrace) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace.to_json())


def load_trace(path: str) -> ReplayTrace:
    with open(path, "r", encoding="utf-8") as handle:
        return ReplayTrace.from_json(handle.read())


# ---------------------------------------------------------------------------
# Lasso traces: the liveness backend's counterexample artifact
# ---------------------------------------------------------------------------

LASSO_FORMAT = "repro-lasso-trace"
LASSO_VERSION = 1


def decisions_to_labels(decisions: Sequence[Decision]) -> List[List[Any]]:
    """Encode full runtime decisions as JSON-safe labels.

    Unlike schedule labels (which resolve invocations through a plan
    cursor), lasso traces carry the operations and arguments verbatim —
    adversary strategies compute invocation arguments from earlier
    responses, so there is no static plan to resolve against.
    Encodings: ``["invoke", pid, operation, [args]]``,
    ``["step", pid]``, ``["crash", pid]``.
    """
    labels: List[List[Any]] = []
    for decision in decisions:
        if isinstance(decision, InvokeDecision):
            labels.append(
                ["invoke", decision.pid, decision.operation, _plain(decision.args)]
            )
        elif isinstance(decision, StepDecision):
            labels.append(["step", decision.pid])
        elif isinstance(decision, CrashDecision):
            labels.append(["crash", decision.pid])
        else:
            raise UsageError(f"cannot encode decision {decision!r}")
    return labels


def labels_to_decisions(labels: Sequence[Sequence[Any]]) -> List[Decision]:
    """Decode :func:`decisions_to_labels` output."""
    decisions: List[Decision] = []
    for label in labels:
        kind = label[0]
        if kind == "invoke":
            _, pid, operation, args = label
            decisions.append(InvokeDecision(int(pid), str(operation), _tupled(args)))
        elif kind == "step":
            decisions.append(StepDecision(int(label[1])))
        elif kind == "crash":
            decisions.append(CrashDecision(int(label[1])))
        else:
            raise UsageError(f"unknown decision label kind {kind!r}")
    return decisions


@dataclass
class LassoTrace:
    """A serialized starvation certificate: ``stem · cycle^ω``.

    The liveness counterpart of :class:`ReplayTrace`.  ``stem`` and
    ``cycle`` are full decision labels (see :func:`decisions_to_labels`);
    replaying them through the plain runtime re-verifies the state
    repetition under ``fingerprint_kind`` (``"exact"``/``"abstract"``,
    or ``"finite"`` for a complete fair finite execution with an empty
    cycle) and that the ``starving`` processes receive no good response
    inside the cycle.

    Trace document (format version 1)::

        {
          "format": "repro-lasso-trace", "version": 1,
          "scenario": "trivial-local-progress-f1",   # registry id
          "implementation": "trivial-tm",            # informational
          "liveness": "local-progress",              # property name
          "fingerprint_kind": "exact",               # exact|abstract|finite
          "stem": [["invoke", 0, "start", []], ["step", 0]],
          "cycle": [["invoke", 0, "start", []], ["step", 0]],
          "starving": [0],                           # starving processes
          "reason": "correct processes [0] make no progress"
        }
    """

    stem: Tuple[Tuple[Any, ...], ...]
    cycle: Tuple[Tuple[Any, ...], ...]
    fingerprint_kind: str
    scenario: Optional[str] = None
    implementation: Optional[str] = None
    liveness: Optional[str] = None
    starving: Tuple[int, ...] = ()
    reason: str = ""

    def stem_decisions(self) -> List[Decision]:
        return labels_to_decisions(self.stem)

    def cycle_decisions(self) -> List[Decision]:
        return labels_to_decisions(self.cycle)

    def replay(self, factory):
        """Re-execute the certificate on a fresh plain runtime.

        Returns :class:`repro.sim.lasso_shrink.LassoReplayResult`; the
        certificate stands iff ``result.certifies(self.fingerprint_kind)``
        and the starving processes collected no good response in the
        cycle (finite kind: none at all).
        """
        from repro.sim.lasso_shrink import replay_lasso

        return replay_lasso(
            factory,
            self.stem_decisions(),
            self.cycle_decisions(),
            self.fingerprint_kind,
        )

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "format": LASSO_FORMAT,
            "version": LASSO_VERSION,
            "fingerprint_kind": self.fingerprint_kind,
            "stem": [_plain(label) for label in self.stem],
            "cycle": [_plain(label) for label in self.cycle],
            "starving": list(self.starving),
        }
        for key in ("scenario", "implementation", "liveness"):
            value = getattr(self, key)
            if value is not None:
                document[key] = value
        if self.reason:
            document["reason"] = self.reason
        return document

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "LassoTrace":
        if document.get("format") != LASSO_FORMAT:
            raise UsageError(
                f"not a {LASSO_FORMAT} document (format="
                f"{document.get('format')!r})"
            )
        if document.get("version") != LASSO_VERSION:
            raise UsageError(
                f"unsupported lasso trace version {document.get('version')!r} "
                f"(this build reads version {LASSO_VERSION})"
            )
        return cls(
            stem=tuple(_tupled(label) for label in document["stem"]),
            cycle=tuple(_tupled(label) for label in document["cycle"]),
            fingerprint_kind=document["fingerprint_kind"],
            scenario=document.get("scenario"),
            implementation=document.get("implementation"),
            liveness=document.get("liveness"),
            starving=tuple(int(pid) for pid in document.get("starving", [])),
            reason=document.get("reason", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "LassoTrace":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad lasso trace JSON: {exc}") from None
        return cls.from_document(document)


def save_lasso_trace(path: str, trace: LassoTrace) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace.to_json())


def load_lasso_trace(path: str) -> LassoTrace:
    with open(path, "r", encoding="utf-8") as handle:
        return LassoTrace.from_json(handle.read())

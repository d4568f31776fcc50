"""Deterministic discrete-event simulator of asynchronous shared memory.

The names below resolve on first access (:mod:`repro.util.lazy`):
importing the package loads none of its submodules.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

_EXPORTS = {
    "kernel": ("Algorithm", "Implementation", "Op", "OpNode", "ProcessState"),
    "drivers": (
        "ComposedDriver",
        "CrashDecision",
        "Decision",
        "Driver",
        "InvokeDecision",
        "ScriptedDriver",
        "StepDecision",
        "StopDecision",
    ),
    "schedulers": (
        "FixedOrderScheduler",
        "GroupScheduler",
        "LockstepScheduler",
        "PriorityScheduler",
        "RandomScheduler",
        "RoundRobinScheduler",
        "Scheduler",
        "SoloScheduler",
        "WeightedRandomScheduler",
    ),
    "workload": (
        "OneShotWorkload",
        "ScriptedWorkload",
        "TransactionWorkload",
        "Workload",
        "propose_workload",
    ),
    "crash": ("CrashAfterInvocations", "CrashAtStep", "CrashPlan", "NoCrashes"),
    "record": ("LassoCertificate", "ProcessStats", "RunResult"),
    "lasso": ("LassoDetector",),
    "lasso_shrink": (
        "LassoReplayResult",
        "ShrunkLasso",
        "certifies_starvation",
        "replay_lasso",
        "shrink_lasso",
    ),
    "liveness_search": (
        "AdversaryPolicy",
        "LivenessRun",
        "LivenessSearch",
        "PlanPolicy",
        "SchedulePolicy",
    ),
    "runtime": ("Runtime", "RuntimeView", "play"),
    "explore": (
        "ExplorationReport",
        "ExploredRun",
        "check_all_histories",
        "explore_histories",
        "plan_successors",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)

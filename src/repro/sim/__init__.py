"""Deterministic discrete-event simulator of asynchronous shared memory."""

from repro.sim.kernel import Algorithm, Implementation, Op, OpNode, ProcessState
from repro.sim.drivers import (
    ComposedDriver,
    CrashDecision,
    Decision,
    Driver,
    InvokeDecision,
    ScriptedDriver,
    StepDecision,
    StopDecision,
)
from repro.sim.schedulers import (
    FixedOrderScheduler,
    GroupScheduler,
    LockstepScheduler,
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    SoloScheduler,
    WeightedRandomScheduler,
)
from repro.sim.workload import (
    OneShotWorkload,
    ScriptedWorkload,
    TransactionWorkload,
    Workload,
    propose_workload,
)
from repro.sim.crash import CrashAfterInvocations, CrashAtStep, CrashPlan, NoCrashes
from repro.sim.record import LassoCertificate, ProcessStats, RunResult
from repro.sim.lasso import LassoDetector
from repro.sim.lasso_shrink import (
    LassoReplayResult,
    ShrunkLasso,
    certifies_starvation,
    replay_lasso,
    shrink_lasso,
)
from repro.sim.liveness_search import (
    AdversaryPolicy,
    LivenessRun,
    LivenessSearch,
    PlanPolicy,
    SchedulePolicy,
)
from repro.sim.runtime import Runtime, RuntimeView, play
from repro.sim.explore import (
    ExplorationReport,
    ExploredRun,
    check_all_histories,
    explore_histories,
    plan_successors,
)

__all__ = [
    "Algorithm",
    "Implementation",
    "Op",
    "OpNode",
    "ProcessState",
    "ComposedDriver",
    "CrashDecision",
    "Decision",
    "Driver",
    "InvokeDecision",
    "ScriptedDriver",
    "StepDecision",
    "StopDecision",
    "FixedOrderScheduler",
    "GroupScheduler",
    "LockstepScheduler",
    "PriorityScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "SoloScheduler",
    "WeightedRandomScheduler",
    "OneShotWorkload",
    "ScriptedWorkload",
    "TransactionWorkload",
    "Workload",
    "propose_workload",
    "CrashAfterInvocations",
    "CrashAtStep",
    "CrashPlan",
    "NoCrashes",
    "LassoCertificate",
    "ProcessStats",
    "RunResult",
    "LassoDetector",
    "LassoReplayResult",
    "ShrunkLasso",
    "certifies_starvation",
    "replay_lasso",
    "shrink_lasso",
    "AdversaryPolicy",
    "LivenessRun",
    "LivenessSearch",
    "PlanPolicy",
    "SchedulePolicy",
    "Runtime",
    "RuntimeView",
    "play",
    "ExplorationReport",
    "ExploredRun",
    "check_all_histories",
    "explore_histories",
    "plan_successors",
]

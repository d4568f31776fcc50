"""Unit/integration tests for the simulation kernel and runtime."""

import gc
import re
import weakref

import pytest

from repro.base_objects import AtomicRegister, ObjectPool, RegisterArray
from repro.core.events import Crash, Invocation, Response
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.sim import (
    ComposedDriver,
    CrashDecision,
    Implementation,
    InvokeDecision,
    Op,
    RoundRobinScheduler,
    Runtime,
    ScriptedDriver,
    SoloScheduler,
    StepDecision,
    StopDecision,
    play,
)
from repro.sim.kernel import Footprint
from repro.sim.workload import OneShotWorkload
from repro.util.errors import SimulationError


ECHO_TYPE = ObjectType(
    name="echo",
    operations=(
        OperationSignature("echo", argument_domains=((0, 1),), response_domain=(0, 1)),
    ),
    progress_mode=ProgressMode.EVENTUAL,
)


class EchoImplementation(Implementation):
    """Writes its argument to a register, reads it back, returns it."""

    name = "echo"

    def __init__(self, n_processes=2):
        super().__init__(ECHO_TYPE, n_processes)

    def create_pool(self):
        return ObjectPool([AtomicRegister("cell", initial=None)])

    def algorithm(self, pid, operation, args, memory):
        return self._echo(args[0], memory)

    @staticmethod
    def _echo(value, memory):
        memory["pc"] = "write"
        yield Op("cell", "write", (value,))
        memory["pc"] = "read"
        observed = yield Op("cell", "read")
        return observed


class TestStepSemantics:
    def test_operation_takes_primitives_plus_one_steps(self):
        driver = ScriptedDriver(
            [
                InvokeDecision(0, "echo", (1,)),
                StepDecision(0),
                StepDecision(0),
                StepDecision(0),
            ],
            fair_stop=True,
        )
        result = play(EchoImplementation(), driver, max_steps=10)
        # Two primitives + the returning step = 3 steps, 1 response.
        assert result.stats[0].steps == 3
        assert result.stats[0].responses == 1
        assert isinstance(result.history[-1], Response)
        assert result.history[-1].value == 1

    def test_step_without_pending_operation_rejected(self):
        driver = ScriptedDriver([StepDecision(0)])
        with pytest.raises(SimulationError):
            play(EchoImplementation(), driver, max_steps=5)

    def test_double_invocation_rejected(self):
        driver = ScriptedDriver(
            [InvokeDecision(0, "echo", (1,)), InvokeDecision(0, "echo", (0,))]
        )
        with pytest.raises(SimulationError):
            play(EchoImplementation(), driver, max_steps=5)

    def test_interleaving_is_driver_controlled(self):
        # p0 writes 0, p1 writes 1, then p0 reads: p0 must observe 1.
        driver = ScriptedDriver(
            [
                InvokeDecision(0, "echo", (0,)),
                InvokeDecision(1, "echo", (1,)),
                StepDecision(0),  # p0 writes 0
                StepDecision(1),  # p1 writes 1
                StepDecision(0),  # p0 reads -> 1
                StepDecision(0),  # p0 returns
            ]
        )
        result = play(EchoImplementation(), driver, max_steps=10)
        response = [e for e in result.history if isinstance(e, Response)][0]
        assert response.process == 0
        assert response.value == 1


class YieldListImplementation(Implementation):
    """Each operation yields a fixed list of values, then returns 0."""

    name = "yield-list"

    def __init__(self, yields):
        super().__init__(ECHO_TYPE, 1)
        self._yields = tuple(yields)

    def create_pool(self):
        return ObjectPool(
            [AtomicRegister("cell", initial=None), RegisterArray("arr", size=2)]
        )

    def algorithm(self, pid, operation, args, memory):
        return self._run()

    def _run(self):
        for item in self._yields:
            yield item
        return 0


def _invoked_runtime(yields):
    runtime = Runtime(YieldListImplementation(yields), driver=None)
    runtime.record_footprints = True
    runtime.apply_decision(InvokeDecision(0, "echo", (1,)))
    return runtime


class TestStepPathGuards:
    """The checks and footprints of the one step path every client
    (drivers, the engine, the fuzzer, replay) goes through."""

    def test_non_op_yield_names_the_invocation(self):
        runtime = _invoked_runtime(["oops"])
        invocation = runtime.processes[0].frame.invocation
        with pytest.raises(
            SimulationError,
            match=re.escape(f"algorithm for {invocation} yielded 'oops'; expected Op"),
        ):
            runtime.apply_decision(StepDecision(0))

    def test_unknown_object_names_the_pool(self):
        runtime = _invoked_runtime([Op("nope", "read")])
        with pytest.raises(
            SimulationError,
            match=re.escape("unknown base object 'nope'; pool has ['arr', 'cell']"),
        ):
            runtime.apply_decision(StepDecision(0))

    @pytest.mark.parametrize("decision", [StopDecision("done"), object()])
    def test_unknown_decision_rejected(self, decision):
        runtime = _invoked_runtime([])
        with pytest.raises(SimulationError, match="unknown decision"):
            runtime.apply_decision(decision)
        assert runtime.step_count == 1

    def test_completing_step_records_response_footprint(self):
        runtime = _invoked_runtime([])
        assert runtime.last_footprint == Footprint(0, "invoke")
        runtime.apply_decision(StepDecision(0))
        footprint = runtime.last_footprint
        assert footprint == Footprint(0, "response")
        assert footprint.reads == () and footprint.writes == ()
        assert runtime.events[-1] == Response(process=0, operation="echo", value=0)

    def test_primitive_step_records_declared_cell(self):
        runtime = _invoked_runtime(
            [Op("arr", "write", (1, 5)), Op("arr", "read", (1,))]
        )
        runtime.apply_decision(StepDecision(0))
        assert runtime.last_footprint == Footprint(
            0, "step", reads=(), writes=(("arr", 1),)
        )
        runtime.apply_decision(StepDecision(0))
        assert runtime.last_footprint == Footprint(
            0, "step", reads=(("arr", 1),), writes=()
        )
        assert runtime.processes[0].frame.last_result == 5
        runtime.apply_decision(CrashDecision(0))
        assert runtime.last_footprint == Footprint(0, "crash")


class TestCrashes:
    def test_crash_kills_pending_operation(self):
        driver = ScriptedDriver(
            [InvokeDecision(0, "echo", (1,)), StepDecision(0), CrashDecision(0)]
        )
        result = play(EchoImplementation(), driver, max_steps=10)
        assert result.crashed() == {0}
        assert isinstance(result.history[-1], Crash)
        assert result.stats[0].responses == 0

    def test_stepping_crashed_process_rejected(self):
        driver = ScriptedDriver([CrashDecision(0), StepDecision(0)])
        with pytest.raises(SimulationError):
            play(EchoImplementation(), driver, max_steps=5)

    def test_double_crash_rejected(self):
        driver = ScriptedDriver([CrashDecision(0), CrashDecision(0)])
        with pytest.raises(SimulationError):
            play(EchoImplementation(), driver, max_steps=5)


class TestRunResult:
    def test_fairness_requires_no_pending(self):
        # Stop claiming fairness while an operation is pending: rejected.
        driver = ScriptedDriver(
            [InvokeDecision(0, "echo", (1,))],
            fair_stop=True,
        )
        result = play(EchoImplementation(), driver, max_steps=5)
        assert not result.fairness_complete

    def test_composed_driver_finishes_fairly(self):
        workload = OneShotWorkload([("echo", (1,)), ("echo", (0,))])
        driver = ComposedDriver(RoundRobinScheduler(), workload)
        result = play(EchoImplementation(), driver, max_steps=100)
        assert result.fairness_complete
        assert result.stop_reason.startswith("driver-stop")
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.finite
        assert summary.progressors == frozenset({0, 1})

    def test_solo_scheduler_leaves_other_process_uninvoked(self):
        workload = OneShotWorkload([("echo", (1,)), ("echo", (0,))])
        driver = ComposedDriver(SoloScheduler(0), workload)
        result = play(EchoImplementation(), driver, max_steps=100)
        assert result.stats[0].responses == 1
        assert result.stats[1].invocations == 0
        # p1 never invoked anything: it counts as progressing (no demand).
        summary = result.summary(ProgressMode.EVENTUAL)
        assert summary.progressors == frozenset({0, 1})

    def test_describe_mentions_names(self):
        workload = OneShotWorkload([("echo", (1,)), None])
        driver = ComposedDriver(RoundRobinScheduler(), workload)
        result = play(EchoImplementation(), driver, max_steps=100)
        assert "echo" in result.describe()

    def test_history_is_well_formed(self):
        workload = OneShotWorkload([("echo", (1,)), ("echo", (0,))])
        result = play(
            EchoImplementation(),
            ComposedDriver(RoundRobinScheduler(), workload),
            max_steps=100,
        )
        result.history.check_well_formed()


class TestRuntimeView:
    def test_view_exposes_process_states(self):
        runtime = Runtime(
            EchoImplementation(),
            ScriptedDriver([InvokeDecision(0, "echo", (1,))]),
            max_steps=1,
        )
        runtime.run()
        view = runtime.view
        assert view.is_pending(0)
        assert view.pending_operation(0) == "echo"
        assert view.is_idle(1)
        assert view.invocation_count(0) == 1
        assert view.response_count(0) == 0
        assert view.last_response(0) is None
        assert view.history[0] == Invocation(0, "echo", (1,))

    def test_runtime_is_freed_without_the_cyclic_collector(self):
        # The runtime keeps no view of itself: a played runtime is freed
        # by reference counting alone, with everything it owns.
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            runtime = Runtime(
                EchoImplementation(),
                ComposedDriver(
                    RoundRobinScheduler(), OneShotWorkload([("echo", (1,)), None])
                ),
                max_steps=50,
            )
            runtime.run()
            assert runtime.view.response_count(0) == 1
            alive = weakref.ref(runtime)
            pool = weakref.ref(runtime.pool)
            del runtime
            assert alive() is None and pool() is None
        finally:
            if enabled:
                gc.enable()

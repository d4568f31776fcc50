"""Edge cases: search budgets, driver guards, fingerprint gating."""

import pytest

from repro.core.history import History
from repro.objects.opacity import OpacityChecker, SearchBudgetExceeded
from repro.objects.tm import COMMITTED, OK

from conftest import inv, res


def contended_tm_history(pairs):
    """Many concurrent committed write transactions on distinct
    variables (maximally permutable: worst case for the search)."""
    events = []
    for pid in range(pairs):
        events.append(inv(pid, "start"))
    for pid in range(pairs):
        events.append(res(pid, "start", OK))
    for pid in range(pairs):
        events.append(inv(pid, "write", pid, pid + 10))
    for pid in range(pairs):
        events.append(res(pid, "write", OK))
    for pid in range(pairs):
        events.append(inv(pid, "tryC"))
    for pid in range(pairs):
        events.append(res(pid, "tryC", COMMITTED))
    return History(events)


class TestSearchBudgets:
    def test_opacity_budget_raises_instead_of_guessing(self):
        history = contended_tm_history(6)
        tight = OpacityChecker(deep=False, max_nodes=3)
        with pytest.raises(SearchBudgetExceeded):
            tight.check_history(history)
        # With a real budget the same history verifies fine.
        assert OpacityChecker(deep=False).check_history(history).holds

    def test_setmodel_exponent_guard(self):
        from repro.setmodel import theorem44
        from repro.util.errors import ModelError

        model, safety = theorem44.negative_model()
        model.max_exponent = 2
        with pytest.raises(ModelError):
            list(model.liveness_properties())
        with pytest.raises(ModelError):
            model.adversary_sets(model.lmax, safety)


class TestDriverGuards:
    def test_fingerprint_gating_disables_lasso(self):
        """A driver component without a fingerprint must disable the
        whole exact fingerprint (no partial, unsound hashing)."""
        from repro.sim import ComposedDriver, RandomScheduler, propose_workload
        from repro.algorithms.consensus import SilentConsensus
        from repro.sim.runtime import Runtime

        driver = ComposedDriver(RandomScheduler(seed=0), propose_workload([1, 2]))
        assert driver.fingerprint() is None  # random scheduler opts out
        runtime = Runtime(SilentConsensus(2), driver, max_steps=50)
        result = runtime.run()
        # Abstract fingerprinting is also gated on the driver.
        assert result.stop_reason == "max-steps"

    def test_scheduler_misbehaviour_detected(self):
        from repro.sim import ComposedDriver, Scheduler, propose_workload, play
        from repro.algorithms.consensus import CasConsensus
        from repro.util.errors import SimulationError

        class RogueScheduler(Scheduler):
            name = "rogue"

            def pick(self, eligible, view):
                return 99  # never eligible

        driver = ComposedDriver(RogueScheduler(), propose_workload([1, 2]))
        with pytest.raises(SimulationError):
            play(CasConsensus(2), driver, max_steps=10)

    def test_composed_driver_reset_resets_components(self):
        from repro.sim import ComposedDriver, RoundRobinScheduler, propose_workload
        from repro.sim.crash import CrashAtStep
        from repro.algorithms.consensus import CasConsensus
        from repro.sim.runtime import play

        driver = ComposedDriver(
            RoundRobinScheduler(),
            propose_workload([1, 2]),
            crash_plan=CrashAtStep({2: 1}),
        )
        first = play(CasConsensus(2), driver, max_steps=100)
        second = play(CasConsensus(2), driver, max_steps=100)
        # play() resets the driver: both runs crash p1 at the same step.
        assert first.crashed() == second.crashed() == {1}
        assert first.history == second.history


class TestAlgorithmGuards:
    def test_consensus_rejects_unknown_operation(self):
        from repro.algorithms.consensus import CommitAdoptConsensus
        from repro.util.errors import SimulationError

        impl = CommitAdoptConsensus(2)
        with pytest.raises(SimulationError):
            impl.algorithm(0, "decide", (), {})

    def test_tm_rejects_unknown_operation(self):
        from repro.algorithms.tm import AgpTransactionalMemory
        from repro.util.errors import SimulationError

        impl = AgpTransactionalMemory(2)
        with pytest.raises(SimulationError):
            impl.algorithm(0, "peek", (), {})

    def test_n_processes_validation(self):
        from repro.algorithms.tm import AgpTransactionalMemory

        with pytest.raises(ValueError):
            AgpTransactionalMemory(0)

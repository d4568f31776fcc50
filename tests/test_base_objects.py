"""Unit tests for every atomic base object and the pool."""

import pytest

from repro.base_objects import (
    AtomicRegister,
    AtomicSnapshot,
    CompareAndSwap,
    FetchAndIncrement,
    ObjectPool,
    RegisterArray,
    RegisterFile,
    TestAndSet,
)
from repro.util.errors import SimulationError


class TestAtomicRegister:
    def test_read_initial(self):
        register = AtomicRegister("r", initial=7)
        assert register.apply("read", ()) == 7

    def test_write_then_read(self):
        register = AtomicRegister("r")
        register.apply("write", (3,))
        assert register.apply("read", ()) == 3

    def test_reset_restores_initial(self):
        register = AtomicRegister("r", initial="x")
        register.apply("write", ("y",))
        register.reset()
        assert register.apply("read", ()) == "x"

    def test_snapshot_state_changes_with_value(self):
        register = AtomicRegister("r")
        before = register.snapshot_state()
        register.apply("write", (1,))
        assert register.snapshot_state() != before

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError):
            AtomicRegister("r").apply("cas", (1, 2))

    def test_arity_checked(self):
        with pytest.raises(SimulationError):
            AtomicRegister("r").apply("write", ())
        with pytest.raises(SimulationError):
            AtomicRegister("r").apply("read", (1,))


class TestRegisterArray:
    def test_independent_cells(self):
        array = RegisterArray("a", size=3, initial=0)
        array.apply("write", (1, "x"))
        assert array.apply("read", (0,)) == 0
        assert array.apply("read", (1,)) == "x"

    def test_bounds_checked(self):
        array = RegisterArray("a", size=2)
        with pytest.raises(SimulationError):
            array.apply("read", (2,))
        with pytest.raises(SimulationError):
            array.apply("write", (-1, 0))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            RegisterArray("a", size=0)


class TestRegisterFile:
    def test_untouched_cells_return_initial(self):
        regfile = RegisterFile("f", initial=None)
        assert regfile.apply("read", (("any", "key"),)) is None

    def test_write_read_arbitrary_keys(self):
        regfile = RegisterFile("f")
        regfile.apply("write", ((1, 2, 3), "v"))
        assert regfile.apply("read", ((1, 2, 3),)) == "v"

    def test_cells_matching(self):
        regfile = RegisterFile("f")
        regfile.apply("write", ((1, "a"), 1))
        regfile.apply("write", ((2, "b"), 2))
        assert regfile.cells_matching(lambda k: k[0] >= 2) == {(2, "b"): 2}

    def test_reset_clears(self):
        regfile = RegisterFile("f", initial=0)
        regfile.apply("write", ("k", 9))
        regfile.reset()
        assert regfile.apply("read", ("k",)) == 0


class TestCompareAndSwap:
    def test_successful_swap(self):
        cas = CompareAndSwap("c", initial=1)
        assert cas.apply("compare_and_swap", (1, 2)) is True
        assert cas.apply("read", ()) == 2

    def test_failed_swap_leaves_value(self):
        cas = CompareAndSwap("c", initial=1)
        assert cas.apply("compare_and_swap", (9, 2)) is False
        assert cas.apply("read", ()) == 1

    def test_swap_is_by_equality_not_identity(self):
        cas = CompareAndSwap("c", initial=(1, (0, 0)))
        assert cas.apply("compare_and_swap", ((1, (0, 0)), (2, (5, 5)))) is True

    def test_unconditional_write(self):
        cas = CompareAndSwap("c")
        cas.apply("write", ("z",))
        assert cas.apply("read", ()) == "z"


class TestTestAndSet:
    def test_single_winner(self):
        tas = TestAndSet("t")
        assert tas.apply("test_and_set", ()) is False  # winner sees False
        assert tas.apply("test_and_set", ()) is True

    def test_clear_reopens(self):
        tas = TestAndSet("t")
        tas.apply("test_and_set", ())
        tas.apply("clear", ())
        assert tas.apply("test_and_set", ()) is False

    def test_read(self):
        tas = TestAndSet("t")
        assert tas.apply("read", ()) is False
        tas.apply("test_and_set", ())
        assert tas.apply("read", ()) is True


class TestFetchAndIncrement:
    def test_returns_previous_value(self):
        counter = FetchAndIncrement("n", initial=5)
        assert counter.apply("fetch_and_increment", ()) == 5
        assert counter.apply("fetch_and_increment", ()) == 6
        assert counter.apply("read", ()) == 7


class TestAtomicSnapshot:
    def test_scan_is_consistent_tuple(self):
        snapshot = AtomicSnapshot("s", size=3, initial=0)
        snapshot.apply("update", (1, 9))
        assert snapshot.apply("scan", ()) == (0, 9, 0)

    def test_single_component_read(self):
        snapshot = AtomicSnapshot("s", size=2, initial=4)
        assert snapshot.apply("read", (0,)) == 4

    def test_bounds(self):
        snapshot = AtomicSnapshot("s", size=2)
        with pytest.raises(SimulationError):
            snapshot.apply("update", (5, 1))


class TestObjectPool:
    def test_routing_by_name(self):
        pool = ObjectPool([AtomicRegister("a", 1), AtomicRegister("b", 2)])
        assert pool.apply("a", "read", ()) == 1
        assert pool.apply("b", "read", ()) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulationError):
            ObjectPool([AtomicRegister("a"), AtomicRegister("a")])

    def test_unknown_object_rejected(self):
        with pytest.raises(SimulationError):
            ObjectPool([]).apply("ghost", "read", ())

    def test_combined_fingerprint_covers_all_objects(self):
        pool = ObjectPool([AtomicRegister("a", 0), TestAndSet("t")])
        before = pool.snapshot_state()
        pool.apply("t", "test_and_set", ())
        assert pool.snapshot_state() != before

    def test_reset_resets_all(self):
        pool = ObjectPool([AtomicRegister("a", 0), FetchAndIncrement("n")])
        pool.apply("a", "write", (5,))
        pool.apply("n", "fetch_and_increment", ())
        pool.reset()
        assert pool.apply("a", "read", ()) == 0
        assert pool.apply("n", "read", ()) == 0

    def test_restore_rejects_other_object_names(self):
        other = ObjectPool([AtomicRegister("a"), AtomicRegister("c")]).capture()
        pool = ObjectPool([AtomicRegister("a"), AtomicRegister("b")])
        with pytest.raises(
            SimulationError,
            match=r"snapshot names \['a', 'c'\] do not match pool \['a', 'b'\]",
        ):
            pool.restore(other)

    def test_contains_and_names(self):
        pool = ObjectPool([AtomicRegister("b"), AtomicRegister("a")])
        assert "a" in pool and "c" not in pool
        assert pool.names() == ["a", "b"]
        assert len(pool) == 2

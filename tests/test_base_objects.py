"""Unit tests for every atomic base object and the pool.

A base object is a pure ``step(state, method, args) -> (result,
new_state)`` over immutable states.  Besides each object's semantics,
the tests below hold every shipped object to that value contract: a
step never changes the state it was given, equal states step alike, a
primitive that changes nothing returns the very state it was given,
malformed calls raise the same messages they always did, and seeded
random sequences of primitives agree with a small mutable reference
model kept here.  Every check steps through :func:`checked_step`, which
fails as soon as a step changes its input or returns a state that
cannot be hashed, so an object that shares one mutable container
between its states fails each of them.
"""

import copy
import random

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
from repro.base_objects.regfile import RegisterFileState
from repro.util.errors import SimulationError


def plain(state):
    """A fresh, deep copy of what ``state`` holds, built without any
    cache the state keeps (a register file's canonical form)."""
    if isinstance(state, RegisterFileState):
        return ("register-file", copy.deepcopy(dict(state.cells)))
    return copy.deepcopy(state)


def twin(state):
    """An equal state that shares no container with ``state``."""
    if isinstance(state, RegisterFileState):
        return RegisterFileState(dict(state.cells))
    if isinstance(state, tuple):
        return tuple([twin(item) for item in state])
    return state


def checked_step(obj, state, method, args=()):
    """``obj.step`` that fails if the step changed its input state or
    returned one that cannot be hashed."""
    before = plain(state)
    result, new = obj.step(state, method, args)
    assert plain(state) == before, f"{method}{args!r} changed its input state"
    hash(new)
    return result, new


class Live:
    """One object and its current state, stepped as a pool steps it."""

    def __init__(self, obj):
        self.obj = obj
        self.state = obj.initial_state()

    def apply(self, method, args=()):
        result, self.state = checked_step(self.obj, self.state, method, args)
        return result


class TestAtomicRegister:
    def test_read_initial(self):
        register = Live(AtomicRegister("r", initial=7))
        assert register.apply("read") == 7

    def test_write_then_read(self):
        register = Live(AtomicRegister("r"))
        register.apply("write", (3,))
        assert register.apply("read") == 3

    def test_reset_restores_initial(self):
        register = Live(AtomicRegister("r", initial="x"))
        register.apply("write", ("y",))
        register.state = register.obj.initial_state()
        assert register.apply("read") == "x"

    def test_snapshot_state_changes_with_value(self):
        register = Live(AtomicRegister("r"))
        before = register.state
        register.apply("write", (1,))
        assert register.state != before

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError):
            Live(AtomicRegister("r")).apply("cas", (1, 2))

    def test_arity_checked(self):
        with pytest.raises(SimulationError):
            Live(AtomicRegister("r")).apply("write", ())
        with pytest.raises(SimulationError):
            Live(AtomicRegister("r")).apply("read", (1,))


class TestRegisterArray:
    def test_independent_cells(self):
        array = Live(RegisterArray("a", size=3, initial=0))
        array.apply("write", (1, "x"))
        assert array.apply("read", (0,)) == 0
        assert array.apply("read", (1,)) == "x"

    def test_bounds_checked(self):
        array = Live(RegisterArray("a", size=2))
        with pytest.raises(SimulationError):
            array.apply("read", (2,))
        with pytest.raises(SimulationError):
            array.apply("write", (-1, 0))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            RegisterArray("a", size=0)


class TestRegisterFile:
    def test_untouched_cells_return_initial(self):
        regfile = Live(RegisterFile("f", initial=None))
        assert regfile.apply("read", (("any", "key"),)) is None

    def test_write_read_arbitrary_keys(self):
        regfile = Live(RegisterFile("f"))
        regfile.apply("write", ((1, 2, 3), "v"))
        assert regfile.apply("read", ((1, 2, 3),)) == "v"

    def test_cells_matching(self):
        regfile = Live(RegisterFile("f"))
        regfile.apply("write", ((1, "a"), 1))
        regfile.apply("write", ((2, "b"), 2))
        assert regfile.state.cells_matching(lambda k: k[0] >= 2) == {(2, "b"): 2}

    def test_reset_clears(self):
        regfile = Live(RegisterFile("f", initial=0))
        regfile.apply("write", ("k", 9))
        regfile.state = regfile.obj.initial_state()
        assert regfile.apply("read", ("k",)) == 0

    def test_state_keys_as_its_canonical_form(self):
        # Written in two orders, the cells are one state: equal, with
        # one hash and one repr, to the sorted frozen items.
        obj = RegisterFile("f")
        one, other = Live(obj), Live(obj)
        for key, value in (("b", 2), ((1, "a"), (3,))):
            one.apply("write", (key, value))
        for key, value in (((1, "a"), (3,)), ("b", 2)):
            other.apply("write", (key, value))
        items = [(("seq", (1, "a")), ("seq", (3,))), ("b", 2)]
        canonical = ("register-file", tuple(sorted(items, key=repr)))
        assert one.state == other.state == canonical
        assert canonical == one.state
        assert hash(one.state) == hash(other.state) == hash(canonical)
        assert repr(one.state) == repr(canonical)
        assert one.state != RegisterFile("g").initial_state()


class TestCompareAndSwap:
    def test_successful_swap(self):
        cas = Live(CompareAndSwap("c", initial=1))
        assert cas.apply("compare_and_swap", (1, 2)) is True
        assert cas.apply("read") == 2

    def test_failed_swap_leaves_value(self):
        cas = Live(CompareAndSwap("c", initial=1))
        assert cas.apply("compare_and_swap", (9, 2)) is False
        assert cas.apply("read") == 1

    def test_swap_is_by_equality_not_identity(self):
        cas = Live(CompareAndSwap("c", initial=(1, (0, 0))))
        assert cas.apply("compare_and_swap", ((1, (0, 0)), (2, (5, 5)))) is True

    def test_unconditional_write(self):
        cas = Live(CompareAndSwap("c"))
        cas.apply("write", ("z",))
        assert cas.apply("read") == "z"


class TestTestAndSet:
    def test_single_winner(self):
        tas = Live(TestAndSet("t"))
        assert tas.apply("test_and_set") is False  # winner sees False
        assert tas.apply("test_and_set") is True

    def test_clear_reopens(self):
        tas = Live(TestAndSet("t"))
        tas.apply("test_and_set")
        tas.apply("clear")
        assert tas.apply("test_and_set") is False

    def test_read(self):
        tas = Live(TestAndSet("t"))
        assert tas.apply("read") is False
        tas.apply("test_and_set")
        assert tas.apply("read") is True


class TestFetchAndIncrement:
    def test_returns_previous_value(self):
        counter = Live(FetchAndIncrement("n", initial=5))
        assert counter.apply("fetch_and_increment") == 5
        assert counter.apply("fetch_and_increment") == 6
        assert counter.apply("read") == 7


class TestAtomicSnapshot:
    def test_scan_is_consistent_tuple(self):
        snapshot = Live(AtomicSnapshot("s", size=3, initial=0))
        snapshot.apply("update", (1, 9))
        assert snapshot.apply("scan") == (0, 9, 0)

    def test_single_component_read(self):
        snapshot = Live(AtomicSnapshot("s", size=2, initial=4))
        assert snapshot.apply("read", (0,)) == 4

    def test_bounds(self):
        snapshot = Live(AtomicSnapshot("s", size=2))
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

    def test_pools_of_the_same_names_share_one_layout(self):
        # What lets a snapshot's restore check names by identity.
        first = ObjectPool([AtomicRegister("b"), TestAndSet("a")])
        second = ObjectPool([TestAndSet("a"), AtomicRegister("b")])
        other = ObjectPool([AtomicRegister("a"), AtomicRegister("c")])
        assert first.layout is second.layout == ("a", "b")
        second.apply("b", "write", (1,))
        first.restore(second.capture(), second.layout)
        assert first.apply("b", "read", ()) == 1
        with pytest.raises(SimulationError, match="do not match pool"):
            first.restore(other.capture(), other.layout)

    def test_contains_and_names(self):
        pool = ObjectPool([AtomicRegister("b"), AtomicRegister("a")])
        assert "a" in pool and "c" not in pool
        assert pool.names() == ["a", "b"]
        assert len(pool) == 2

    def test_state_is_the_pairs_tuple(self):
        # The state is the fingerprint's value: one (name, state) pair
        # per object in name order.  A read keeps the very tuple; a
        # write replaces it and leaves the captured one as it was.
        pool = ObjectPool([RegisterArray("b", size=2, initial=0), TestAndSet("a")])
        captured = pool.capture()
        assert captured == (("a", ("tas", False)), ("b", ("register-array", (0, 0))))
        assert pool.snapshot_state() == captured
        pool.apply("b", "read", (1,))
        assert pool.capture() is pool.snapshot_state()
        pool.apply("b", "write", (1, 7))
        assert pool.state_of("b") == ("register-array", (0, 7))
        assert captured[1] == ("b", ("register-array", (0, 0)))
        pool.restore(captured)
        assert pool.apply("b", "read", (1,)) == 0


# -- the value contract, for every shipped object --------------------------------

#: Each shipped object with the primitive calls a random sequence draws
#: from: small domains, so that sequences revisit values.
def _calls_register(rng):
    return rng.choice([("read", ()), ("write", (rng.randint(0, 2),))])


def _calls_array(rng):
    index = rng.randint(0, 2)
    return rng.choice([("read", (index,)), ("write", (index, rng.randint(0, 2)))])


def _calls_file(rng):
    key = rng.choice([(0, "a"), (1, "a"), "k"])
    return rng.choice([("read", (key,)), ("write", (key, rng.randint(0, 2)))])


def _calls_cas(rng):
    value = rng.randint(0, 2)
    return rng.choice([
        ("read", ()),
        ("write", (value,)),
        ("compare_and_swap", (value, rng.randint(0, 2))),
    ])


def _calls_tas(rng):
    return rng.choice([("test_and_set", ()), ("read", ()), ("clear", ())])


def _calls_counter(rng):
    return rng.choice([("fetch_and_increment", ()), ("read", ())])


def _calls_snapshot(rng):
    index = rng.randint(0, 2)
    return rng.choice([
        ("update", (index, rng.randint(0, 2))),
        ("scan", ()),
        ("read", (index,)),
    ])


class RegisterModel:
    def __init__(self, tag, initial):
        self.tag, self.value = tag, initial

    def apply(self, method, args):
        if method == "read":
            return self.value
        if method == "write":
            self.value = args[0]
            return None
        if method == "compare_and_swap":
            if self.value == args[0]:
                self.value = args[1]
                return True
            return False
        if method == "test_and_set":
            previous, self.value = self.value, True
            return previous
        if method == "clear":
            self.value = False
            return None
        previous = self.value  # fetch_and_increment
        self.value += 1
        return previous

    def state(self):
        return (self.tag, self.value)


class CellsModel:
    def __init__(self, tag, size, initial):
        self.tag, self.cells = tag, [initial] * size

    def apply(self, method, args):
        if method == "read":
            return self.cells[args[0]]
        if method == "scan":
            return tuple(self.cells)
        self.cells[args[0]] = args[1]  # write, update
        return None

    def state(self):
        return (self.tag, tuple(self.cells))


class FileModel:
    def __init__(self, initial):
        self.initial, self.cells = initial, {}

    def apply(self, method, args):
        if method == "read":
            return self.cells.get(args[0], self.initial)
        self.cells[args[0]] = args[1]
        return None

    def state(self):
        items = [((("seq", k) if type(k) is tuple else k), v) for k, v in self.cells.items()]
        return ("register-file", tuple(sorted(items, key=repr)))


#: id -> (object factory, reference model factory, call generator, the
#: read-only methods).
SHIPPED = {
    "register": (
        lambda: AtomicRegister("r", initial=0),
        lambda: RegisterModel("register", 0),
        _calls_register,
        {"read"},
    ),
    "array": (
        lambda: RegisterArray("a", size=3, initial=0),
        lambda: CellsModel("register-array", 3, 0),
        _calls_array,
        {"read"},
    ),
    "file": (
        lambda: RegisterFile("f", initial=0),
        lambda: FileModel(0),
        _calls_file,
        {"read"},
    ),
    "cas": (
        lambda: CompareAndSwap("c", initial=0),
        lambda: RegisterModel("cas", 0),
        _calls_cas,
        {"read"},
    ),
    "tas": (
        lambda: TestAndSet("t"),
        lambda: RegisterModel("tas", False),
        _calls_tas,
        {"read"},
    ),
    "counter": (
        lambda: FetchAndIncrement("n", initial=0),
        lambda: RegisterModel("counter", 0),
        _calls_counter,
        {"read"},
    ),
    "snapshot": (
        lambda: AtomicSnapshot("s", size=3, initial=0),
        lambda: CellsModel("snapshot", 3, 0),
        _calls_snapshot,
        {"read", "scan"},
    ),
}


def _states(kind, seed, length):
    """The states a seeded random sequence of primitives passes through,
    with the call made from each."""
    make, _, calls, _ = SHIPPED[kind]
    obj = make()
    rng = random.Random(f"{kind}-{seed}")
    state = obj.initial_state()
    for _ in range(length):
        method, args = calls(rng)
        yield obj, state, method, args
        _, state = checked_step(obj, state, method, args)


@pytest.mark.parametrize("kind", sorted(SHIPPED))
class TestValueContract:
    def test_step_leaves_its_input_and_equal_inputs_step_alike(self, kind):
        for obj, state, method, args in _states(kind, 0, 60):
            other = twin(state)
            assert other == state and other is not state
            result, new = checked_step(obj, state, method, args)
            twin_result, twin_new = checked_step(obj, other, method, args)
            assert (twin_result, twin_new) == (result, new)
            assert hash(twin_new) == hash(new)

    def test_a_read_returns_the_identical_state(self, kind):
        reads = SHIPPED[kind][3]
        seen = 0
        for obj, state, method, args in _states(kind, 1, 60):
            if method in reads:
                assert checked_step(obj, state, method, args)[1] is state
                assert obj.footprint(method, args)[0] == "read"
                seen += 1
            else:
                assert obj.footprint(method, args)[0] == "write"
        assert seen

    def test_agrees_with_a_reference_model(self, kind):
        make, model_of, calls, _ = SHIPPED[kind]
        for seed in range(5):
            obj, model = make(), model_of()
            rng = random.Random(f"model-{kind}-{seed}")
            state = obj.initial_state()
            assert state == model.state()
            for _ in range(80):
                method, args = calls(rng)
                result, state = checked_step(obj, state, method, args)
                assert result == model.apply(method, args), (method, args)
                assert state == model.state()


#: (object factory, method, args, the message it has always raised).
MALFORMED = [
    (lambda: AtomicRegister("r"), "read", (1,), "read takes no arguments"),
    (lambda: AtomicRegister("r"), "write", (), "write takes exactly one argument"),
    (lambda: RegisterArray("a", size=2), "read", (), "array read takes exactly one index"),
    (lambda: RegisterArray("a", size=2), "write", (0,), "array write takes an index and a value"),
    (lambda: RegisterArray("a", size=2), "read", (2,), "index 2 out of range for array 'a' of size 2"),
    (lambda: RegisterArray("a", size=2), "write", ("x", 1), "index 'x' out of range for array 'a' of size 2"),
    (lambda: RegisterFile("f"), "read", (), "register-file read takes one key"),
    (lambda: RegisterFile("f"), "write", ("k",), "register-file write takes (key, value)"),
    (lambda: CompareAndSwap("c"), "read", (1,), "read takes no arguments"),
    (lambda: CompareAndSwap("c"), "write", (), "write takes exactly one argument"),
    (lambda: CompareAndSwap("c"), "compare_and_swap", (1,), "compare_and_swap takes (expected, new)"),
    (lambda: TestAndSet("t"), "test_and_set", (1,), "test_and_set takes no arguments"),
    (lambda: TestAndSet("t"), "read", (1,), "read takes no arguments"),
    (lambda: TestAndSet("t"), "clear", (1,), "clear takes no arguments"),
    (lambda: FetchAndIncrement("n"), "fetch_and_increment", (1,), "fetch_and_increment takes no arguments"),
    (lambda: FetchAndIncrement("n"), "read", (1,), "read takes no arguments"),
    (lambda: AtomicSnapshot("s", size=2), "update", (0,), "update takes (component, value)"),
    (lambda: AtomicSnapshot("s", size=2), "scan", (1,), "scan takes no arguments"),
    (lambda: AtomicSnapshot("s", size=2), "read", (), "read takes exactly one component index"),
    (lambda: AtomicSnapshot("s", size=2), "update", (5, 1), "component 5 out of range for snapshot 's' of size 2"),
    (lambda: AtomicRegister("r"), "cas", (), "base object 'r' (AtomicRegister) has no primitive 'cas'; available: ('read', 'write')"),
    (lambda: TestAndSet("t"), "nope", (), "base object 't' (TestAndSet) has no primitive 'nope'"),
]


@pytest.mark.parametrize("make, method, args, message", MALFORMED)
def test_malformed_calls_raise_the_same_messages(make, method, args, message):
    obj = make()
    # From a state some write reached, which the raising call must
    # leave as it was.
    writes = {"read", "scan"}
    write = next(m for m in obj.methods() if m not in writes)
    write_args = {
        "write": (0, 1) if isinstance(obj, (RegisterArray, RegisterFile)) else (1,),
        "update": (0, 1),
        "compare_and_swap": (None, 1),
    }.get(write, ())
    _, state = checked_step(obj, obj.initial_state(), write, write_args)
    before = plain(state)
    with pytest.raises(SimulationError) as raised:
        obj.step(state, method, args)
    assert str(raised.value).startswith(message)
    assert plain(state) == before

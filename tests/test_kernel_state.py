"""Tests for the kernel's immutable-state contract.

Process memories hold immutable, hashable values, and base objects
capture an immutable image of their state, so the engine shares state
between snapshots instead of deep-copying it and fingerprints a memory
as its sorted items.  In test form:

* the contract fails loudly: a list left in a process memory, or an
  unhashable base-object attribute under the default capture, raises
  :class:`SimulationError` naming where it is;
* the three objects that keep a mutable container capture a copy, so
  writes after a capture never reach the captured state;
* the flat memory key partitions memories exactly as ``freeze()`` did;
* snapshot and replay exploration agree in lockstep (``mode="parity"``)
  on one implementation per container-holding object kind;
* the process keys the engine builds once per operation node or idle
  memory are the keys: along seeded walks with crashes, every cached
  configuration key equals the key of a configuration restored from a
  capture and of one replayed from scratch, equal keys carry equal
  invocation counts, and a crashed process keys apart from the live
  one with the same memory.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.base_objects import AtomicSnapshot, RegisterArray, RegisterFile
from repro.base_objects.base import BaseObject, ObjectPool
from repro.base_objects.register import AtomicRegister
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.engine.config import KernelConfig
from repro.fuzz.driver import FuzzDriver
from repro.obs.recorder import recording
from repro.scenarios import get_scenario, verify
from repro.sim import explore_histories
from repro.sim.drivers import CrashDecision
from repro.sim.explore import plan_successors
from repro.sim.kernel import Implementation, Op, ProcessState
from repro.util.errors import SimulationError
from repro.util.freeze import freeze
from repro.util.rng import DeterministicRng

NOTE_TYPE = ObjectType(
    name="note",
    operations=(OperationSignature("note", response_domain=("ok",)),),
    progress_mode=ProgressMode.EVENTUAL,
)
#: p0 notes twice: its second invocation meets what the first
#: operation left in memory.
NOTE_PLAN = {0: [("note", ()), ("note", ())], 1: []}


class ListMemory(Implementation):
    """Leaves a list in process memory: a contract violation."""

    name = "list-memory"

    def __init__(self):
        super().__init__(NOTE_TYPE, 2)

    def create_pool(self):
        return ObjectPool([AtomicRegister("r", initial=0)])

    def algorithm(self, pid, operation, args, memory):
        memory["seen"] = [pid]
        yield Op("r", "read")
        return "ok"


class Bag(BaseObject):
    """Keeps a list it appends to, without overriding capture."""

    def __init__(self, name):
        super().__init__(name)
        self.items = []

    def methods(self):
        return ("put",)

    def apply(self, method, args):
        self.items.append(args[0])

    def snapshot_state(self):
        return ("bag", tuple(self.items))

    def reset(self):
        self.items = []


class BagWriter(Implementation):
    name = "bag-writer"

    def __init__(self):
        super().__init__(NOTE_TYPE, 2)

    def create_pool(self):
        return ObjectPool([Bag("bag")])

    def algorithm(self, pid, operation, args, memory):
        yield Op("bag", "put", (pid,))
        return "ok"


class TestContractFailsLoudly:
    def test_list_in_memory_fails_exhaustive(self):
        with pytest.raises(SimulationError, match=r"p0 memory\['seen'\]"):
            list(explore_histories(ListMemory, NOTE_PLAN))

    def test_list_in_memory_fails_fuzz(self):
        driver = FuzzDriver(ListMemory, NOTE_PLAN, seed=0)
        with pytest.raises(SimulationError, match=r"p0 memory\['seen'\]"):
            driver.run(5)

    def test_unhashable_attribute_fails_at_capture(self):
        with pytest.raises(SimulationError, match="'bag'.*'items'.*capture_state"):
            Bag("bag").capture_state()

    def test_unhashable_attribute_fails_in_exploration(self):
        with pytest.raises(SimulationError, match="'bag'.*'items'"):
            list(explore_histories(BagWriter, {0: [("note", ())], 1: []}))


def _array():
    return RegisterArray("a", size=2, initial=0), ("write", (0, 5)), ("read", (0,))


def _snapshot():
    return AtomicSnapshot("s", size=2), ("update", (1, 5)), ("scan", ())


def _file():
    return RegisterFile("f"), ("write", ("k", 5)), ("read", ("k",))


@pytest.mark.parametrize("make", [_array, _snapshot, _file])
def test_restore_is_not_aliased_by_later_writes(make):
    obj, (write, write_args), (read, read_args) = make()
    obj.apply(write, write_args)
    captured = obj.capture_state()
    expected = obj.apply(read, read_args)
    obj.restore_state(captured)
    obj.apply(write, write_args[:-1] + (6,))
    assert obj.apply(read, read_args) != expected
    obj.restore_state(captured)
    assert obj.apply(read, read_args) == expected
    assert obj.capture_state() == captured


#: Immutable memory values, drawn from a small domain so that equal
#: memories come up often.
VALUES = st.recursive(
    st.one_of(
        st.integers(-1, 2), st.booleans(), st.none(), st.sampled_from(["", "a"])
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=2).map(tuple),
        st.frozensets(inner, max_size=2),
    ),
    max_leaves=6,
)
MEMORIES = st.dictionaries(st.sampled_from(["a", "b", "c"]), VALUES, max_size=3)
MEMORY_PAIRS = st.one_of(
    st.tuples(MEMORIES, MEMORIES),
    MEMORIES.map(lambda memory: (memory, dict(reversed(list(memory.items()))))),
)


@given(MEMORY_PAIRS)
@settings(max_examples=300)
def test_flat_memory_key_partitions_like_freeze(pair):
    left, right = pair
    left_key = ProcessState(pid=0, memory=left).fingerprint()
    right_key = ProcessState(pid=0, memory=right).fingerprint()
    assert (left_key == right_key) == (freeze(left) == freeze(right))
    if left_key == right_key:
        assert hash(left_key) == hash(right_key)


@pytest.mark.parametrize(
    "scenario_id, overrides",
    [
        ("lock-mutex:impl=bakery,n=2,rounds=1", {"max_depth": 26}),  # RegisterArray
        ("i12-opacity", {}),  # AtomicSnapshot
        ("commit-adopt-consensus", {"max_depth": 28}),  # RegisterFile
    ],
)
def test_snapshot_replay_parity(scenario_id, overrides):
    verdict = verify(
        scenario_id, backend="exhaustive", mode="parity", reduction="dpor",
        **overrides,
    )
    assert verdict.outcome == "holds"


# -- process keys, built once --------------------------------------------------

#: A TM, a consensus and a lock scenario, with the crash probability of
#: their walks.
KEY_SCENARIOS = [
    ("agp-opacity", 0.0),
    ("consensus-grid:impl=commit-adopt,n=3,proposals=alt", 0.1),
    ("lock-mutex:impl=bakery,n=2,rounds=2", 0.0),
]


def _walk(config, successors, rng, steps, crash_probability):
    """Yield after each of up to ``steps`` seeded random decisions."""
    for _ in range(steps):
        choices = successors(config)
        if not choices:
            return
        if crash_probability and rng.maybe(crash_probability):
            decision = CrashDecision(rng.choice(sorted({label[1] for label, _ in choices})))
        else:
            decision = rng.choice(choices)[1]
        config.apply(decision)
        yield decision


def _unseeded(snapshot):
    """``snapshot`` without its key seeds: a configuration restored
    from it looks every process key up itself."""
    return snapshot._replace(
        processes=tuple(part._replace(fingerprint=None) for part in snapshot.processes),
        pool_fingerprints=None,
        events_key=None,
    )


@pytest.mark.parametrize("scenario_id, crash_probability", KEY_SCENARIOS)
def test_cached_keys_are_the_keys(scenario_id, crash_probability):
    scenario = get_scenario(scenario_id)
    successors = plan_successors(scenario.plan)
    rng = DeterministicRng(f"process-keys-{scenario_id}")
    config = KernelConfig.initial(scenario.factory)
    root = config.capture()
    invocations_of_key = {}
    keys = crashes = 0
    for _ in range(8):
        # Every walk starts over from the root, so walks meet states,
        # nodes and idle memories that earlier walks keyed.
        config.restore_from(root)
        schedule = []
        for decision in _walk(config, successors, rng, 40, crash_probability):
            schedule.append(decision)
            key, kernel_key = config.fingerprint(), config.kernel_fingerprint()
            restored = KernelConfig.from_snapshot(
                scenario.factory, _unseeded(config.capture())
            )
            # A replay builds its own nodes and memories: nothing is
            # shared with the configuration's caches.
            replayed = KernelConfig.replay(scenario.factory, schedule)
            for other in (restored, replayed):
                assert other.fingerprint() == key
                assert other.kernel_fingerprint() == kernel_key
            invocations = tuple(
                config.invocations_of(pid) for pid in range(config.n_processes)
            )
            assert invocations_of_key.setdefault(key, invocations) == invocations
            keys += 1
        crashes += sum(type(decision) is CrashDecision for decision in schedule)
    # The walks met states twice, and crashed processes (where asked).
    assert len(invocations_of_key) < keys
    assert (crashes > 0) == bool(crash_probability)


@pytest.mark.parametrize("scenario_id, crash_probability", KEY_SCENARIOS)
def test_a_state_is_hashed_once(scenario_id, crash_probability):
    # Walking the same schedule again from a restore keys every state
    # from the node or idle-memory keys the first pass built.
    scenario = get_scenario(scenario_id)
    successors = plan_successors(scenario.plan)
    config = KernelConfig.initial(scenario.factory)
    root = config.capture()
    rng = DeterministicRng(f"hash-once-{scenario_id}")
    schedule = []
    with recording() as rec:
        for decision in _walk(config, successors, rng, 40, crash_probability):
            schedule.append(decision)
            config.fingerprint()
        built = rec.counters["kernel/state_hashes"]
        config.restore_from(_unseeded(root))
        for decision in schedule:
            config.apply(decision)
            config.fingerprint()
    assert built > 0
    assert rec.counters["kernel/state_hashes"] == built


def test_crashed_process_keys_apart_from_live_one():
    scenario = get_scenario("consensus-grid:impl=commit-adopt,n=3,proposals=alt")
    config = KernelConfig.initial(scenario.factory)
    root = config.capture()
    live = config.kernel_fingerprint()
    memory = config.runtime.processes[0].memory
    config.apply(CrashDecision(0))
    assert config.runtime.processes[0].memory is memory
    crashed = config.kernel_fingerprint()
    pool, processes = crashed
    assert processes[0] != live[1][0]
    assert (pool, processes[1:]) == (live[0], live[1][1:])
    config.restore_from(_unseeded(root))
    assert config.kernel_fingerprint() == live

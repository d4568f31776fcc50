"""Contract tests for the value types built on the kernel step path.

Events, :class:`~repro.sim.kernel.Op` and
:class:`~repro.sim.kernel.Footprint` are tuple-backed,
:class:`~repro.objects.tm.TransactionCall` is a ``__slots__`` record,
and :class:`~repro.sim.kernel.OpNode` is a ``__slots__`` value that
compares by its identity fields.
Their constructors, equality, hashing, rendered text, pickling and
immutability are pinned here to the frozen-dataclass behaviour they
replace: every string below is what the dataclass versions rendered.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.events import Crash, Invocation, Response
from repro.engine.explorer import ConfigVisit
from repro.fuzz.driver import _CorpusEntry
from repro.objects.tm import (
    ABORTED,
    COMMITTED,
    OK,
    Transaction,
    TransactionCall,
    parse_transactions,
)
from repro.sim.kernel import Footprint, Op, OpNode

# (type, positional args, keyword args, repr, str, sort key or None)
CASES = [
    (
        Invocation,
        (0, "write", (1, "a")),
        {"process": 0, "operation": "write", "args": (1, "a")},
        "Invocation(process=0, operation='write', args=(1, 'a'))",
        "write(1, 'a')_0",
        (0, 0, "write", "(1, 'a')"),
    ),
    (
        Response,
        (1, "read", ABORTED),
        {"process": 1, "operation": "read", "value": ABORTED},
        "Response(process=1, operation='read', value=A)",
        "read->A_1",
        (1, 1, "read", "A"),
    ),
    (
        Crash,
        (4,),
        {"process": 4},
        "Crash(process=4)",
        "crash_4",
        (2, 4, "", ""),
    ),
    (
        Op,
        ("r", "cas", (0, 1)),
        {"obj": "r", "method": "cas", "args": (0, 1)},
        "Op(obj='r', method='cas', args=(0, 1))",
        "r.cas(0, 1)",
        None,
    ),
    (
        Footprint,
        (1, "step", (("r", 0),), ()),
        {"pid": 1, "kind": "step", "reads": (("r", 0),)},
        "Footprint(pid=1, kind='step', reads=(('r', 0),), writes=())",
        "Footprint(pid=1, kind='step', reads=(('r', 0),), writes=())",
        None,
    ),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("kind, args, kwargs, text, rendered, key", CASES, ids=IDS)
class TestValueTypeContract:
    def test_equal_and_hash_by_value(self, kind, args, kwargs, text, rendered, key):
        first, second = kind(*args), kind(*args)
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_keyword_construction(self, kind, args, kwargs, text, rendered, key):
        assert kind(**kwargs) == kind(*args)
        for name, value in kwargs.items():
            assert getattr(kind(**kwargs), name) == value

    def test_text(self, kind, args, kwargs, text, rendered, key):
        value = kind(*args)
        assert repr(value) == text
        assert str(value) == rendered
        if key is not None:
            assert value.sort_key() == key

    def test_pickle_and_copy_round_trip(self, kind, args, kwargs, text, rendered, key):
        value = kind(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(value, protocol))
            assert type(restored) is kind and restored == value
            assert repr(restored) == text
        for clone in (copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is kind and clone == value

    def test_assignment_raises(self, kind, args, kwargs, text, rendered, key):
        value = kind(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_not_a_dataclass(self, kind, args, kwargs, text, rendered, key):
        assert not dataclasses.is_dataclass(kind)


class TestEventKinds:
    def test_defaults(self):
        assert Invocation(2, "start") == Invocation(2, "start", ())
        assert Invocation(2, "start").args == ()
        assert Response(3, "tryC").value is None
        assert Op("x", "read").args == ()
        assert Footprint(0, "crash") == Footprint(0, "crash", (), ())

    def test_kinds_never_equal(self):
        events = [
            Invocation(0, "x", (1,)),
            Response(0, "x", (1,)),
            Invocation(0, "x"),
            Response(0, "x"),
            Crash(0),
        ]
        for index, left in enumerate(events):
            for right in events[index + 1:]:
                assert left != right
                assert hash(left) != hash(right)
        assert len(set(events)) == len(events)

    def test_events_are_not_schedule_labels(self):
        # Schedule labels are ("crash", pid) / ("invoke", pid) tuples.
        assert Crash(0) != ("crash", 0)
        assert Invocation(0, "invoke") != ("invoke", 0)

    def test_visible_footprints(self):
        assert Footprint(0, "invoke").visible
        assert Footprint(0, "response").visible
        assert Footprint(0, "crash").visible
        assert not Footprint(0, "step").visible

    def test_search_records_are_named_tuples(self):
        config_visit = ConfigVisit(None, "fp", (("step", 0),), 1, ())
        assert config_visit.fingerprint == "fp"
        assert config_visit.schedule == (("step", 0),)
        with pytest.raises(AttributeError):
            config_visit.depth = 2


class TestSlotsRecords:
    def test_transaction_call(self):
        call = TransactionCall("write", (0, 1), OK, 3, None)
        assert repr(call) == (
            "TransactionCall(operation='write', args=(0, 1), value=OK, "
            "invocation_index=3, response_index=None)"
        )
        assert call == TransactionCall(
            operation="write", args=(0, 1), value=OK,
            invocation_index=3, response_index=None,
        )
        assert call != TransactionCall("write", (0, 1), OK, 3, 4)
        assert call.pending
        call.response_index = 4
        assert not call.pending
        with pytest.raises(AttributeError):
            call.extra = 1
        with pytest.raises(TypeError):
            hash(call)

    def test_op_node(self):
        invocation = Invocation(0, "x")
        idle = {"k": 1}
        root = OpNode(invocation, idle, idle)
        assert repr(root) == (
            "OpNode(invocation=Invocation(process=0, operation='x', "
            "args=()), primitives_issued=0, last_result=None, "
            "pending_op=None, memory={'k': 1})"
        )
        assert root.fingerprint() == ("x", (), 0, None, None, None)
        root.next_op, root.next_memory = Op("r", "read"), idle
        child = root.child_for(5)
        assert root.child_for(5) is child
        assert (child.path, child.primitives_issued, child.last_result) == (
            (5, ()), 1, 5,
        )
        assert child.fingerprint() == ("x", (), 1, 5, (), ("r", "read"))
        assert root.child_for(6) is not child
        assert root.children == {6: root.child_for(6)}
        # Equality is by invocation, invoke-time memory and result path:
        # the same point built apart (in another runtime) is equal, and
        # the memo is not part of the value.
        twin = OpNode(Invocation(0, "x"), {"k": 1}, {"k": 1}, (5, ()), 1, 5,
                      Op("r", "read"))
        assert twin == child and child == twin
        assert twin != root
        assert OpNode(invocation, idle, idle, (4, ()), 1, 4) != child
        assert OpNode(invocation, {"k": 2}, idle, (5, ()), 1, 5) != child
        assert OpNode(Invocation(1, "x"), idle, idle, (5, ()), 1, 5) != child
        assert child.results() == (5,)
        with pytest.raises(TypeError):
            hash(child)
        with pytest.raises(AttributeError):
            child.extra = 1
        assert not hasattr(child, "__dict__")
        assert not dataclasses.is_dataclass(OpNode)
        assert not dataclasses.is_dataclass(TransactionCall)

    def test_transaction(self):
        transaction = Transaction(process=1, number=2, start_index=5)
        assert repr(transaction) == "<T p1#2 live [5..None]>"
        assert (transaction.calls, transaction.status, transaction.end_index) == (
            [], "live", None,
        )
        assert transaction == Transaction(1, 2, [], "live", 5, None)
        assert transaction != Transaction(1, 2, [], "live", 5, 9)
        # Each transaction gets its own call list.
        transaction.calls.append(TransactionCall("start", (), OK, 5, 6))
        assert Transaction(1, 2).calls == []
        assert transaction != Transaction(1, 2, [], "live", 5, None)
        with pytest.raises(AttributeError):
            transaction.extra = 1
        with pytest.raises(TypeError):
            hash(transaction)
        assert not dataclasses.is_dataclass(Transaction)
        assert pickle.loads(pickle.dumps(transaction)) == transaction

    def test_parsed_transactions_match_field_wise(self):
        history = [
            Invocation(0, "start"), Response(0, "start", OK),
            Invocation(0, "tryC"), Response(0, "tryC", COMMITTED),
        ]
        (parsed,) = parse_transactions(history)
        assert parsed == Transaction(
            0, 1,
            [TransactionCall("start", (), OK, 0, 1),
             TransactionCall("tryC", (), COMMITTED, 2, 3)],
            "committed", 0, 3,
        )

    def test_corpus_entry_is_a_named_tuple(self):
        entry = _CorpusEntry("snapshot", (("step", 0),), 1)
        assert isinstance(entry, tuple)
        assert (entry.snapshot, entry.schedule, entry.depth) == (
            "snapshot", (("step", 0),), 1,
        )
        with pytest.raises(AttributeError):
            entry.depth = 2

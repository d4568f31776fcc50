"""Property-based tests: safety checkers are prefix-closed
(Definition 3.1's closure, tested on random histories).
"""

from hypothesis import given, settings, strategies as st

from repro.core.history import History
from repro.objects.consensus import AgreementValidity
from repro.objects.opacity import OpacityChecker, StrictSerializability
from repro.objects.tm import ABORTED, COMMITTED, OK

from conftest import inv, res
from test_property_history import well_formed_events


@st.composite
def consensus_events(draw, n_processes=3, max_ops=3):
    """Random consensus histories (possibly violating safety)."""
    events = []
    pending = {}
    count = draw(st.integers(min_value=0, max_value=max_ops * 2))
    for _ in range(count):
        pid = draw(st.integers(min_value=0, max_value=n_processes - 1))
        if pid in pending:
            value = draw(st.integers(min_value=0, max_value=2))
            events.append(res(pid, "propose", value))
            del pending[pid]
        else:
            value = draw(st.integers(min_value=0, max_value=2))
            events.append(inv(pid, "propose", value))
            pending[pid] = True
    return events


@st.composite
def tm_events_random(draw, n_processes=2, max_calls=6):
    """Random TM histories (possibly violating opacity)."""
    events = []
    pending = {}
    in_tx = set()
    count = draw(st.integers(min_value=0, max_value=max_calls * 2))
    for _ in range(count):
        pid = draw(st.integers(min_value=0, max_value=n_processes - 1))
        if pid in pending:
            operation = pending.pop(pid)
            if operation == "start":
                value = draw(st.sampled_from([OK, ABORTED]))
                if value is OK:
                    in_tx.add(pid)
                events.append(res(pid, "start", value))
            elif operation == "read":
                value = draw(st.sampled_from([0, 1, 2, ABORTED]))
                if value is ABORTED:
                    in_tx.discard(pid)
                events.append(res(pid, "read", value))
            elif operation == "write":
                value = draw(st.sampled_from([OK, ABORTED]))
                if value is ABORTED:
                    in_tx.discard(pid)
                events.append(res(pid, "write", value))
            else:  # tryC
                value = draw(st.sampled_from([COMMITTED, ABORTED]))
                in_tx.discard(pid)
                events.append(res(pid, "tryC", value))
        elif pid in in_tx:
            operation = draw(st.sampled_from(["read", "write", "tryC"]))
            if operation == "read":
                events.append(inv(pid, "read", 0))
            elif operation == "write":
                events.append(inv(pid, "write", 0, draw(st.sampled_from([1, 2]))))
            else:
                events.append(inv(pid, "tryC"))
            pending[pid] = operation
        else:
            events.append(inv(pid, "start"))
            pending[pid] = "start"
    return events


class TestPrefixClosure:
    @given(consensus_events())
    @settings(max_examples=200)
    def test_agreement_validity_prefix_closed(self, events):
        checker = AgreementValidity()
        assert checker.check_prefix_closure(History(events)).holds

    @given(tm_events_random())
    @settings(max_examples=60, deadline=None)
    def test_opacity_prefix_closed(self, events):
        checker = OpacityChecker()
        assert checker.check_prefix_closure(History(events)).holds

    @given(tm_events_random())
    @settings(max_examples=60, deadline=None)
    def test_opacity_implies_strict_serializability(self, events):
        history = History(events)
        if OpacityChecker().check_history(history).holds:
            assert StrictSerializability().check_history(history).holds

"""Unit tests for repro.core.object_type."""

import pytest

from repro.core.events import Invocation, Response
from repro.core.object_type import (
    ObjectType,
    OperationSignature,
    ProgressMode,
    SequentialSpec,
)
from repro.objects.consensus import ConsensusSpec, consensus_object_type
from repro.util.errors import SpecificationError, UsageError


class TestOperationSignature:
    def test_invocation_enumeration(self):
        sig = OperationSignature("op", argument_domains=((1, 2), ("x",)))
        invocations = list(sig.invocations_for(0))
        assert len(invocations) == 2
        assert Invocation(0, "op", (1, "x")) in invocations

    def test_response_enumeration(self):
        sig = OperationSignature("op", response_domain=(True, False))
        responses = list(sig.responses_for(3))
        assert Response(3, "op", True) in responses
        assert len(responses) == 2


class TestObjectType:
    def test_signature_lookup(self):
        object_type = consensus_object_type()
        assert object_type.signature("propose").name == "propose"
        with pytest.raises(UsageError, match="unknown operation"):
            object_type.signature("nope")

    def test_responses_to(self):
        object_type = consensus_object_type(values=(0, 1))
        responses = object_type.responses_to(Invocation(2, "propose", (0,)))
        assert {r.value for r in responses} == {0, 1}
        assert all(r.process == 2 for r in responses)

    def test_good_response_default_and_custom(self):
        object_type = consensus_object_type()
        assert object_type.is_good(Response(0, "propose", 1))
        from repro.objects.tm import ABORTED, COMMITTED, tm_object_type

        tm = tm_object_type()
        assert tm.is_good(Response(0, "tryC", COMMITTED))
        assert not tm.is_good(Response(0, "tryC", ABORTED))
        assert not tm.is_good(Response(0, "start", None))

    def test_progress_modes(self):
        from repro.objects.tm import tm_object_type

        assert consensus_object_type().progress_mode is ProgressMode.EVENTUAL
        assert tm_object_type().progress_mode is ProgressMode.REPEATED


class TestSequentialSpec:
    def test_consensus_spec_rejects_unknown_operation(self):
        spec = ConsensusSpec()
        with pytest.raises(SpecificationError):
            spec.apply(spec.initial_state(), "cas", (1, 2))

    def test_consensus_spec_first_proposal_wins(self):
        spec = ConsensusSpec()
        assert spec.initial_state() is None
        state, decided = spec.apply(spec.initial_state(), "propose", (4,))
        assert decided == 4
        state, decided = spec.apply(state, "propose", (9,))
        assert decided == 4

    def test_accepts_checks_sequential_runs(self):
        spec = ConsensusSpec()
        assert spec.accepts([("propose", (5,), 5), ("propose", (2,), 5)])
        assert not spec.accepts([("propose", (5,), 5), ("propose", (2,), 2)])
        assert not spec.accepts([("propose", (1,), 3)])

    def test_accepts_handles_nondeterminism(self):
        class CoinSpec(SequentialSpec):
            def initial_state(self):
                return "?"

            def successors(self, state, operation, args):
                yield ("heads", "H")
                yield ("tails", "T")

        spec = CoinSpec()
        assert spec.accepts([("flip", (), "H")])
        assert spec.accepts([("flip", (), "T")])
        assert not spec.accepts([("flip", (), "edge")])

    def test_apply_raises_on_nondeterministic_spec(self):
        class CoinSpec(SequentialSpec):
            def initial_state(self):
                return "?"

            def successors(self, state, operation, args):
                yield ("heads", "H")
                yield ("tails", "T")

        with pytest.raises(SpecificationError):
            CoinSpec().apply("?", "flip", ())

"""Tests for the utility layer (freeze, rng, errors)."""

import pytest

from repro.util import DeterministicRng, ReproError, SimulationError
from repro.util.freeze import freeze
from repro.util.rng import stable_choice


class TestFreeze:
    def test_equal_structures_freeze_equal(self):
        a = {"x": [1, 2, {3}], "y": (4, 5)}
        b = {"y": (4, 5), "x": [1, 2, {3}]}
        assert freeze(a) == freeze(b)
        assert hash(freeze(a)) == hash(freeze(b))

    def test_different_structures_freeze_different(self):
        assert freeze({"x": 1}) != freeze({"x": 2})
        assert freeze([1, 2]) != freeze([2, 1])
        assert freeze({1, 2}) == freeze({2, 1})  # sets are unordered

    def test_nested_dicts(self):
        assert freeze({"a": {"b": [1]}}) == freeze({"a": {"b": [1]}})

    def test_list_vs_tuple_equivalent(self):
        # Both are sequences; the simulator uses them interchangeably.
        assert freeze([1, 2]) == freeze((1, 2))

    def test_subclasses_freeze_like_their_base(self):
        from collections import OrderedDict, namedtuple

        Pair = namedtuple("Pair", "a b")
        assert freeze(Pair(1, [2])) == freeze((1, [2]))
        assert freeze(OrderedDict([("b", 1), ("a", 2)])) == freeze({"a": 2, "b": 1})
        assert freeze(frozenset({1, 2})) == freeze({1, 2})
        assert freeze(True) is True and freeze(None) is None

    def test_unhashable_leaf_raises(self):
        class Weird:
            __hash__ = None

        with pytest.raises(TypeError):
            freeze(Weird())


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_fork_streams_are_independent(self):
        base = DeterministicRng(1)
        fork_a = base.fork("a")
        fork_b = base.fork("b")
        assert [fork_a.randint(0, 9) for _ in range(5)] != [
            fork_b.randint(0, 9) for _ in range(5)
        ] or True  # streams may coincide by chance; determinism is the law:
        assert [base.fork("a").randint(0, 9) for _ in range(5)] == [
            DeterministicRng(1).fork("a").randint(0, 9) for _ in range(5)
        ]

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice([])

    def test_maybe_bounds(self):
        rng = DeterministicRng(0)
        assert not rng.maybe(0.0)
        assert rng.maybe(1.0)
        with pytest.raises(ValueError):
            rng.maybe(1.5)

    def test_shuffle_and_sample(self):
        rng = DeterministicRng(3)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        sampled = rng.sample(range(10), 3)
        assert len(set(sampled)) == 3

    def test_inlined_choice_draws_the_same_stream(self):
        # The fuzzer's walk loops inline choice() and its corpus picks
        # inline randint(0, n - 1) through getrandbits; their schedules
        # stay those of the library calls only while this holds (n = 1
        # included: randint draws there too).
        reference = DeterministicRng("inline")
        inlined = DeterministicRng("inline")
        getrandbits = inlined.getrandbits

        def below(count):
            bits = count.bit_length()
            index = getrandbits(bits)
            while index >= count:
                index = getrandbits(bits)
            return index

        for step in range(2_000):
            items = list(range(1 + step % 9))
            assert items[below(len(items))] == reference.choice(items)
            count = 1 + step % 130
            assert below(count) == reference.randint(0, count - 1)
        assert inlined.random() == reference.random()

    def test_stable_choice_is_pure(self):
        assert stable_choice([10, 20, 30], 4) == stable_choice([10, 20, 30], 4)
        assert stable_choice([10, 20, 30], 4) == 20
        assert stable_choice([], 4) is None


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        from repro.util.errors import (
            AdversaryError,
            IllFormedHistoryError,
            ModelError,
            SpecificationError,
        )

        for error_type in (
            AdversaryError,
            IllFormedHistoryError,
            ModelError,
            SimulationError,
            SpecificationError,
        ):
            assert issubclass(error_type, ReproError)


class TestParams:
    """The shared key=value grammar (repro.util.params)."""

    def test_coercion_grammar(self):
        from repro.util.params import coerce_scalar

        assert coerce_scalar("4") == 4
        assert coerce_scalar("0.25") == 0.25
        assert coerce_scalar("true") is True
        assert coerce_scalar("[0, 1]") == [0, 1]
        assert coerce_scalar("p0@40") == "p0@40"

    def test_parse_params_rejects_duplicates_and_empty_keys(self):
        from repro.util.errors import UsageError
        from repro.util.params import parse_params

        assert parse_params(["n=2", "seed=7"]) == {"n": 2, "seed": 7}
        with pytest.raises(UsageError, match="twice"):
            parse_params(["n=2", "n=3"])
        with pytest.raises(UsageError, match="empty key"):
            parse_params(["=3"])
        with pytest.raises(UsageError, match="--set"):
            parse_params(["oops"], option="--set")

    def test_campaign_spec_reexports_the_shared_coercion(self):
        # One grammar for campaign axes and CLI overrides (no drift).
        from repro.campaign.spec import coerce_scalar as campaign_coerce
        from repro.util.params import coerce_scalar

        assert campaign_coerce is coerce_scalar


class TestUnknownChoice:
    def test_suggests_close_matches(self):
        from repro.util.errors import UsageError, unknown_choice

        error = unknown_choice("scenario", "cas-consensu", ["cas-consensus", "i12-opacity"])
        assert isinstance(error, UsageError)
        assert "did you mean 'cas-consensus'" in str(error)

    def test_lists_known_without_matches(self):
        from repro.util.errors import unknown_choice

        message = str(unknown_choice("backend", "qqq", ["exhaustive", "fuzz"]))
        assert "did you mean" not in message
        assert "exhaustive" in message and "fuzz" in message

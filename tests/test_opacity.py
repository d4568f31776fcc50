"""Unit tests for the opacity and strict-serializability checkers."""

import pytest

from repro.core.history import History
from repro.objects.opacity import OpacityChecker, StrictSerializability
from repro.objects.tm import ABORTED, COMMITTED, OK

from conftest import inv, res, tm_history
from test_differential_properties import _observed, reference_opacity


def opaque(history, **kwargs):
    return OpacityChecker(**kwargs).check_history(history).holds


class TestOpacityPositive:
    def test_empty_history(self):
        assert opaque(History([]))

    def test_sequential_committed_transactions(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "commit"),
            (1, "start"), (1, "read", 0, 5), (1, "commit"),
        )
        assert opaque(history)

    def test_concurrent_serializable_transactions(self):
        history = History(
            [
                inv(0, "start"), res(0, "start", OK),
                inv(1, "start"), res(1, "start", OK),
                inv(0, "read", 0), res(0, "read", 0),
                inv(1, "write", 0, 3), res(1, "write", OK),
                inv(0, "tryC"), res(0, "tryC", COMMITTED),
                inv(1, "tryC"), res(1, "tryC", COMMITTED),
            ]
        )
        # Serialize T0 (reads initial 0) before T1 (writes 3).
        assert opaque(history)

    def test_aborted_transaction_reading_consistent_state(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "commit"),
            (1, "start"), (1, "read", 0, 5), (1, "abort"),
        )
        assert opaque(history)

    def test_aborted_transactions_are_invisible(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 9), (0, "abort"),
            (1, "start"), (1, "read", 0, 0), (1, "commit"),
        )
        # T1 must NOT see the aborted write: reading the initial 0 is
        # the only opaque outcome.
        assert opaque(history)

    def test_initial_values_parameter(self):
        history = tm_history((0, "start"), (0, "read", 0, 42), (0, "commit"))
        assert opaque(history, initial_values={0: 42})
        assert not opaque(history)


class TestOpacityNegative:
    def test_read_of_never_written_value(self):
        history = tm_history((0, "start"), (0, "read", 0, 99), (0, "commit"))
        assert not opaque(history)

    def test_aborted_write_observed(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 9), (0, "abort"),
            (1, "start"), (1, "read", 0, 9), (1, "commit"),
        )
        assert not opaque(history)

    def test_real_time_order_violation(self):
        # T0 commits 5 strictly before T1 starts; T1 must not read 0.
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "commit"),
            (1, "start"), (1, "read", 0, 0), (1, "commit"),
        )
        assert not opaque(history)

    def test_own_write_violation(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "read", 0, 0), (0, "commit")
        )
        assert not opaque(history)

    def test_inconsistent_snapshot_in_one_transaction(self):
        # T1 reads x=0 (before T0's commit) and y=1 (after): no single
        # serialization point justifies both.
        history = History(
            [
                inv(1, "start"), res(1, "start", OK),
                inv(1, "read", 0), res(1, "read", 0),
                inv(0, "start"), res(0, "start", OK),
                inv(0, "write", 0, 1), res(0, "write", OK),
                inv(0, "write", 1, 1), res(0, "write", OK),
                inv(0, "tryC"), res(0, "tryC", COMMITTED),
                inv(1, "read", 1), res(1, "read", 1),
                inv(1, "tryC"), res(1, "tryC", COMMITTED),
            ]
        )
        assert not opaque(history)

    def test_aborted_transaction_with_inconsistent_view(self):
        """Opacity constrains aborted transactions too — the defining
        difference from strict serializability."""
        history = History(
            [
                inv(1, "start"), res(1, "start", OK),
                inv(1, "read", 0), res(1, "read", 0),
                inv(0, "start"), res(0, "start", OK),
                inv(0, "write", 0, 1), res(0, "write", OK),
                inv(0, "write", 1, 1), res(0, "write", OK),
                inv(0, "tryC"), res(0, "tryC", COMMITTED),
                inv(1, "read", 1), res(1, "read", 1),
                inv(1, "tryC"), res(1, "tryC", ABORTED),
            ]
        )
        assert not opaque(history)
        assert StrictSerializability().check_history(history).holds


class TestPrefixSemantics:
    def test_deep_check_catches_prefix_violation(self):
        """A history can be final-state consistent while a prefix is
        not: the future commit 'justifies' a read that was unjustified
        when it happened."""
        history = History(
            [
                inv(1, "start"), res(1, "start", OK),
                inv(1, "read", 0), res(1, "read", 1),  # reads 1 'early'
                inv(0, "start"), res(0, "start", OK),
                inv(0, "write", 0, 1), res(0, "write", OK),
                inv(0, "tryC"), res(0, "tryC", COMMITTED),
                inv(1, "tryC"), res(1, "tryC", COMMITTED),
            ]
        )
        assert not opaque(history, deep=True)
        # Final-state-only checking misses it — documented weakness of
        # deep=False.
        assert opaque(history, deep=False)

    def test_checker_is_prefix_closed(self):
        checker = OpacityChecker()
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "commit"),
            (1, "start"), (1, "read", 0, 0), (1, "commit"),  # violates
        )
        assert checker.check_prefix_closure(history).holds

    def test_commit_pending_may_resolve_either_way(self):
        history = History(
            [
                inv(0, "start"), res(0, "start", OK),
                inv(0, "write", 0, 5), res(0, "write", OK),
                inv(0, "tryC"),  # pending commit
            ]
        )
        assert opaque(history)


class TestNeutralEnds:
    """The deep check inherits the verdict at start and write responses
    and aborted reads; these histories flip at the ends it must check."""

    def _flips_at(self, history, length):
        checker = OpacityChecker()
        assert checker.check_history(history[: length - 1]).holds
        # The same checker again: its trie decides the passing prefix,
        # and that prefix's order must not carry the longer one.
        verdict = checker.check_history(history)
        assert not verdict.holds
        assert verdict.reason.startswith(f"prefix of length {length}:")
        assert _observed(verdict) == reference_opacity(history, checker)

    def test_tryc_abort_unjustifies_an_earlier_read(self):
        """T1 reads T0's write while T0's tryC is pending, which passes
        because T0 may have committed; T0's abort then leaves the read
        unjustified."""
        history = tm_history(
            (0, "start"), (0, "write", 0, 1), ("i", 0, "tryC"),
            (1, "start"), (1, "read", 0, 1), ("r", 0, "tryC", ABORTED),
        )
        assert len(history) == 10
        self._flips_at(history, 10)

    def test_read_value_contradicts_a_commit(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 1), (0, "commit"),
            (1, "start"), (1, "read", 0, 0),
        )
        self._flips_at(history, 10)


class TestStrictSerializability:
    def test_committed_only(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "commit"),
            (1, "start"), (1, "read", 0, 5), (1, "commit"),
        )
        assert StrictSerializability().check_history(history).holds

    def test_real_time_still_enforced(self):
        history = tm_history(
            (0, "start"), (0, "write", 0, 5), (0, "commit"),
            (1, "start"), (1, "read", 0, 0), (1, "commit"),
        )
        assert not StrictSerializability().check_history(history).holds

    def test_weaker_than_opacity(self):
        """Strict serializability admits every opaque history (on the
        suite's corpus)."""
        corpus = [
            tm_history((0, "start"), (0, "commit")),
            tm_history((0, "start"), (0, "write", 0, 5), (0, "commit")),
            tm_history((0, "start"), (0, "read", 0, 0), (0, "abort")),
        ]
        for history in corpus:
            if opaque(history):
                assert StrictSerializability().check_history(history).holds

"""Tests for the transaction workload's cursor logic."""

from repro.algorithms.tm import AgpTransactionalMemory, TrivialTransactionalMemory
from repro.objects.tm import COMMITTED, committed_transactions
from repro.sim import (
    ComposedDriver,
    RoundRobinScheduler,
    SoloScheduler,
    TransactionWorkload,
    play,
)


class TestTransactionWorkload:
    def test_each_process_commits_requested_transactions(self):
        workload = TransactionWorkload(2, 3, variables=(0, 1))
        result = play(
            AgpTransactionalMemory(2),
            ComposedDriver(RoundRobinScheduler(), workload),
            max_steps=10_000,
        )
        assert result.fairness_complete
        commits = [
            e for e in result.history.responses() if e.value is COMMITTED
        ]
        per_process = {0: 0, 1: 0}
        for event in commits:
            per_process[event.process] += 1
        assert per_process == {0: 3, 1: 3}
        assert workload.committed(0) == 3

    def test_aborted_transactions_are_retried(self):
        """Against the trivial TM every start aborts; the workload keeps
        retrying until the step budget runs out (retries unlimited)."""
        workload = TransactionWorkload(1, 1, variables=(0,))
        result = play(
            TrivialTransactionalMemory(1),
            ComposedDriver(SoloScheduler(0), workload),
            max_steps=300,
        )
        assert result.stats[0].invocations > 50
        assert result.stats[0].good_responses == 0

    def test_retry_budget_gives_up(self):
        workload = TransactionWorkload(
            1, 1, variables=(0,), retries_per_tx=3
        )
        result = play(
            TrivialTransactionalMemory(1),
            ComposedDriver(SoloScheduler(0), workload),
            max_steps=300,
        )
        # start aborted 4 times (initial try + 3 retries), then give up.
        assert result.stats[0].invocations == 4
        assert result.fairness_complete

    def test_transaction_script_shape(self):
        """Committed transactions follow start/read/write/tryC."""
        workload = TransactionWorkload(1, 2, variables=(0, 1))
        result = play(
            AgpTransactionalMemory(1),
            ComposedDriver(SoloScheduler(0), workload),
            max_steps=10_000,
        )
        transactions = committed_transactions(result.history)
        assert len(transactions) == 2
        for transaction in transactions:
            calls = [call.operation for call in transaction.calls]
            assert calls == ["start", "read", "write", "tryC"]

    def test_written_values_are_distinct(self):
        workload = TransactionWorkload(2, 2, variables=(0,))
        result = play(
            AgpTransactionalMemory(2, variables=(0,)),
            ComposedDriver(RoundRobinScheduler(), workload),
            max_steps=10_000,
        )
        writes = [
            e.args for e in result.history.invocations() if e.operation == "write"
        ]
        assert len(set(writes)) == len(writes)

    def test_seeded_variable_choice_is_deterministic(self):
        def history_with(seed):
            workload = TransactionWorkload(2, 2, variables=(0, 1), seed=seed)
            return play(
                AgpTransactionalMemory(2),
                ComposedDriver(RoundRobinScheduler(), workload),
                max_steps=10_000,
            ).history

        assert history_with(5) == history_with(5)

    def test_reset_restores_cursors(self):
        workload = TransactionWorkload(1, 1, variables=(0,))
        play(
            AgpTransactionalMemory(1),
            ComposedDriver(SoloScheduler(0), workload),
            max_steps=1_000,
        )
        assert workload.committed(0) == 1
        workload.reset()
        assert workload.committed(0) == 0

"""Opacity and strict serializability checkers (Section 4.1).

Opacity [Guerraoui & Kapalka]: a history ``h`` is opaque if **every
finite prefix** ``h'`` has a completion ``comp(h')`` equivalent to a
sequential history ``s`` that preserves the real-time order of
``comp(h')`` and respects the sequential TM specification — crucially,
*every* transaction in ``s``, aborted ones included, observes a
consistent state.

Strict serializability [Papadimitriou] is the same condition with
aborted transactions unconstrained (only committed transactions must
serialize).

Algorithm
---------
For one prefix the checker:

1. parses transactions and completes the prefix: live transactions
   abort (``tryC·A`` appended, per the paper's ``comp``), commit-pending
   transactions try *both* completions;
2. enumerates the total orders of the committed transactions that
   respect real time and replay correctly (backtracking over
   ``(placed set, memory state)``, with dead ends memoised; read-from
   values prune hard when workloads write distinct values);
3. for each such order until one fits, and for each aborted
   transaction, computes the set of serialization *gaps* (positions
   between committed transactions, consistent with its real-time
   constraints) at which its reads are consistent, then greedily
   assigns gaps in start order so that real-time order among aborted
   transactions is preserved.

Checking every response-ending prefix makes the verdict prefix-closed —
the defining closure property of a safety set (Definition 3.1).  The
full per-prefix sweep is quadratic in history length times the search
cost; ``deep=False`` checks only the final prefix (final-state opacity),
which is cheaper and useful as a first filter on long benchmark runs.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.events import is_response
from repro.core.history import History
from repro.core.properties import SafetyProperty, Verdict
from repro.objects.tm import (
    STATUS_COMMIT_PENDING,
    Transaction,
    parse_transactions,
)
from repro.util.errors import ReproError


class SearchBudgetExceeded(ReproError):
    """The serialization search exceeded its node budget."""


class OpacityChecker(SafetyProperty):
    """Checks opacity (or strict serializability) of TM histories.

    Parameters
    ----------
    initial_values:
        Initial value per variable (default: every variable starts 0).
    deep:
        Check every response-ending prefix (true opacity).  With
        ``False`` only the final state is checked.
    check_aborted:
        Require aborted transactions to observe consistent states.
        ``False`` yields strict serializability.
    max_nodes:
        Backtracking budget per prefix; exceeding raises
        :class:`SearchBudgetExceeded` (never a wrong verdict).
    """

    name = "opacity"

    def __init__(
        self,
        initial_values: Optional[Mapping[Any, Any]] = None,
        default_initial: Any = 0,
        deep: bool = True,
        check_aborted: bool = True,
        max_nodes: int = 200_000,
    ):
        self.initial_values = dict(initial_values or {})
        self.default_initial = default_initial
        self.deep = deep
        self.check_aborted = check_aborted
        self.max_nodes = max_nodes
        if not check_aborted:
            self.name = "strict-serializability"
        # Prefix verdicts by event tuple.  Deep mode re-checks every
        # response-ending prefix of every history it is handed, and the
        # histories of one exploration share most of their prefixes.
        # The memo lives as long as this checker, which the verify
        # facade builds afresh per request.
        self._prefix_failures: Dict[Tuple[Any, ...], Optional[str]] = {}

    # -- public API ------------------------------------------------------------

    def check_history(self, history: History) -> Verdict:
        events = history.events
        memo = self._prefix_failures
        for end in self._prefix_ends(history):
            prefix = events[:end]
            if prefix in memo:
                failure = memo[prefix]
            else:
                failure = self._check_prefix(History(prefix, validate=False))
                memo[prefix] = failure
            if failure is not None:
                return Verdict.failed(
                    f"prefix of length {end}: {failure}", witness=history[:end]
                )
        return Verdict.passed(f"{self.name} holds on all checked prefixes")

    def _prefix_ends(self, history: History) -> List[int]:
        if not self.deep:
            return [len(history)]
        ends = [
            index + 1
            for index, event in enumerate(history)
            if is_response(event)
        ]
        if not ends or ends[-1] != len(history):
            ends.append(len(history))
        return ends

    # -- single-prefix check -----------------------------------------------------

    def _check_prefix(self, history: History) -> Optional[str]:
        transactions = parse_transactions(history)
        for transaction in transactions:
            violation = transaction.own_write_violation()
            if violation is not None:
                variable, written, observed = violation
                return (
                    f"transaction p{transaction.process}#{transaction.number} "
                    f"wrote {written!r} to x{variable} but then read "
                    f"{observed!r}"
                )
        pending = [t for t in transactions if t.status == STATUS_COMMIT_PENDING]
        # Try each completion of the commit-pending transactions (commit
        # or abort); the paper's comp(h) allows any choice.
        for commit_mask in itertools.product((True, False), repeat=len(pending)):
            as_committed = {
                id(t) for t, commit in zip(pending, commit_mask) if commit
            }
            committed = [
                t
                for t in transactions
                if t.committed or id(t) in as_committed
            ]
            aborted = [
                t
                for t in transactions
                if not t.committed and id(t) not in as_committed
            ]
            if self._serializable(committed, aborted):
                return None
        return (
            f"no serialization of {len(transactions)} transactions "
            f"(committed={sum(t.committed for t in transactions)}) respects "
            "real time and the sequential specification"
        )

    # -- committed-order search ----------------------------------------------------

    def _initial_state(self) -> Tuple[Tuple[Any, Any], ...]:
        return tuple(sorted(self.initial_values.items()))

    def _read_value(self, state: Dict[Any, Any], variable: Any) -> Any:
        return state.get(variable, self.default_initial)

    def _serializable(
        self, committed: List[Transaction], aborted: List[Transaction]
    ) -> bool:
        # Aborted transactions fit some committed orders and not others,
        # so every legal order is a candidate until one admits them.
        for order in self._committed_orders(committed):
            if not self.check_aborted or self._place_aborted(order, aborted):
                return True
        return False

    def _committed_orders(
        self, committed: List[Transaction]
    ) -> Iterator[List[Transaction]]:
        """Backtracking enumeration of the legal total orders of the
        committed transactions (real time respected, every read sees the
        latest write).  All orders share one ``max_nodes`` budget."""
        n = len(committed)
        if n == 0:
            yield []
            return
        before: List[List[int]] = [[] for _ in range(n)]
        for i, earlier in enumerate(committed):
            for j, later in enumerate(committed):
                if i != j and earlier.precedes(later):
                    before[j].append(i)
        reads = [t.reads() for t in committed]
        writes = [t.write_set() for t in committed]

        # ``(placed, state)`` nodes whose subtree holds no legal order;
        # a subtree that did yield orders may yield them again from a
        # different prefix, whose states the aborted placement sees.
        dead: set = set()
        nodes = [0]
        order: List[int] = []

        def freeze_state(state: Dict[Any, Any]) -> Tuple:
            return tuple(sorted(state.items(), key=lambda kv: repr(kv[0])))

        def search(
            placed: FrozenSet[int], state: Dict[Any, Any]
        ) -> Iterator[List[Transaction]]:
            nodes[0] += 1
            if nodes[0] > self.max_nodes:
                raise SearchBudgetExceeded(
                    f"{self.name} search exceeded {self.max_nodes} nodes"
                )
            if len(placed) == n:
                yield [committed[i] for i in order]
                return
            key = (placed, freeze_state(state))
            if key in dead:
                return
            found = False
            for candidate in range(n):
                if candidate in placed:
                    continue
                if any(pred not in placed for pred in before[candidate]):
                    continue
                if any(
                    self._read_value(state, variable) != value
                    for variable, value in reads[candidate]
                ):
                    continue
                new_state = dict(state)
                new_state.update(writes[candidate])
                order.append(candidate)
                for complete in search(placed | {candidate}, new_state):
                    found = True
                    yield complete
                order.pop()
            if not found:
                dead.add(key)

        yield from search(frozenset(), dict(self.initial_values))

    # -- aborted placement -----------------------------------------------------------

    def _place_aborted(
        self, order: List[Transaction], aborted: List[Transaction]
    ) -> bool:
        """Greedy gap assignment preserving real-time order among the
        aborted transactions (see module docstring)."""
        states: List[Dict[Any, Any]] = [dict(self.initial_values)]
        for transaction in order:
            state = dict(states[-1])
            state.update(transaction.write_set())
            states.append(state)
        position = {id(t): i for i, t in enumerate(order)}

        def valid_gaps(transaction: Transaction) -> List[int]:
            low = 0
            high = len(order)
            for committed in order:
                if committed.precedes(transaction):
                    low = max(low, position[id(committed)] + 1)
                if transaction.precedes(committed):
                    high = min(high, position[id(committed)])
            gaps = []
            for gap in range(low, high + 1):
                state = states[gap]
                if all(
                    self._read_value(state, variable) == value
                    for variable, value in transaction.reads()
                ):
                    gaps.append(gap)
            return gaps

        assigned: Dict[int, int] = {}
        for transaction in sorted(aborted, key=lambda t: t.start_index):
            floor = 0
            for other in aborted:
                if id(other) in assigned and other.precedes(transaction):
                    floor = max(floor, assigned[id(other)])
            gaps = [g for g in valid_gaps(transaction) if g >= floor]
            if not gaps:
                return False
            assigned[id(transaction)] = gaps[0]
        return True


class StrictSerializability(OpacityChecker):
    """Strict serializability: committed transactions serialize in real
    time; aborted transactions are unconstrained."""

    def __init__(self, **kwargs):
        kwargs.setdefault("check_aborted", False)
        super().__init__(**kwargs)

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

1. takes the prefix's transactions and completes the prefix: live
   transactions abort (``tryC·A`` appended, per the paper's ``comp``),
   commit-pending transactions try *both* completions;
2. enumerates the total orders of the committed transactions that
   respect real time and replay correctly (backtracking over
   ``(placed set, memory state)``, with dead ends memoised; read-from
   values prune hard when workloads write distinct values);
3. for each such order until one fits, and for each aborted
   transaction, computes the set of serialization *gaps* (positions
   between committed transactions, consistent with its real-time
   constraints) at which its reads are consistent, then greedily
   assigns gaps in start order so that real-time order among aborted
   transactions is preserved.  Each transaction's reads and writes are
   computed once per prefix, not once per order or gap.

Checking every response-ending prefix makes the verdict prefix-closed —
the defining closure property of a safety set (Definition 3.1);
``deep=False`` checks only the final prefix (final-state opacity), which
is cheaper and useful as a first filter on long benchmark runs.  Three
things keep that sweep to one pass over each history plus a search at
the prefixes nothing earlier decided:

* **Prefix trie** (scope: the checker instance, which the verify facade
  builds afresh per request).  Every history handed in is walked
  through a trie with one node per distinct prefix, keyed event by
  event, holding that prefix's verdict once checked.  Histories of one
  exploration share most of their prefixes, so most prefix ends are
  answered by the node the walk already stands on.  A search that
  exceeds its budget stores nothing, so asking again raises again.
* **Carried parse** (scope: one ``check_history`` call).  At the first
  prefix end the trie does not decide, a
  :class:`~repro.objects.tm.TransactionParser` starts at the history's
  first event; later undecided ends feed it only the events in between.
  Commit-pending transactions are computed from its open transactions
  at each check, and a completed transaction's reads and writes, which
  no later event changes, are computed once per walk.
* **Witness first** (scope: one ``check_history`` call).  The committed
  order that serialized the last checked prefix of the walk is tried on
  the next one before any search: it must hold every committed
  transaction and only committed or commit-pending ones (those it holds
  complete as committed), respect real time, replay its reads, and
  admit the aborted transactions.  Only if it fails does the full
  search run.  Opacity asks whether *some* serialization exists, so
  verdicts and failure reasons do not change.  One consequence: a
  prefix whose full search would exceed ``max_nodes`` can pass on a
  witness that is itself a valid serialization; a witness never turns
  a pass into a failure or the reverse.
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
    Sequence,
    Tuple,
)

from repro.core.events import Response
from repro.core.history import History
from repro.core.properties import SafetyProperty, Verdict
from repro.objects.tm import (
    Transaction,
    TransactionParser,
    # Not called here: kept importable under this module's name because
    # the performance ledger's tracer counts calls through it.
    parse_transactions,  # noqa: F401
)
from repro.util.errors import ReproError


class SearchBudgetExceeded(ReproError):
    """The serialization search exceeded its node budget."""


#: Trie verdict of a prefix no check has decided yet.
_UNCHECKED = object()


def _freeze_state(state: Dict[Any, Any]) -> Tuple:
    """A hashable form of a memory state, for the search's dead memo."""
    return tuple(sorted(state.items(), key=lambda kv: repr(kv[0])))


class _PrefixNode:
    """One prefix in the checker's trie, reached from its parent by the
    prefix's last event.  ``failure`` is ``None`` (opaque), the failure
    reason, or ``_UNCHECKED``; ``children`` is allocated on first use,
    so the leaves of a walk stay small."""

    __slots__ = ("failure", "children")

    def __init__(self) -> None:
        self.failure: Any = _UNCHECKED
        self.children: Optional[Dict[Any, "_PrefixNode"]] = None


#: A transaction's reads (``Transaction.reads``) and final writes
#: (``Transaction.write_set``).
_Facts = Tuple[List[Tuple[Any, Any]], Dict[Any, Any]]


class _Walk:
    """What one :meth:`OpacityChecker.check_history` call carries from
    one checked prefix to the next: the transactions parsed so far, the
    facts of the completed ones (which no later event changes), and the
    committed order that serialized the last checked prefix."""

    __slots__ = ("parser", "settled", "witness")

    def __init__(self) -> None:
        self.parser = TransactionParser()
        self.settled: Dict[int, _Facts] = {}
        self.witness: Optional[List[Transaction]] = None


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
        # Prefix verdicts, one trie node per distinct prefix of every
        # history handed in (see the module docstring).  The trie lives
        # as long as this checker, which the verify facade builds afresh
        # per request.
        self._trie = _PrefixNode()

    # -- public API ------------------------------------------------------------

    def check_history(self, history: History) -> Verdict:
        events = history.events
        last = len(events) - 1
        deep = self.deep
        node = self._trie
        walk: Optional[_Walk] = None
        for index, event in enumerate(events):
            children = node.children
            if children is None:
                children = node.children = {}
            child = children.get(event)
            if child is None:
                child = children[event] = _PrefixNode()
            node = child
            if index != last and not (deep and isinstance(event, Response)):
                continue
            failure = node.failure
            if failure is _UNCHECKED:
                if walk is None:
                    walk = _Walk()
                parser = walk.parser
                while parser.length <= index:
                    parser.feed(events[parser.length])
                failure = node.failure = self._failure(walk)
            if failure is not None:
                return Verdict.failed(
                    f"prefix of length {index + 1}: {failure}",
                    witness=history[: index + 1],
                )
        return Verdict.passed(f"{self.name} holds on all checked prefixes")

    # -- single-prefix check -----------------------------------------------------

    def _failure(self, walk: _Walk) -> Optional[str]:
        """Check the prefix the walk's parser has been fed up to: the
        failure reason, or ``None`` when the prefix is opaque."""
        transactions = walk.parser.transactions
        settled = walk.settled
        facts = settled.copy()
        for transaction in transactions:
            if id(transaction) in facts:
                continue  # completed, and free of violations when it settled
            violation = transaction.own_write_violation()
            if violation is not None:
                variable, written, observed = violation
                return (
                    f"transaction p{transaction.process}#{transaction.number} "
                    f"wrote {written!r} to x{variable} but then read "
                    f"{observed!r}"
                )
            known = facts[id(transaction)] = (
                transaction.reads(),
                transaction.write_set(),
            )
            if transaction.completed:
                settled[id(transaction)] = known
        pending = walk.parser.commit_pending()
        if walk.witness is not None and self._witness_holds(
            walk.witness, transactions, pending, facts
        ):
            return None
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
            order = self._serialization(committed, aborted, facts)
            if order is not None:
                walk.witness = order
                return None
        return (
            f"no serialization of {len(transactions)} transactions "
            f"(committed={sum(t.committed for t in transactions)}) respects "
            "real time and the sequential specification"
        )

    def _witness_holds(
        self,
        witness: List[Transaction],
        transactions: List[Transaction],
        pending: List[Transaction],
        facts: Dict[int, _Facts],
    ) -> bool:
        """Does the previous prefix's committed order still serialize
        this prefix, completing exactly its commit-pending members as
        committed?

        Within one walk it is the membership test and the aborted
        placement that fail: the members' events were complete when the
        order was found, so real time and their reads still hold.  They
        are checked anyway, so that a passing witness is a validated
        serialization rather than an argument about where it came from."""
        ordered = {id(t) for t in witness}
        if any(t.committed and id(t) not in ordered for t in transactions):
            return False
        may_commit = {id(t) for t in pending}
        default = self.default_initial
        latest_start = -1
        states = [dict(self.initial_values)]
        for transaction in witness:
            if not transaction.committed and id(transaction) not in may_commit:
                return False
            end = transaction.end_index
            if end is not None and end < latest_start:
                return False  # it precedes a transaction ordered before it
            latest_start = max(latest_start, transaction.start_index)
            reads, writes = facts[id(transaction)]
            state = states[-1]
            if any(state.get(variable, default) != value for variable, value in reads):
                return False
            state = dict(state)
            state.update(writes)
            states.append(state)
        if not self.check_aborted:
            return True
        aborted = [t for t in transactions if id(t) not in ordered]
        return self._place_aborted(witness, states, aborted, facts)

    # -- committed-order search ----------------------------------------------------

    def _serialization(
        self,
        committed: List[Transaction],
        aborted: List[Transaction],
        facts: Dict[int, _Facts],
    ) -> Optional[List[Transaction]]:
        """A legal committed order that admits the aborted transactions,
        or ``None``."""
        # Aborted transactions fit some committed orders and not others,
        # so every legal order is a candidate until one admits them.
        for order, states in self._committed_orders(committed, facts):
            if not self.check_aborted or self._place_aborted(
                order, states, aborted, facts
            ):
                return order
        return None

    def _committed_orders(
        self, committed: List[Transaction], facts: Dict[int, _Facts]
    ) -> Iterator[Tuple[List[Transaction], List[Dict[Any, Any]]]]:
        """Backtracking enumeration of the legal total orders of the
        committed transactions (real time respected, every read sees the
        latest write), each with the memory state after every prefix of
        the order.  All orders share one ``max_nodes`` budget.

        Depth-first over an explicit stack rather than a recursive
        nested generator: a closure that calls itself is a reference
        cycle, and one per search would keep this checker and its trie
        alive until the cyclic collector reached them (see "Memory and
        the cyclic collector" in docs/architecture.md)."""
        n = len(committed)
        if n == 0:
            yield [], [dict(self.initial_values)]
            return
        before: List[List[int]] = [[] for _ in range(n)]
        for i, earlier in enumerate(committed):
            for j, later in enumerate(committed):
                if i != j and earlier.precedes(later):
                    before[j].append(i)
        reads = [facts[id(t)][0] for t in committed]
        writes = [facts[id(t)][1] for t in committed]
        default = self.default_initial
        max_nodes = self.max_nodes

        # ``(placed, state)`` nodes whose subtree holds no legal order;
        # a subtree that did yield orders may yield them again from a
        # different prefix, whose states the aborted placement sees.
        dead: set = set()
        nodes = 0
        order: List[int] = []
        states: List[Dict[Any, Any]] = [dict(self.initial_values)]
        # The open nodes of the depth-first path, one per placed prefix:
        # [placed, dead key, next candidate to try, subtree found an order].
        path: List[List[Any]] = []
        # The placed set of the node to enter next; ``None`` resumes the
        # deepest open node.
        entering: Optional[FrozenSet[int]] = frozenset()
        while True:
            if entering is not None:
                placed, entering = entering, None
                nodes += 1
                if nodes > max_nodes:
                    raise SearchBudgetExceeded(
                        f"{self.name} search exceeded {max_nodes} nodes"
                    )
                if len(placed) == n:
                    yield [committed[i] for i in order], list(states)
                    path[-1][3] = True
                    states.pop()
                    order.pop()
                    continue
                key = (placed, _freeze_state(states[-1]))
                if key in dead:  # never the root: ``dead`` starts empty
                    states.pop()
                    order.pop()
                    continue
                path.append([placed, key, 0, False])
            node = path[-1]
            placed = node[0]
            state = states[-1]
            for candidate in range(node[2], n):
                if candidate in placed:
                    continue
                if any(pred not in placed for pred in before[candidate]):
                    continue
                if any(
                    state.get(variable, default) != value
                    for variable, value in reads[candidate]
                ):
                    continue
                node[2] = candidate + 1
                new_state = dict(state)
                new_state.update(writes[candidate])
                order.append(candidate)
                states.append(new_state)
                entering = placed | {candidate}
                break
            else:
                path.pop()
                if not node[3]:
                    dead.add(node[1])
                if not path:
                    return
                if node[3]:
                    path[-1][3] = True
                states.pop()
                order.pop()

    # -- aborted placement -----------------------------------------------------------

    def _place_aborted(
        self,
        order: Sequence[Transaction],
        states: List[Dict[Any, Any]],
        aborted: List[Transaction],
        facts: Dict[int, _Facts],
    ) -> bool:
        """Greedy gap assignment preserving real-time order among the
        aborted transactions (see module docstring).  ``states[k]`` is
        the memory after the first ``k`` transactions of ``order``;
        ``aborted`` is in start order."""
        if not aborted:
            return True
        bounds = [(t.start_index, t.end_index) for t in order]
        default = self.default_initial
        placed: List[Tuple[Optional[int], int]] = []  # (end index, gap)
        for transaction in aborted:
            start, end = transaction.start_index, transaction.end_index
            reads = facts[id(transaction)][0]
            # The gaps that respect real time: after every committed
            # transaction that precedes it, before every one it
            # precedes, and not before an aborted one that precedes it.
            low = max(
                (gap for other_end, gap in placed
                 if other_end is not None and other_end < start),
                default=0,
            )
            high = len(order)
            for position, (other_start, other_end) in enumerate(bounds):
                if other_end is not None and other_end < start:
                    low = max(low, position + 1)
                if end is not None and end < other_start:
                    high = min(high, position)
            for gap in range(low, high + 1):
                state = states[gap]
                if all(state.get(variable, default) == value for variable, value in reads):
                    placed.append((end, gap))
                    break
            else:
                return False
        return True


class StrictSerializability(OpacityChecker):
    """Strict serializability: committed transactions serialize in real
    time; aborted transactions are unconstrained."""

    def __init__(self, **kwargs):
        kwargs.setdefault("check_aborted", False)
        super().__init__(**kwargs)

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
2. tries a known committed order (the witness, below) and, only if it
   fails, enumerates the total orders of the committed transactions
   that respect real time and replay correctly (backtracking over
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
is cheaper and useful as a first filter on long benchmark runs.

Neutral ends
------------
In deep mode a walk stops at its first failing prefix, so it reaches a
response end only when the previous response end passed.  Between the
two lie only invocations and crashes: they add no read value, no
acknowledged write and no commit, and at most make a live transaction
commit-pending, whose abort completion is the previous prefix's.  A
response that constrains no serialization therefore keeps the verdict:

* a ``start`` or ``write`` response belongs to a live transaction,
  which the completion aborts, so no serialization sees its writes, and
  no read of its follows them yet;
* an ``ABORTED`` response (to ``start``, ``write`` or ``read``) aborts
  a live transaction, as the completion did, at an end index no
  transaction of the prefix starts after; an aborted read observes
  nothing.

Every committed order and aborted placement that served the previous
prefix serves such an end, so it inherits that verdict without a check.
The parser is still fed up to it, so ill-formed histories raise exactly
as before.  ``tryC`` responses (a commit-pending transaction loses a
completion) and read values (a new constraint) are always checked.

Scopes
------
Three things keep the sweep to one pass over each history plus a search
at the prefixes nothing earlier decided:

* **Prefix trie** (scope: the checker instance, which the verify facade
  builds afresh per request).  Every history handed in is walked
  through a trie with one node per distinct prefix, keyed event by
  event.  A checked node holds its prefix's failure reason or, when it
  passed, a serializing committed order as ``(process, number)`` keys,
  which name the same transactions in every walk through the node.
  Histories of one exploration share most of their prefixes, so most
  prefix ends are answered by the node the walk already stands on.  A
  search that exceeds its budget stores nothing, so asking again raises
  again.
* **Carried parse** (scope: one ``check_history`` call).  At the first
  prefix end the trie does not decide, a
  :class:`~repro.objects.tm.TransactionParser` starts at the history's
  first event; later undecided ends feed it only the events in between.
  Commit-pending transactions are computed from its open transactions
  at each check, and a completed transaction's reads and writes, which
  no later event changes, are computed once per walk.
* **Witness** (scope: one ``check_history`` call).  The walk carries
  the committed order that serialized its last checked prefix, as its
  own transactions, with the memory state after each of the order's
  prefixes.  The walk's first check resolves the keys of its deepest
  decided end (the empty order at the root) into transactions, and
  committed transactions an order misses are appended in commit order.
  A resolved order is validated in full: membership, every member
  committed or commit-pending (those complete as committed), real
  time, its reads, and the aborted placement.  A validated order keeps
  its states, and later checks re-run only membership, the
  commit-pending test and the aborted placement on it: its members are
  committed or commit-pending, so their reads and writes are final.
  When it is extended, only the appended transactions are replayed,
  from its last state: each commits after the previous checked end,
  which every old member started before, so none precedes an old
  member in real time.  Only when the witness fails does the full
  search run.  Opacity asks
  whether *some* serialization exists, so verdicts and failure reasons
  do not change.  A witness's replay walks one path of the search's
  tree and is held to the same ``max_nodes``; within that, a prefix
  whose full search would exceed ``max_nodes`` can pass on a witness
  that is itself a valid serialization.  A witness never turns a pass
  into a failure or the reverse.

While a recorder is installed, each ``check_history`` call counts
``safety/searches`` (checked prefixes the witness did not serialize),
``safety/witness_reuses`` (prefixes it did) and
``safety/inherited_ends`` (neutral ends).
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
    Set,
    Tuple,
)

from repro.core.events import Response
from repro.core.history import History
from repro.core.properties import SafetyProperty, Verdict
from repro.obs.recorder import active as _obs_active
from repro.objects.tm import (
    ABORTED,
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

#: A committed order as ``(process, number)`` transaction keys.
_Keys = Tuple[Tuple[int, int], ...]

#: Memory after each prefix of a committed order (``states[k]`` after
#: its first ``k`` transactions).
_States = List[Dict[Any, Any]]


def _freeze_state(state: Dict[Any, Any]) -> Tuple:
    """A hashable form of a memory state, for the search's dead memo."""
    return tuple(sorted(state.items(), key=lambda kv: repr(kv[0])))


def _neutral(event: Response) -> bool:
    """Does this response leave the previous prefix's verdict standing?
    (See "Neutral ends" in the module docstring.)"""
    operation = event.operation
    return operation == "start" or operation == "write" or (
        operation == "read" and event.value is ABORTED
    )


class _PrefixNode:
    """One prefix in the checker's trie, reached from its parent by the
    prefix's last event.  ``verdict`` is ``_UNCHECKED``, the failure
    reason (a ``str``), or for an opaque prefix its serializing
    committed order (a ``tuple`` of keys), so a node costs no more than
    a bare verdict; ``children`` is allocated on first use, so the
    leaves of a walk stay small."""

    __slots__ = ("verdict", "children")

    def __init__(self) -> None:
        self.verdict: Any = _UNCHECKED
        self.children: Optional[Dict[Any, "_PrefixNode"]] = None


#: A transaction's reads (``Transaction.reads``) and final writes
#: (``Transaction.write_set``).
_Facts = Tuple[List[Tuple[Any, Any]], Dict[Any, Any]]


class _Walk:
    """What one :meth:`OpacityChecker.check_history` call carries from
    one checked prefix to the next: the transactions parsed so far, the
    facts per transaction (a completed one's never change again), the
    witness order with its memory states, member ids and keys, and the
    walk's work counts."""

    __slots__ = (
        "parser",
        "facts",
        "unsettled",
        "seen",
        "witness",
        "states",
        "ordered",
        "keys",
        "searches",
        "reuses",
    )

    def __init__(self) -> None:
        self.parser = TransactionParser()
        self.facts: Dict[int, _Facts] = {}
        #: The transactions uncompleted at the last check, in start
        #: order, and how many of the parser's transactions it had seen.
        self.unsettled: List[Transaction] = []
        self.seen = 0
        self.witness: Optional[List[Transaction]] = None
        self.states: Optional[_States] = None
        self.ordered: Set[int] = set()
        self.keys: _Keys = ()
        self.searches = 0
        self.reuses = 0

    def adopt(self, witness: List[Transaction], states: _States) -> None:
        """Make ``witness`` (validated, with its states) the walk's
        order."""
        if witness is not self.witness:
            self.witness = witness
            self.ordered = {id(t) for t in witness}
            self.keys = tuple((t.process, t.number) for t in witness)
        self.states = states

    def resolve(self, keys: _Keys) -> List[Transaction]:
        """The walk's transactions that ``keys`` name (keys of a prefix
        of the walk's history, so every one is there)."""
        by_key = {(t.process, t.number): t for t in self.parser.transactions}
        return [by_key[key] for key in keys]


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
        Backtracking budget per prefix: the nodes of the committed-order
        tree that the search, or the replay of a witness (one path of
        it), may visit.  Exceeding raises :class:`SearchBudgetExceeded`
        (never a wrong verdict).
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
        rec = _obs_active()
        events = history.events
        last = len(events) - 1
        deep = self.deep
        node = self._trie
        walk: Optional[_Walk] = None
        keys: _Keys = ()  # the order of the last decided end
        inherited = 0
        result: Optional[Verdict] = None
        for index, event in enumerate(events):
            children = node.children
            if children is None:
                children = node.children = {}
            child = children.get(event)
            if child is None:
                child = children[event] = _PrefixNode()
            node = child
            response = deep and isinstance(event, Response)
            if index != last and not response:
                continue
            verdict = node.verdict
            if verdict is _UNCHECKED:
                if walk is None:
                    walk = _Walk()
                parser = walk.parser
                while parser.length <= index:
                    parser.feed(events[parser.length])
                if response and _neutral(event):
                    node.verdict = keys
                    inherited += 1
                    continue
                # The failure reason, or the order that serialized it.
                verdict = node.verdict = self._failure(walk, keys) or walk.keys
            if type(verdict) is tuple:
                keys = verdict
                continue
            result = Verdict.failed(
                f"prefix of length {index + 1}: {verdict}",
                witness=history[: index + 1],
            )
            break
        if rec is not None:
            rec.count("safety/inherited_ends", inherited)
            if walk is not None:
                rec.count("safety/searches", walk.searches)
                rec.count("safety/witness_reuses", walk.reuses)
        if result is None:
            result = Verdict.passed(f"{self.name} holds on all checked prefixes")
        return result

    # -- single-prefix check -----------------------------------------------------

    def _failure(self, walk: _Walk, keys: _Keys) -> Optional[str]:
        """Check the prefix the walk's parser has been fed up to: the
        failure reason, or ``None`` when the prefix is opaque.  ``keys``
        is the order of the walk's last decided end, tried first when
        the walk has no witness yet."""
        transactions = walk.parser.transactions
        facts = walk.facts
        # Only the transactions uncompleted at the last check, and those
        # started since, can have changed; the others completed free of
        # violations.  Both lists are in start order.
        candidates = walk.unsettled + transactions[walk.seen:]
        walk.seen = len(transactions)
        unsettled = walk.unsettled = []
        for transaction in candidates:
            violation = transaction.own_write_violation()
            if violation is not None:
                variable, written, observed = violation
                return (
                    f"transaction p{transaction.process}#{transaction.number} "
                    f"wrote {written!r} to x{variable} but then read "
                    f"{observed!r}"
                )
            facts[id(transaction)] = (
                transaction.reads(),
                transaction.write_set(),
            )
            if not transaction.completed:
                unsettled.append(transaction)
        pending = walk.parser.commit_pending()
        if self._witness_holds(walk, keys, transactions, pending, facts):
            walk.reuses += 1
            return None
        walk.searches += 1
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
            found = self._serialization(committed, aborted, facts)
            if found is not None:
                walk.adopt(*found)
                return None
        return (
            f"no serialization of {len(transactions)} transactions "
            f"(committed={sum(t.committed for t in transactions)}) respects "
            "real time and the sequential specification"
        )

    def _witness_holds(
        self,
        walk: _Walk,
        keys: _Keys,
        transactions: List[Transaction],
        pending: List[Transaction],
        facts: Dict[int, _Facts],
    ) -> bool:
        """Does the walk's witness, or else the order ``keys`` names,
        serialize this prefix once the committed transactions it misses
        are appended in commit order, completing exactly its
        commit-pending members as committed?  On success the walk adopts
        the order.

        A resolved order has no states yet, so it is replayed in full
        (:meth:`_replay`: members committed or commit-pending, real
        time, reads).  An order the walk validated before keeps its
        memory states: its members are committed or commit-pending, so
        their reads and writes are final, and only the commit-pending
        test is re-run on them.  When it is extended, only the appended
        members are replayed, from its last state, with the real-time
        bound seeded from the old members' starts.  That suffices: an
        appended member was not committed at the walk's previous checked
        end (the kept order held every transaction committed there), so
        its commit response comes after that end, and every old member
        started before it; no appended member precedes an old one.  The
        aborted placement then runs on the whole order, so a passing
        witness is always a checked serialization rather than an
        argument about where it came from."""
        witness, states, ordered = walk.witness, walk.states, walk.ordered
        may_commit = {id(t) for t in pending}
        if witness is None:
            witness = walk.resolve(keys)
            ordered = {id(t) for t in witness}
            states = None
        elif any(
            not t.committed and id(t) not in may_commit for t in witness
        ):
            return False
        missing = [t for t in transactions if t.committed and id(t) not in ordered]
        if missing:
            missing.sort(key=lambda t: t.end_index)  # commit order
            if states is not None:
                latest_start = max((t.start_index for t in witness), default=-1)
                states = self._replay(
                    missing, may_commit, facts, states, latest_start
                )
                if states is None:
                    return False
            witness = witness + missing
            ordered = ordered | {id(t) for t in missing}
        if states is None:
            states = self._replay(
                witness, may_commit, facts, [dict(self.initial_values)], -1
            )
            if states is None:
                return False
        if self.check_aborted:
            aborted = [t for t in transactions if id(t) not in ordered]
            if not self._place_aborted(witness, states, aborted, facts):
                return False
        walk.adopt(witness, states)
        return True

    def _replay(
        self,
        appended: List[Transaction],
        may_commit: Set[int],
        facts: Dict[int, _Facts],
        states: _States,
        latest_start: int,
    ) -> Optional[_States]:
        """The memory states of an order whose first ``len(states) - 1``
        members have the states ``states`` (the latest of their starts
        is ``latest_start``) and whose other members are ``appended``,
        if every appended member is committed or commit-pending, real
        time holds and every read replays; otherwise ``None``.  The
        replay walks one root-to-leaf path of the search's tree, so the
        whole order is held to the same ``max_nodes``."""
        if len(states) - 1 + len(appended) >= self.max_nodes:
            raise SearchBudgetExceeded(
                f"{self.name} search exceeded {self.max_nodes} nodes"
            )
        default = self.default_initial
        states = list(states)
        for transaction in appended:
            if not transaction.committed and id(transaction) not in may_commit:
                return None
            end = transaction.end_index
            if end is not None and end < latest_start:
                return None  # it precedes a transaction ordered before it
            latest_start = max(latest_start, transaction.start_index)
            reads, writes = facts[id(transaction)]
            state = states[-1]
            if any(state.get(variable, default) != value for variable, value in reads):
                return None
            state = dict(state)
            state.update(writes)
            states.append(state)
        return states

    # -- committed-order search ----------------------------------------------------

    def _serialization(
        self,
        committed: List[Transaction],
        aborted: List[Transaction],
        facts: Dict[int, _Facts],
    ) -> Optional[Tuple[List[Transaction], _States]]:
        """A legal committed order that admits the aborted transactions,
        with its memory states, or ``None``."""
        # Aborted transactions fit some committed orders and not others,
        # so every legal order is a candidate until one admits them.
        for order, states in self._committed_orders(committed, facts):
            if not self.check_aborted or self._place_aborted(
                order, states, aborted, facts
            ):
                return order, states
        return None

    def _committed_orders(
        self, committed: List[Transaction], facts: Dict[int, _Facts]
    ) -> Iterator[Tuple[List[Transaction], _States]]:
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
        states: _States = [dict(self.initial_values)]
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
        states: _States,
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
            low = 0
            for other_end, gap in placed:
                if other_end is not None and other_end < start and gap > low:
                    low = gap
            high = len(order)
            for position, (other_start, other_end) in enumerate(bounds):
                if other_end is not None and other_end < start and position >= low:
                    low = position + 1
                if end is not None and end < other_start and position < high:
                    high = position
            for gap in range(low, high + 1):
                state = states[gap]
                for variable, value in reads:
                    if state.get(variable, default) != value:
                        break
                else:  # every read replays at this gap
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

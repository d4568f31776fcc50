"""Property-based differential tests for the safety checkers.

Seeded random histories (no hypothesis dependency) are fed to the
production opacity checker (:mod:`repro.objects.opacity`) and to a
deliberately naive brute-force reference that enumerates permutations
outright.  On histories of at most six events the enumeration is
trivially exhaustive, so any verdict disagreement is a bug in the
clever checker (memoised backtracking, greedy gap placement) rather
than in the oracle.
"""

from itertools import permutations, product

import pytest

from repro.core.events import Crash, Invocation, Response
from repro.core.history import History
from repro.core.properties import Verdict
from repro.objects.opacity import OpacityChecker, SearchBudgetExceeded
from repro.objects.tm import (
    ABORTED,
    COMMITTED,
    OK,
    STATUS_COMMIT_PENDING,
    parse_transactions,
)
from repro.util.errors import IllFormedHistoryError
from repro.util.rng import DeterministicRng

from conftest import tm_events, tm_history

MAX_EVENTS = 6


# ---------------------------------------------------------------------------
# Random history generators (always well-formed)
# ---------------------------------------------------------------------------


def random_tm_history(rng: DeterministicRng) -> History:
    """A random ≤6-event TM history over two processes.

    Each process follows the TM call protocol (start, reads/writes,
    tryC; an ABORTED response ends the transaction), while response
    *values* are random — so unjustifiable reads and impossible commit
    orders occur regularly.
    """
    events = []
    pending = {}  # pid -> operation awaiting response
    phase = {0: "idle", 1: "idle"}  # idle | live
    calls = {0: 0, 1: 0}  # calls made inside the current transaction
    length = rng.randint(2, MAX_EVENTS)
    while len(events) < length:
        pid = rng.choice([0, 1])
        if pid in pending:
            operation = pending.pop(pid)
            if operation == "start":
                events.append(Response(pid, "start", OK))
            elif operation == "read":
                value = rng.choice([0, 1, ABORTED])
                events.append(Response(pid, "read", value))
                if value is ABORTED:
                    phase[pid] = "idle"
            elif operation == "write":
                value = rng.choice([OK, ABORTED])
                events.append(Response(pid, "write", value))
                if value is ABORTED:
                    phase[pid] = "idle"
            else:  # tryC
                events.append(
                    Response(pid, "tryC", rng.choice([COMMITTED, ABORTED]))
                )
                phase[pid] = "idle"
        elif phase[pid] == "idle":
            events.append(Invocation(pid, "start", ()))
            pending[pid] = "start"
            phase[pid] = "live"
            calls[pid] = 0
        else:
            choice = rng.choice(
                ["read", "write", "tryC"] if calls[pid] else ["read", "write"]
            )
            calls[pid] += 1
            if choice == "read":
                events.append(Invocation(pid, "read", (0,)))
            elif choice == "write":
                events.append(Invocation(pid, "write", (0, rng.choice([1, 2]))))
            else:
                events.append(Invocation(pid, "tryC", ()))
            pending[pid] = choice
    return History(events)


def random_crashing_tm_history(
    rng: DeterministicRng, processes: int = 3, length: int = 16
) -> History:
    """A random ``length``-event TM history over ``processes`` processes
    and one variable, with crashes.

    Like :func:`random_tm_history`, each process follows the call
    protocol while response values are random.  A process crashes with
    small probability and then takes no further step, so transactions
    are cut off live or commit-pending (a crash between ``tryC`` and its
    response), and some ``tryC`` calls are still pending at the end.
    """
    events = []
    pending = {}  # pid -> operation awaiting response
    live = set()  # pids inside a transaction
    calls = {}  # pid -> calls made inside the current transaction
    crashed = set()
    while len(events) < length:
        running = [pid for pid in range(processes) if pid not in crashed]
        if not running:
            break
        pid = rng.choice(running)
        if rng.random() < 0.03:
            events.append(Crash(pid))
            crashed.add(pid)
        elif pid in pending:
            operation = pending.pop(pid)
            if operation == "read":
                value = rng.choice([0, 1, 2, ABORTED])
            elif operation == "tryC":
                value = rng.choice([COMMITTED, ABORTED])
            else:
                value = OK if rng.random() < 0.85 else ABORTED
            events.append(Response(pid, operation, value))
            if value is ABORTED or operation == "tryC":
                live.discard(pid)
        elif pid not in live:
            events.append(Invocation(pid, "start", ()))
            pending[pid] = "start"
            live.add(pid)
            calls[pid] = 0
        else:
            operation = rng.choice(
                ["read", "write", "tryC"] if calls[pid] else ["read", "write"]
            )
            calls[pid] += 1
            if operation == "read":
                events.append(Invocation(pid, "read", (0,)))
            elif operation == "write":
                events.append(Invocation(pid, "write", (0, rng.choice([1, 2]))))
            else:
                events.append(Invocation(pid, "tryC", ()))
            pending[pid] = operation
    return History(events)


# ---------------------------------------------------------------------------
# Brute-force references
# ---------------------------------------------------------------------------


def brute_force_opaque(history: History) -> bool:
    """Per-prefix, per-completion permutation enumeration of opacity.

    The checker's contract, made naive: for every response-ending
    prefix, some completion of the commit-pending transactions admits a
    total order of *all* transactions that respects real time and in
    which every transaction (aborted ones included) reads values
    written by the committed transactions ordered before it.
    """
    ends = [
        index + 1
        for index, event in enumerate(history)
        if isinstance(event, Response)
    ]
    if not ends or ends[-1] != len(history):
        ends.append(len(history))
    return all(_prefix_opaque(history[:end]) for end in ends)


def _prefix_opaque(history: History) -> bool:
    transactions = parse_transactions(history)
    if any(t.own_write_violation() is not None for t in transactions):
        return False
    pending = [t for t in transactions if t.status == "commit-pending"]
    for commit_mask in product((True, False), repeat=len(pending)):
        as_committed = {
            id(t) for t, commit in zip(pending, commit_mask) if commit
        }
        committed_ids = {
            id(t) for t in transactions if t.committed or id(t) in as_committed
        }
        for order in permutations(transactions):
            position = {id(t): k for k, t in enumerate(order)}
            if any(
                a.precedes(b) and position[id(a)] > position[id(b)]
                for a in transactions
                for b in transactions
                if a is not b
            ):
                continue
            state = {}
            ok = True
            for transaction in order:
                if any(
                    state.get(variable, 0) != value
                    for variable, value in transaction.reads()
                ):
                    ok = False
                    break
                if id(transaction) in committed_ids:
                    state.update(transaction.write_set())
            if ok:
                return True
    return False


# ---------------------------------------------------------------------------
# The differential properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_opacity_checker_agrees_with_brute_force(seed):
    rng = DeterministicRng(f"opacity-{seed}")
    checker = OpacityChecker(deep=True)
    verdicts = set()
    for _ in range(250):
        history = random_tm_history(rng)
        verdict = checker.check_history(history)
        naive = brute_force_opaque(history)
        assert verdict.holds == naive, f"disagreement on {history}"
        # The shared checker's trie, carried parse and witness change
        # nothing a from-scratch check reports.
        assert _observed(verdict) == reference_opacity(history, checker), history
        verdicts.add(verdict.holds)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Family instances through the verify() facade
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_family_instances_round_trip_fuzz_against_exhaustive(seed):
    """Generated family instances satisfy the same differential
    property as the curated catalog: on a seeded random sample of the
    exhaustible slice, the fuzz backend's verdict agrees with the
    exhaustive backend's proof.  (The full 200+ instance grid is far
    too slow for tier 1; the sample rotates with the seed.)
    """
    from repro.scenarios import TAG_EXHAUSTIBLE, TAG_FAMILY, iter_scenarios, verify

    rng = DeterministicRng(f"family-differential-{seed}")
    instances = iter_scenarios(tags=(TAG_FAMILY, TAG_EXHAUSTIBLE))
    assert len(instances) >= 20
    sample = rng.sample(instances, 3)
    outcomes = set()
    for scenario in sample:
        exhaustive = verify(scenario, backend="exhaustive", shrink=False)
        assert not exhaustive.budget_exhausted, (
            scenario.scenario_id,
            exhaustive.stats.get("error"),
        )
        fuzz = verify(
            scenario, backend="fuzz", seed=seed, iterations=500, shrink=False
        )
        assert exhaustive.outcome == fuzz.outcome, scenario.scenario_id
        assert exhaustive.expected and fuzz.expected, scenario.scenario_id
        outcomes.add(exhaustive.outcome)
    assert outcomes <= {"holds", "violated"}


def test_crashed_commit_pending_transaction_may_commit():
    """Regression for the parse_transactions bug the fuzzer found: a
    writer crashing between tryC and its response may still have
    committed internally, so a subsequent read of its value is opaque."""
    from repro.core.events import Crash

    history = History(
        [
            Invocation(0, "start", ()),
            Response(0, "start", OK),
            Invocation(0, "write", (0, 1)),
            Response(0, "write", OK),
            Invocation(0, "tryC", ()),
            Crash(0),
            Invocation(1, "start", ()),
            Response(1, "start", OK),
            Invocation(1, "read", (0,)),
            Response(1, "read", 1),
        ]
    )
    transactions = parse_transactions(history)
    assert transactions[0].status == "commit-pending"
    assert OpacityChecker(deep=True).check_history(history).holds
    assert brute_force_opaque(history)


def test_aborted_read_fits_a_later_committed_order():
    """Regression for the checker trusting the *first* legal committed
    order: here [T2, T0] is found first and T1's read of x1=3 fits no
    gap of it, while [T0, T2] admits T1 after T2 (the 19-event history
    a fuzz run of ``tm-grid:impl=global-lock,n=3,plan=rmw,vars=2``
    reported as a violation)."""
    I, R = Invocation, Response
    history = History(
        [
            I(2, "start", ()),
            I(0, "start", ()),
            R(0, "start", OK),
            I(0, "read", (0,)),
            R(0, "read", 0),
            I(0, "write", (1, 1)),
            R(0, "write", OK),
            I(0, "tryC", ()),
            R(2, "start", OK),
            I(2, "read", (0,)),
            R(2, "read", 0),
            R(0, "tryC", COMMITTED),
            I(2, "write", (1, 3)),
            R(2, "write", OK),
            I(1, "start", ()),
            I(2, "tryC", ()),
            R(1, "start", OK),
            I(1, "read", (1,)),
            R(1, "read", 3),
        ]
    )
    assert brute_force_opaque(history)
    assert OpacityChecker(deep=True).check_history(history).holds


# ---------------------------------------------------------------------------
# The incremental opacity checker against a from-scratch reference
# ---------------------------------------------------------------------------
#
# ``OpacityChecker`` walks each history once through a prefix trie shared
# by every history it is handed, carries one incremental parse along the
# walk, and tries the last checked prefix's serialization before
# searching.  The reference below does none of that: it parses every
# checked prefix anew and searches it from scratch, so any verdict,
# reason or witness that differs points at the incremental machinery.


def reference_opacity(history: History, checker: OpacityChecker):
    """``(holds, reason, witness length)`` of ``history`` from scratch,
    under ``checker``'s parameters."""
    ends = [len(history)]
    if checker.deep:
        ends = [
            index + 1
            for index, event in enumerate(history)
            if isinstance(event, Response)
        ]
        if not ends or ends[-1] != len(history):
            ends.append(len(history))
    for end in ends:
        failure = _reference_prefix(history[:end], checker)
        if failure is not None:
            return False, f"prefix of length {end}: {failure}", end
    return True, f"{checker.name} holds on all checked prefixes", None


def _reference_prefix(history: History, checker: OpacityChecker):
    transactions = parse_transactions(history)
    for transaction in transactions:
        violation = transaction.own_write_violation()
        if violation is not None:
            variable, written, observed = violation
            return (
                f"transaction p{transaction.process}#{transaction.number} "
                f"wrote {written!r} to x{variable} but then read {observed!r}"
            )
    pending = [t for t in transactions if t.status == STATUS_COMMIT_PENDING]
    for commit_mask in product((True, False), repeat=len(pending)):
        chosen = {id(t) for t, commit in zip(pending, commit_mask) if commit}
        committed = [t for t in transactions if t.committed or id(t) in chosen]
        aborted = [
            t for t in transactions if not t.committed and id(t) not in chosen
        ]
        for order in _reference_orders(committed, (), checker):
            if not checker.check_aborted or _reference_place(
                order, aborted, checker
            ):
                return None
    return (
        f"no serialization of {len(transactions)} transactions "
        f"(committed={sum(t.committed for t in transactions)}) respects "
        "real time and the sequential specification"
    )


def _reference_state(order, checker):
    state = dict(checker.initial_values)
    for transaction in order:
        state.update(transaction.write_set())
    return state


def _reference_orders(committed, order, checker):
    """Every real-time respecting committed order whose reads replay
    (plain backtracking, no memo, no budget)."""
    if len(order) == len(committed):
        yield order
        return
    placed = {id(t) for t in order}
    state = _reference_state(order, checker)
    for transaction in committed:
        if id(transaction) in placed:
            continue
        if any(
            other.precedes(transaction) and id(other) not in placed
            for other in committed
        ):
            continue
        if any(
            state.get(variable, checker.default_initial) != value
            for variable, value in transaction.reads()
        ):
            continue
        yield from _reference_orders(committed, order + (transaction,), checker)


def _reference_place(order, aborted, checker):
    """Each aborted transaction, in start order, at the first gap of
    ``order`` that respects real time and replays its reads."""
    gaps = {}
    for transaction in sorted(aborted, key=lambda t: t.start_index):
        low = max(
            [i + 1 for i, t in enumerate(order) if t.precedes(transaction)]
            + [gaps[id(t)] for t in aborted if id(t) in gaps and t.precedes(transaction)]
            + [0]
        )
        high = min(
            [i for i, t in enumerate(order) if transaction.precedes(t)]
            + [len(order)]
        )
        for gap in range(low, high + 1):
            state = _reference_state(order[:gap], checker)
            if all(
                state.get(variable, checker.default_initial) == value
                for variable, value in transaction.reads()
            ):
                gaps[id(transaction)] = gap
                break
        else:
            return False
    return True


def _observed(verdict):
    witness = None if verdict.witness is None else len(verdict.witness)
    return verdict.holds, verdict.reason, witness


class _Collect:
    """A stand-in safety property that records every history handed in."""

    def __init__(self):
        self.histories = []

    def check_history(self, history):
        self.histories.append(history)
        return Verdict.passed()


def _fuzz_histories(scenario, seed, iterations):
    from repro.fuzz.driver import FuzzDriver

    collect = _Collect()
    FuzzDriver(
        scenario.factory,
        scenario.plan,
        safety=collect,
        seed=seed,
        stop_on_violation=False,
    ).run(iterations)
    return collect.histories


def _tm_scenarios():
    from repro.scenarios import iter_scenarios

    return [
        scenario
        for scenario in iter_scenarios()
        if isinstance(scenario.safety_factory(), OpacityChecker)
    ]


def _mutant_violations():
    """The violating histories the fuzzer finds for the TM mutants."""
    from repro.fuzz.driver import fuzz_workload
    from repro.mutate.mutants import iter_mutants

    found = {}
    for mutant in iter_mutants():
        if not mutant.target.endswith("-tm"):
            continue
        scenario = mutant.scenario_factory()
        found[mutant.mutant_id] = [
            report.violation.history
            for report in (
                fuzz_workload(scenario, seed=seed, iterations=2000)
                for seed in range(4)
            )
            if report.violation is not None
        ]
    return found


def test_opacity_checker_matches_reference_on_fuzz_walks():
    scenarios = _tm_scenarios()
    assert len(scenarios) >= 50
    outcomes = set()
    for scenario in scenarios:
        checker = scenario.safety_factory()
        for history in _fuzz_histories(scenario, seed=3, iterations=30):
            observed = _observed(checker.check_history(history))
            assert observed == reference_opacity(history, checker), (
                scenario.scenario_id,
                history,
            )
            outcomes.add(observed[0])
    assert True in outcomes


def test_opacity_checker_matches_reference_on_mutant_violations():
    violations = _mutant_violations()
    assert len(violations) == 5
    for mutant_id, histories in violations.items():
        assert histories, f"the fuzzer found no violation of {mutant_id}"
        checker = OpacityChecker()
        for history in histories:
            observed = _observed(checker.check_history(history))
            assert observed == reference_opacity(history, checker), mutant_id
            if mutant_id != "i12-off-by-one-quorum":  # not an opacity bug
                assert not observed[0], mutant_id


def test_shared_checker_matches_reference_on_crashing_histories():
    """Longer histories than the brute-force corpus, over three
    processes, with crashes, commit-pending ``tryC`` calls and aborts,
    all through one shared checker, whose trie then decides most
    prefixes and whose witnesses come from other walks."""
    rng = DeterministicRng("crashing-opacity-1")
    checker = OpacityChecker()
    outcomes = set()
    crashed = commit_pending = 0
    for _ in range(3000):
        history = random_crashing_tm_history(rng)
        observed = _observed(checker.check_history(history))
        assert observed == reference_opacity(history, checker), history
        outcomes.add(observed[0])
        crashed += any(isinstance(event, Crash) for event in history)
        commit_pending += any(
            t.status == STATUS_COMMIT_PENDING for t in parse_transactions(history)
        )
    assert outcomes == {True, False}
    assert crashed > 100 and commit_pending > 100, (crashed, commit_pending)


def test_shared_checker_matches_fresh_checkers():
    """No verdict, parse or witness leaks from one history into another:
    a checker fed a shuffled mix of histories agrees with a fresh checker
    per history."""
    from repro.scenarios import get_scenario

    histories = [
        history
        for scenario_id in (
            "agp-opacity-3p",
            "global-lock-opacity",
            "i12-opacity",
            "intent-opacity",
            "crash-tm:impl=norec,vars=2,crash=p0@7",
        )
        for history in _fuzz_histories(get_scenario(scenario_id), 5, 40)
    ]
    histories += [h for found in _mutant_violations().values() for h in found]
    rng = DeterministicRng("shared-checker")
    rng.shuffle(histories)
    assert len(histories) >= 50
    shared = OpacityChecker()
    for history in histories:
        assert _observed(shared.check_history(history)) == _observed(
            OpacityChecker().check_history(history)
        ), history


ILL_FORMED = [
    # a read outside any transaction
    tm_events(("i", 0, "read", 0)),
    # a start inside a live transaction
    tm_events((0, "start"), ("i", 0, "start")),
    # a response outside any transaction
    tm_events(("r", 0, "read", 0)),
    # tryC answered with something other than C or A
    tm_events((0, "start"), ("i", 0, "tryC"), ("r", 0, "tryC", OK)),
    # a call after the transaction committed
    tm_events((0, "start"), (0, "commit"), ("i", 0, "write", 0, 1)),
]


@pytest.mark.parametrize("events", ILL_FORMED)
def test_ill_formed_history_raises_the_parsers_message(events):
    history = History(events, validate=False)
    with pytest.raises(IllFormedHistoryError) as parsed:
        parse_transactions(history)
    checker = OpacityChecker()
    for _ in range(2):  # the second walk starts on trie hits
        with pytest.raises(IllFormedHistoryError) as checked:
            checker.check_history(history)
        assert str(checked.value) == str(parsed.value)


def test_exceeded_search_budget_stores_no_verdict():
    """A prefix whose search ran out of budget stays undecided: asking
    again searches (and raises) again rather than reading a verdict."""
    history = tm_history(
        (0, "start"), (0, "write", 0, 1), (0, "commit"),
        (1, "start"), (1, "read", 0, 1),
    )
    checker = OpacityChecker(max_nodes=1)
    for _ in range(2):
        with pytest.raises(SearchBudgetExceeded):
            checker.check_history(history)
    assert OpacityChecker().check_history(history).holds

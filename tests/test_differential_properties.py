"""Property-based differential tests for the safety checkers.

Seeded random histories (no hypothesis dependency) are fed to the
production checkers — :mod:`repro.objects.linearizability` and
:mod:`repro.objects.opacity` — and to deliberately naive brute-force
references that enumerate permutations outright.  On histories of at
most six events the enumeration is trivially exhaustive, so any verdict
disagreement is a bug in the clever checker (memoised backtracking,
greedy gap placement) rather than in the oracle.
"""

from itertools import permutations, product

import pytest

from repro.core.events import Invocation, Response
from repro.core.history import History
from repro.objects.linearizability import LinearizabilityChecker
from repro.objects.opacity import OpacityChecker
from repro.objects.register_obj import WRITE_OK, RegisterSpec
from repro.objects.tm import ABORTED, COMMITTED, OK, parse_transactions
from repro.util.errors import SpecificationError
from repro.util.rng import DeterministicRng

MAX_EVENTS = 6


# ---------------------------------------------------------------------------
# Random history generators (always well-formed)
# ---------------------------------------------------------------------------


def random_register_history(rng: DeterministicRng) -> History:
    """A random ≤6-event read/write history over two processes.

    Read responses are drawn at random, so roughly half the histories
    are *not* linearizable — both verdicts get exercised.
    """
    events = []
    pending = {}
    length = rng.randint(1, MAX_EVENTS)
    while len(events) < length:
        pid = rng.choice([0, 1])
        if pid in pending:
            operation = pending.pop(pid)
            value = WRITE_OK if operation == "write" else rng.choice([0, 1])
            events.append(Response(pid, operation, value))
        else:
            if rng.maybe(0.5):
                events.append(Invocation(pid, "read", ()))
                pending[pid] = "read"
            else:
                events.append(Invocation(pid, "write", (rng.choice([0, 1]),)))
                pending[pid] = "write"
    return History(events)


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


# ---------------------------------------------------------------------------
# Brute-force references
# ---------------------------------------------------------------------------


def brute_force_linearizable(history: History, spec: RegisterSpec) -> bool:
    """Enumerate completion choices × permutations outright."""
    operations = history.drop_crashes().operations()
    completed = [i for i, op in enumerate(operations) if not op.is_pending]
    pending = [i for i, op in enumerate(operations) if op.is_pending]
    for keep in product((True, False), repeat=len(pending)):
        chosen = set(completed) | {
            i for i, kept in zip(pending, keep) if kept
        }
        for order in permutations(sorted(chosen)):
            position = {i: k for k, i in enumerate(order)}
            if any(
                operations[i].precedes(operations[j])
                and position[i] > position[j]
                for i in chosen
                for j in chosen
                if i != j
            ):
                continue
            state = spec.initial_state()
            ok = True
            for i in order:
                operation = operations[i]
                try:
                    state, value = spec.apply(
                        state,
                        operation.invocation.operation,
                        operation.invocation.args,
                    )
                except SpecificationError:
                    ok = False
                    break
                if not operation.is_pending and value != operation.response.value:
                    ok = False
                    break
            if ok:
                return True
    return False


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
def test_linearizability_checker_agrees_with_brute_force(seed):
    rng = DeterministicRng(f"linearizability-{seed}")
    spec = RegisterSpec(initial=0)
    checker = LinearizabilityChecker(spec)
    verdicts = set()
    for _ in range(250):
        history = random_register_history(rng)
        clever = checker.check_history(history).holds
        naive = brute_force_linearizable(history, spec)
        assert clever == naive, f"disagreement on {history}"
        verdicts.add(clever)
    # The corpus must exercise both outcomes or the test is vacuous.
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_opacity_checker_agrees_with_brute_force(seed):
    rng = DeterministicRng(f"opacity-{seed}")
    checker = OpacityChecker(deep=True)
    verdicts = set()
    for _ in range(250):
        history = random_tm_history(rng)
        clever = checker.check_history(history).holds
        naive = brute_force_opaque(history)
        assert clever == naive, f"disagreement on {history}"
        verdicts.add(clever)
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

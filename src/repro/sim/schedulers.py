"""Schedulers: who takes the next step.

A scheduler picks one process among the eligible ones (pending, or idle
with workload remaining).  The model's asynchrony means *any* scheduler
is legal; the ones here cover the schedules the paper's arguments need:

* solo and k-bounded schedules for obstruction-style guarantees,
* lockstep schedules for the consensus contention argument,
* round-robin and seeded-random schedules for fair background load.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Optional, Sequence, TYPE_CHECKING

from repro.util.errors import SimulationError
from repro.util.rng import DeterministicRng, normalize_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import RuntimeView


class Scheduler(ABC):
    """Chooses one process among the eligible ones."""

    name: str = "scheduler"

    @abstractmethod
    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        """Return the pid to move next; must be a member of
        ``eligible``."""

    def admissible(self, pid: int) -> bool:
        """Whether this scheduler ever gives ``pid`` a turn.

        Restricted schedulers (solo, group, lockstep) delay everyone
        outside their group forever; the driver filters eligibility
        through this predicate so a run ends cleanly when only
        never-scheduled processes still have work.
        """
        return True

    def fingerprint(self) -> Optional[Hashable]:
        """Scheduler state for lasso detection (``None`` disables)."""
        return None

    def reset(self) -> None:
        """Return to initial state."""


class RoundRobinScheduler(Scheduler):
    """Cycle through processes in pid order, skipping ineligible ones.

    A fair scheduler: every eligible process is picked infinitely often.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        eligible_set = set(eligible)
        for offset in range(view.n_processes):
            pid = (self._next + offset) % view.n_processes
            if pid in eligible_set:
                self._next = (pid + 1) % view.n_processes
                return pid
        raise SimulationError("round-robin called with no eligible process")

    def fingerprint(self) -> Optional[Hashable]:
        return ("round-robin", self._next)

    def reset(self) -> None:
        self._next = 0


class RandomScheduler(Scheduler):
    """Uniformly random eligible process, from a deterministic seed.

    Probabilistically fair; used for background-load experiments.  Lasso
    fingerprinting is disabled (the RNG state space is huge), so runs
    under this scheduler produce horizon verdicts.

    The seed is normalized to an int via
    :func:`~repro.util.rng.normalize_seed`, so two schedulers built from
    equal seeds — whatever the caller passed (int, string, campaign axis
    value) — produce identical pick sequences, and an irreproducible
    seed object is rejected instead of silently salting the stream.
    """

    name = "random"

    def __init__(self, seed: object = 0):
        self._seed = normalize_seed(seed)
        self._rng = DeterministicRng(self._seed)

    @property
    def seed(self) -> int:
        """The normalized integer seed."""
        return self._seed

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        return self._rng.choice(list(eligible))

    def reset(self) -> None:
        self._rng = DeterministicRng(self._seed)


class WeightedRandomScheduler(Scheduler):
    """Random eligible process under per-process weights (biased pick).

    The schedule-fuzzer's swarm mutation: weights tilt the uniform
    choice toward a subset of processes, which exercises interleaving
    families a uniform sampler rarely produces (near-solo runs, starved
    readers, …).  A missing weight counts as 1; weights must be
    positive.
    """

    name = "weighted-random"

    def __init__(self, weights: Sequence[float], seed: object = 0):
        self.weights = tuple(float(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"weights must be positive, got {weights!r}")
        self._seed = normalize_seed(seed)
        self._rng = DeterministicRng(self._seed)

    def _weight(self, pid: int) -> float:
        return self.weights[pid] if pid < len(self.weights) else 1.0

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        if not eligible:
            raise SimulationError("weighted-random called with no eligible process")
        total = sum(self._weight(pid) for pid in eligible)
        mark = self._rng.random() * total
        for pid in eligible:
            mark -= self._weight(pid)
            if mark < 0:
                return pid
        return eligible[-1]  # float round-off

    def reset(self) -> None:
        self._rng = DeterministicRng(self._seed)


class PriorityScheduler(Scheduler):
    """Highest-priority eligible process, under a fixed priority order.

    The swarm mutation's priority shuffle: a random permutation of the
    pids yields a deterministic scheduler that drives one extreme
    interleaving per permutation (the first process runs solo until it
    blocks or finishes, then the next, …).  Pids missing from ``order``
    rank last, in pid order.
    """

    def __init__(self, order: Sequence[int]):
        self.order = tuple(order)
        self.name = f"priority({','.join('p%d' % p for p in self.order)})"

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        if not eligible:
            raise SimulationError("priority called with no eligible process")
        eligible_set = set(eligible)
        for pid in self.order:
            if pid in eligible_set:
                return pid
        return min(eligible_set)

    def fingerprint(self) -> Optional[Hashable]:
        return ("priority", self.order)


class SoloScheduler(Scheduler):
    """Only one chosen process ever moves.

    The schedule behind obstruction-freedom's premise: the chosen process
    eventually runs without step contention (here: from the start).
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.name = f"solo(p{pid})"

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        if self.pid not in eligible:
            raise SimulationError(
                f"solo process p{self.pid} is not eligible (eligible={list(eligible)})"
            )
        return self.pid

    def admissible(self, pid: int) -> bool:
        return pid == self.pid

    def fingerprint(self) -> Optional[Hashable]:
        return ("solo", self.pid)


class GroupScheduler(Scheduler):
    """Round-robin restricted to a fixed group of processes.

    Realises the premise of ``k``-obstruction-freedom: only the group
    (of size ``k``) takes steps; everyone else is delayed forever.
    """

    def __init__(self, group: Sequence[int]):
        if not group:
            raise ValueError("group must be non-empty")
        self.group = tuple(sorted(set(group)))
        self.name = f"group({','.join('p%d' % p for p in self.group)})"
        self._next_index = 0

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        eligible_in_group = [p for p in self.group if p in set(eligible)]
        if not eligible_in_group:
            raise SimulationError(
                f"no member of group {self.group} is eligible"
            )
        for offset in range(len(self.group)):
            index = (self._next_index + offset) % len(self.group)
            if self.group[index] in eligible_in_group:
                self._next_index = (index + 1) % len(self.group)
                return self.group[index]
        raise SimulationError("unreachable")  # pragma: no cover

    def admissible(self, pid: int) -> bool:
        return pid in self.group

    def fingerprint(self) -> Optional[Hashable]:
        return ("group", self.group, self._next_index)

    def reset(self) -> None:
        self._next_index = 0


class LockstepScheduler(Scheduler):
    """Strict alternation within a group: one step each, in order.

    The contention schedule of the consensus impossibility argument
    (Section 5.2): two processes advancing in lockstep can prevent any
    register-based consensus from ever deciding.  Unlike
    :class:`GroupScheduler` it does not skip a group member while that
    member is eligible, so the alternation is exact.
    """

    def __init__(self, group: Sequence[int]):
        if not group:
            raise ValueError("group must be non-empty")
        self.group = tuple(group)
        self.name = f"lockstep({','.join('p%d' % p for p in self.group)})"
        self._turn = 0

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        eligible_set = set(eligible)
        for offset in range(len(self.group)):
            index = (self._turn + offset) % len(self.group)
            pid = self.group[index]
            if pid in eligible_set:
                self._turn = (index + 1) % len(self.group)
                return pid
        raise SimulationError(f"no member of lockstep group {self.group} eligible")

    def admissible(self, pid: int) -> bool:
        return pid in self.group

    def fingerprint(self) -> Optional[Hashable]:
        return ("lockstep", self.group, self._turn)

    def reset(self) -> None:
        self._turn = 0


class FixedOrderScheduler(Scheduler):
    """Replay an explicit pid sequence (then stop being consulted).

    Used by tests that need an exact interleaving; raises if the
    scripted pid is not eligible, so scripts cannot silently diverge.
    """

    def __init__(self, order: Sequence[int]):
        self.order = tuple(order)
        self.name = "fixed-order"
        self._cursor = 0

    def pick(self, eligible: Sequence[int], view: "RuntimeView") -> int:
        if self._cursor >= len(self.order):
            raise SimulationError("fixed-order schedule exhausted")
        pid = self.order[self._cursor]
        self._cursor += 1
        if pid not in set(eligible):
            raise SimulationError(
                f"scripted pid p{pid} not eligible at step {self._cursor - 1}"
            )
        return pid

    def fingerprint(self) -> Optional[Hashable]:
        return ("fixed-order", self._cursor)

    def reset(self) -> None:
        self._cursor = 0

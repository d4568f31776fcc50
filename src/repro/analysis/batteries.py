"""Shared play batteries: the schedule families behind the grid
experiments.

Experiments that quantify over schedules use these batteries (moved out
of ``experiments.py`` so that module stays a thin layer of claim
evaluators):

* :func:`consensus_plays` — solo schedules (obstruction premise),
  pairwise lockstep with distinct proposals (the CIL contention
  schedule), and full-group round-robin;
* :func:`tm_plays` — round-robin and pairwise group schedules over a
  transaction workload, the three-step local-progress adversary (both
  victim roles), and — for three or more processes — the Section 5.3
  concurrent-start adversary.

Each play yields ``(history, summary, label)``; classification
evaluates safety on the history and liveness on the summary.  Every
play is one :func:`~repro.sim.runtime.play` of a fresh implementation
against a fresh driver, run in order in this process: a play is the
straight-line case of the liveness search, which judges whether it is
a lasso, a fair finite run, or horizon evidence.

The campaign grid axes select battery subsets uniformly:
``schedulers`` restricts the schedule families, ``crash`` injects a
crash pattern (:func:`~repro.sim.crash.parse_crash_spec` syntax) into
every composed play, and ``seed`` adds a seeded random-scheduler play
per implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversaries.counterexample import CounterexampleAdversary
from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.analysis.classification import Play
from repro.analysis.registry import RegistryEntry
from repro.sim.crash import parse_crash_spec
from repro.sim.drivers import ComposedDriver, Driver
from repro.sim.runtime import play
from repro.sim.schedulers import (
    GroupScheduler,
    LockstepScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SoloScheduler,
)
from repro.sim.workload import TransactionWorkload, propose_workload
from repro.util.errors import UsageError

#: Schedule families addressable by the ``scheduler`` grid axis.
CONSENSUS_SCHEDULE_FAMILIES = ("solo", "lockstep", "round-robin", "random")
TM_SCHEDULE_FAMILIES = (
    "round-robin",
    "group",
    "tm-adversary",
    "counterexample",
    "random",
)


def _select_families(
    schedulers, known: Sequence[str], seed: Optional[int]
) -> List[str]:
    """Resolve the ``scheduler`` axis to a list of schedule families.

    ``None`` selects every deterministic family, plus ``random`` when a
    ``seed`` is given (the seed axis is what makes random plays
    reproducible).  Explicit values — one family, a comma-separated
    string, or a sequence — are validated against ``known``.
    """
    if schedulers is None:
        families = [family for family in known if family != "random"]
        if seed is not None:
            families.append("random")
        return families
    if isinstance(schedulers, str):
        schedulers = [part.strip() for part in schedulers.split(",") if part.strip()]
    unknown = [family for family in schedulers if family not in known]
    if unknown:
        raise UsageError(
            f"unknown scheduler family(ies) {unknown!r}; known: {list(known)}"
        )
    if seed is not None and "random" not in schedulers:
        raise UsageError(
            "a seed only affects the 'random' schedule family, which the "
            f"scheduler selection {list(schedulers)!r} excludes — sweeping "
            "seeds would run identical batteries; add 'random' or drop the "
            "seed axis"
        )
    return list(schedulers)


def lk_points(n: int, lk) -> Optional[List[Tuple[int, int]]]:
    """Resolve the ``lk`` axis (``"LxK"`` caps) to grid points.

    ``None`` means the full ``1 <= l <= k <= n`` triangle; ``"2x3"``
    restricts to points with ``l <= 2`` and ``k <= 3``.
    """
    if lk is None:
        return None
    parts = str(lk).lower().split("x")
    if len(parts) != 2 or not all(part.strip().isdigit() for part in parts):
        raise UsageError(
            f"bad lk range {lk!r}; expected 'LxK' caps such as '2x3'"
        )
    l_max, k_max = int(parts[0]), int(parts[1])
    points = [
        (l, k)
        for k in range(1, min(k_max, n) + 1)
        for l in range(1, min(l_max, k) + 1)
    ]
    if not points:
        raise UsageError(f"lk range {lk!r} selects no grid points for n={n}")
    return points


def _require_plays(
    battery: Dict[str, List[Play]], families: Sequence[str], n: int
) -> Dict[str, List[Play]]:
    """Refuse a battery that gives some implementation no plays: no
    cell can be judged for it, so every point would read as an
    incoherent battery."""
    empty = [key for key, plays in battery.items() if not plays]
    if empty:
        raise UsageError(
            f"the scheduler selection {list(families)!r} gives "
            f"{', '.join(empty)} no plays at n={n}"
        )
    return battery


def _play(
    plays: List[Play],
    entry: RegistryEntry,
    label: str,
    driver: Driver,
    max_steps: int,
) -> None:
    """Play a fresh implementation of ``entry`` against ``driver`` and
    append the run to ``plays``."""
    implementation = entry.make()
    result = play(implementation, driver, max_steps=max_steps)
    mode = implementation.object_type.progress_mode
    plays.append((result.history, result.summary(mode), label))


def consensus_plays(
    n: int,
    entries: Sequence[RegistryEntry],
    max_steps: int = 20_000,
    schedulers=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
) -> Dict[str, List[Play]]:
    """The consensus schedule battery (see module docstring)."""
    battery: Dict[str, List[Play]] = {entry.key: [] for entry in entries}
    families = _select_families(schedulers, CONSENSUS_SCHEDULE_FAMILIES, seed)
    crash_factory = parse_crash_spec(crash)

    def add(entry: RegistryEntry, label: str, scheduler, proposals) -> None:
        driver = ComposedDriver(
            scheduler,
            propose_workload(proposals),
            crash_plan=None if crash_factory is None else crash_factory(),
        )
        _play(battery[entry.key], entry, label, driver, max_steps)

    for entry in entries:
        if "solo" in families:
            for pid in range(n):
                proposals: List[Optional[int]] = [None] * n
                proposals[pid] = pid
                add(entry, f"solo(p{pid})", SoloScheduler(pid), proposals)
        if "lockstep" in families:
            for a in range(n):
                for b in range(a + 1, n):
                    proposals = [None] * n
                    proposals[a], proposals[b] = 0, 1
                    add(
                        entry,
                        f"lockstep(p{a},p{b})",
                        LockstepScheduler([a, b]),
                        proposals,
                    )
        if "round-robin" in families:
            add(entry, "round-robin(all)", RoundRobinScheduler(), list(range(n)))
        if "random" in families:
            play_seed = 0 if seed is None else seed
            add(
                entry,
                f"random(seed={play_seed})",
                RandomScheduler(play_seed),
                list(range(n)),
            )
    return _require_plays(battery, families, n)


def tm_plays(
    n: int,
    entries: Sequence[RegistryEntry],
    variables: Sequence[int] = (0,),
    transactions: int = 2,
    max_steps: int = 240,
    schedulers=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
) -> Dict[str, List[Play]]:
    """The TM schedule-and-adversary battery (like
    :func:`consensus_plays`, with the same uniform grid axes over
    :data:`TM_SCHEDULE_FAMILIES`; crash patterns apply to the composed
    schedule plays, not to the adversary strategies)."""
    battery: Dict[str, List[Play]] = {entry.key: [] for entry in entries}
    families = _select_families(schedulers, TM_SCHEDULE_FAMILIES, seed)
    crash_factory = parse_crash_spec(crash)

    def add(entry: RegistryEntry, label: str, driver: Driver) -> None:
        _play(battery[entry.key], entry, label, driver, max_steps)

    def composed(scheduler) -> ComposedDriver:
        return ComposedDriver(
            scheduler,
            TransactionWorkload(n, transactions, variables=variables),
            crash_plan=None if crash_factory is None else crash_factory(),
        )

    for entry in entries:
        if "round-robin" in families:
            add(entry, "round-robin(all)", composed(RoundRobinScheduler()))
        if "group" in families:
            for a in range(n):
                for b in range(a + 1, n):
                    add(entry, f"group(p{a},p{b})", composed(GroupScheduler([a, b])))
        if "random" in families:
            play_seed = 0 if seed is None else seed
            add(
                entry,
                f"random(seed={play_seed})",
                composed(RandomScheduler(play_seed)),
            )
        if "tm-adversary" in families:
            for victim, helper in ((0, 1), (1, 0)):
                add(
                    entry,
                    f"tm-adversary(victim=p{victim})",
                    TMLocalProgressAdversary(
                        victim=victim, helper=helper, variable=variables[0]
                    ),
                )
        if "counterexample" in families and n >= 3:
            add(
                entry,
                "counterexample-adversary",
                CounterexampleAdversary(tuple(range(3))),
            )
    return _require_plays(battery, families, n)

"""Generative scenario families: parametric grids of registered scenarios.

A :class:`ScenarioFamily` is a declarative generator: an ordered
parameter grid (``impl`` × ``n`` × plan shape × ...) plus a builder
that turns one parameter assignment into a concrete
:class:`~repro.scenarios.scenario.Scenario`.  At import time every
family expands — deterministically, in declared parameter order — into
registered instances, turning the hand-curated catalog into hundreds of
addressable scenarios without hundreds of hand-written registrations.

Instance ids are ``family_id:key=value,...`` with the keys in declared
grid order (``tm-grid:impl=agp,n=2,plan=rw,vars=1``), so an id is also
a complete recipe: :func:`materialize` rebuilds the instance from its
id alone.  That keeps off-budget instances addressable — when
``REPRO_FAMILY_BUDGET`` caps the expansion below the full grid (an
evenly spaced, deterministic sample is registered instead), the
registry's lookup fallback still resolves any in-grid id on demand.

Every instance carries :data:`~repro.scenarios.scenario.TAG_FAMILY`
plus ``family:<family_id>``; instances cheap enough for an exhaustive
proof additionally carry
:data:`~repro.scenarios.scenario.TAG_EXHAUSTIBLE` (deliberately not
``small``: the curated ``small`` slice drives the CI oracle sweep, and
the generated grid would swamp it).

Determinism contract (regression-tested): two fresh interpreters
produce byte-identical ``scenarios list --format md`` output, because
expansion order is a pure function of the declared grids and the
budget.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms.consensus import (
    CasConsensus,
    CommitAdoptConsensus,
    InventingConsensus,
    SilentConsensus,
    StubbornConsensus,
    TasConsensus,
)
from repro.algorithms.locks import BakeryLock, McsLock, TasLock
from repro.algorithms.tm import (
    AgpTransactionalMemory,
    GlobalLockTransactionalMemory,
    I12TransactionalMemory,
    IntentTransactionalMemory,
    NorecTransactionalMemory,
)
from repro.objects.consensus import AgreementValidity
from repro.objects.mutex import MutualExclusionChecker
from repro.objects.opacity import OpacityChecker
from repro.scenarios.registry import register
from repro.scenarios.scenario import (
    TAG_EXHAUSTIBLE,
    TAG_FAMILY,
    TAG_SATISFYING,
    TAG_VIOLATING,
    Scenario,
)
from repro.util.errors import UsageError, unknown_choice
from repro.util.params import env_int

if TYPE_CHECKING:
    from repro.sim.explore import InvocationPlan

#: Default per-family instance cap (override with ``REPRO_FAMILY_BUDGET``).
#: High enough that every shipped grid registers completely.
DEFAULT_FAMILY_BUDGET = 256


def family_budget() -> int:
    """Per-family instance cap from ``REPRO_FAMILY_BUDGET``.

    Validated through the shared ``REPRO_*`` env grammar
    (:func:`repro.util.params.env_int`); a cap below 1 clamps to 1 —
    an empty registry is never a useful interpretation of a budget.
    """
    return env_int("REPRO_FAMILY_BUDGET", default=DEFAULT_FAMILY_BUDGET, minimum=1)


@dataclass(frozen=True)
class ScenarioFamily:
    """A parametric scenario generator (see module docstring).

    ``parameters`` is the ordered grid: ``((name, (value, ...)), ...)``.
    ``builder(**params)`` returns a :class:`Scenario` whose id must be
    :meth:`instance_id` of the parameters — or ``None`` to skip a
    combination that does not exist (e.g. the test-and-set consensus
    protocol beyond two processes).
    """

    family_id: str
    description: str
    parameters: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    builder: Callable[..., Optional[Scenario]]

    def instance_id(self, params: Dict[str, Any]) -> str:
        """The canonical instance id for one parameter assignment."""
        rendered = ",".join(f"{name}={params[name]}" for name, _ in self.parameters)
        return f"{self.family_id}:{rendered}"

    def combos(self) -> List[Dict[str, Any]]:
        """Every parameter assignment, in declared declaration order."""
        names = [name for name, _ in self.parameters]
        value_lists = [values for _, values in self.parameters]
        return [
            dict(zip(names, values))
            for values in itertools.product(*value_lists)
        ]

    def build(self, params: Dict[str, Any]) -> Optional[Scenario]:
        """Build one instance (``None`` for skipped combinations)."""
        scenario = self.builder(**params)
        if scenario is not None:
            expected = self.instance_id(params)
            if scenario.scenario_id != expected:
                raise UsageError(
                    f"family {self.family_id!r} built scenario id "
                    f"{scenario.scenario_id!r}; expected {expected!r}"
                )
        return scenario

    def expand(self, budget: Optional[int] = None) -> List[Scenario]:
        """The registered slice of the grid: every buildable instance,
        evenly down-sampled (deterministically) to ``budget`` when the
        grid is larger."""
        instances = [
            scenario
            for scenario in (self.build(params) for params in self.combos())
            if scenario is not None
        ]
        if budget is None:
            budget = family_budget()
        if len(instances) <= budget:
            return instances
        # Evenly spaced indices keep the sample spread across the whole
        # grid (every impl, every plan shape) instead of truncating to
        # a prefix dominated by the first parameter values.
        step = len(instances) / budget
        picked = sorted({int(index * step) for index in range(budget)})
        return [instances[index] for index in picked]


# ---------------------------------------------------------------------------
# The family registry
# ---------------------------------------------------------------------------

_FAMILIES: Dict[str, ScenarioFamily] = {}


def register_family(family: ScenarioFamily) -> ScenarioFamily:
    """Add a family to the registry (duplicate ids fail loudly)."""
    if family.family_id in _FAMILIES:
        raise UsageError(
            f"scenario family {family.family_id!r} is already registered"
        )
    _FAMILIES[family.family_id] = family
    return family


def get_family(family_id: str) -> ScenarioFamily:
    """Look up a family by id (did-you-mean on unknown ids)."""
    try:
        return _FAMILIES[family_id]
    except KeyError:
        raise unknown_choice("scenario family", family_id, _FAMILIES) from None


def iter_families() -> List[ScenarioFamily]:
    """Registered families in id order."""
    return [_FAMILIES[key] for key in sorted(_FAMILIES)]


def family_ids() -> List[str]:
    """The sorted registered family ids."""
    return sorted(_FAMILIES)


def materialize(scenario_id: str) -> Scenario:
    """Rebuild a family instance from its id (``fam:key=value,...``).

    The path behind the registry's lookup fallback: any in-grid id
    resolves even when the sampling budget kept it out of the registered
    slice.  The rebuilt instance is registered (``replace=True``) so
    repeated lookups are cheap and ``iter_scenarios`` sees it too.
    """
    family_id, separator, assignment = scenario_id.partition(":")
    if not separator:
        raise UsageError(
            f"{scenario_id!r} is not a family instance id "
            "(expected family:key=value,...)"
        )
    family = get_family(family_id)
    params: Dict[str, Any] = {}
    for pair in assignment.split(",") if assignment else []:
        key, eq, raw = pair.partition("=")
        if not eq or not key:
            raise UsageError(
                f"malformed family parameter {pair!r} in {scenario_id!r} "
                "(expected key=value)"
            )
        if key in params:
            raise UsageError(
                f"family parameter {key!r} given twice in {scenario_id!r}"
            )
        params[key] = raw
    declared = {name: values for name, values in family.parameters}
    for key in params:
        if key not in declared:
            raise unknown_choice(
                f"{family_id!r} family parameter", key, declared
            )
    resolved: Dict[str, Any] = {}
    for name, values in family.parameters:
        if name not in params:
            raise UsageError(
                f"{scenario_id!r} is missing the {name!r} parameter of "
                f"family {family_id!r} (declared: "
                f"{', '.join(n for n, _ in family.parameters)})"
            )
        by_text = {str(value): value for value in values}
        if params[name] not in by_text:
            raise unknown_choice(
                f"{family_id!r} family value for {name!r}",
                params[name],
                by_text,
            )
        resolved[name] = by_text[params[name]]
    scenario = family.build(resolved)
    if scenario is None:
        raise UsageError(
            f"family {family_id!r} has no instance for {scenario_id!r} "
            "(the combination is declared but not buildable)"
        )
    return register(scenario, replace=True)


def register_all(budget: Optional[int] = None) -> int:
    """Expand every family into the scenario registry (import hook).

    Families expand in sorted-id order and each grid in declared
    parameter order, so registration is deterministic.  Returns the
    number of registered instances.  ``replace=True`` keeps re-imports
    (and materialize-then-expand races) idempotent.
    """
    count = 0
    for family in iter_families():
        for scenario in family.expand(budget):
            register(scenario, replace=True)
            count += 1
    return count


# ---------------------------------------------------------------------------
# Shared plan generators
# ---------------------------------------------------------------------------


def _variables(count: int) -> Tuple[int, ...]:
    return tuple(range(count))


def _tm_plan(shape: str, n: int, variables: Tuple[int, ...]) -> InvocationPlan:
    """One static TM plan per (shape, n, variables) point."""
    first, last = variables[0], variables[-1]
    if shape == "rw":
        plan: InvocationPlan = {
            0: [("start", ()), ("write", (first, 1)), ("tryC", ())]
        }
        for pid in range(1, n):
            plan[pid] = [("start", ()), ("read", (first,)), ("tryC", ())]
        return plan
    if shape == "ww":
        return {
            pid: [
                ("start", ()),
                ("write", (variables[pid % len(variables)], pid + 1)),
                ("tryC", ()),
            ]
            for pid in range(n)
        }
    if shape == "rmw":
        return {
            pid: [
                ("start", ()),
                ("read", (variables[pid % len(variables)],)),
                ("write", (variables[(pid + 1) % len(variables)], pid + 1)),
                ("tryC", ()),
            ]
            for pid in range(n)
        }
    if shape == "ro":
        reads = [("read", (variable,)) for variable in variables]
        return {pid: [("start", ())] + reads + [("tryC", ())] for pid in range(n)}
    if shape == "deep":
        plan = {
            0: [
                ("start", ()),
                ("write", (first, 1)),
                ("tryC", ()),
                ("start", ()),
                ("read", (last,)),
                ("tryC", ()),
            ]
        }
        for pid in range(1, n):
            plan[pid] = [("start", ()), ("read", (first,)), ("tryC", ())]
        return plan
    raise UsageError(f"unknown TM plan shape {shape!r}")


def _propose_plan(pattern: str, n: int) -> InvocationPlan:
    """Consensus proposal plans: who proposes which value."""
    proposals = {
        "asc": lambda pid: pid,
        "desc": lambda pid: n - 1 - pid,
        "same": lambda pid: 1,
        "alt": lambda pid: pid % 2,
        "ones": lambda pid: 0 if pid == 0 else 1,
    }
    try:
        proposal = proposals[pattern]
    except KeyError:
        raise unknown_choice("proposal pattern", pattern, proposals) from None
    return {pid: [("propose", (proposal(pid),))] for pid in range(n)}


def _lock_plan(n: int, rounds: int) -> InvocationPlan:
    return {
        pid: [("acquire", ()), ("release", ())] * rounds for pid in range(n)
    }


# ---------------------------------------------------------------------------
# The shipped families
# ---------------------------------------------------------------------------

_TM_IMPLS: Dict[str, Callable[[int, Tuple[int, ...]], Any]] = {
    "agp": lambda n, vs: AgpTransactionalMemory(n, variables=vs),
    "global-lock": lambda n, vs: GlobalLockTransactionalMemory(n, variables=vs),
    "i12": lambda n, vs: I12TransactionalMemory(n, variables=vs),
    "intent": lambda n, vs: IntentTransactionalMemory(n, variables=vs),
    "norec": lambda n, vs: NorecTransactionalMemory(n, variables=vs),
}


def _family_tags(kind: str, family_id: str, violating: bool, exhaustible: bool):
    tags = (kind,)
    tags += (TAG_VIOLATING,) if violating else (TAG_SATISFYING,)
    tags += (TAG_FAMILY, f"family:{family_id}")
    if exhaustible:
        tags += (TAG_EXHAUSTIBLE,)
    return tags


def _build_tm_grid(impl: str, n: int, plan: str, vars: int) -> Scenario:
    variables = _variables(vars)
    factory = _TM_IMPLS[impl]
    # Measured against the default Bounds: every implementation finishes
    # the two-process rw/ww grids in seconds, while rmw/ro/deep blow the
    # configuration budget for at least one implementation.
    exhaustible = n == 2 and plan in ("rw", "ww")
    family = _FAMILIES["tm-grid"]
    return Scenario(
        scenario_id=family.instance_id(
            {"impl": impl, "n": n, "plan": plan, "vars": vars}
        ),
        factory=lambda: factory(n, variables),
        plan=_tm_plan(plan, n, variables),
        safety_factory=OpacityChecker,
        tags=_family_tags("tm", "tm-grid", False, exhaustible),
        notes=f"generated: {impl} TM, {n} processes, {plan} plan, "
        f"{vars} variable(s)",
    )


def _build_consensus_grid(impl: str, n: int, proposals: str) -> Optional[Scenario]:
    if impl == "tas" and n != 2:
        return None  # test-and-set consensus number is exactly 2
    factories = {
        "cas": CasConsensus,
        "commit-adopt": CommitAdoptConsensus,
        "silent": SilentConsensus,
        "tas": TasConsensus,
    }
    factory = factories[impl]
    family = _FAMILIES["consensus-grid"]
    return Scenario(
        scenario_id=family.instance_id(
            {"impl": impl, "n": n, "proposals": proposals}
        ),
        factory=lambda: factory(n),
        plan=_propose_plan(proposals, n),
        safety_factory=AgreementValidity,
        # Commit-adopt's round structure and the silent implementation's
        # three-process spin space both exceed the default configuration
        # budget; CAS consensus stays cheap at every grid point.
        tags=_family_tags(
            "consensus",
            "consensus-grid",
            False,
            impl != "commit-adopt" and (n == 2 or impl == "cas"),
        ),
        notes=f"generated: {impl} consensus, {n} processes, "
        f"{proposals} proposals",
    )


def _build_faulty_consensus(impl: str, n: int, proposals: str) -> Scenario:
    factories = {"inventing": InventingConsensus, "stubborn": StubbornConsensus}
    factory = factories[impl]
    family = _FAMILIES["faulty-consensus"]
    return Scenario(
        scenario_id=family.instance_id(
            {"impl": impl, "n": n, "proposals": proposals}
        ),
        factory=lambda: factory(n),
        plan=_propose_plan(proposals, n),
        safety_factory=AgreementValidity,
        tags=_family_tags("consensus", "faulty-consensus", True, True),
        expect_violation=True,
        notes=f"generated negative fixture: {impl} consensus, {n} "
        f"processes, {proposals} proposals",
    )


def _build_lock_mutex(impl: str, n: int, rounds: int) -> Scenario:
    factories = {"bakery": BakeryLock, "mcs": McsLock, "tas-lock": TasLock}
    factory = factories[impl]
    family = _FAMILIES["lock-mutex"]
    return Scenario(
        scenario_id=family.instance_id({"impl": impl, "n": n, "rounds": rounds}),
        factory=lambda: factory(n),
        plan=_lock_plan(n, rounds),
        safety_factory=MutualExclusionChecker,
        # Only the single-round two-process instances exhaust within the
        # default configuration budget (bakery/MCS spin states blow up
        # from rounds=2); the rest are fuzz-first.
        tags=_family_tags("lock", "lock-mutex", False, n == 2 and rounds == 1),
        notes=f"generated: {impl} under mutual exclusion, {n} processes, "
        f"{rounds} acquire/release round(s)",
    )


def _build_crash_tm(impl: str, vars: int, crash: str) -> Scenario:
    variables = _variables(vars)
    factory = _TM_IMPLS[impl]
    family = _FAMILIES["crash-tm"]
    return Scenario(
        scenario_id=family.instance_id(
            {"impl": impl, "vars": vars, "crash": crash}
        ),
        factory=lambda: factory(2, variables),
        plan=_tm_plan("rw", 2, variables),
        safety_factory=OpacityChecker,
        crash=crash,
        # No exhaustible tag: the crash model is the point, and the
        # exhaustive backend enumerates the crash-free space only.
        tags=_family_tags("tm", "crash-tm", False, False) + ("crash",),
        notes=f"generated: {impl} TM under injected crash {crash} "
        "(fuzz backend; opacity must survive the crash)",
    )


register_family(
    ScenarioFamily(
        family_id="tm-grid",
        description="every TM implementation x processes x plan shape x "
        "variable count, judged by opacity",
        parameters=(
            ("impl", tuple(sorted(_TM_IMPLS))),
            ("n", (2, 3)),
            ("plan", ("rw", "ww", "rmw", "ro", "deep")),
            ("vars", (1, 2)),
        ),
        builder=_build_tm_grid,
    )
)

register_family(
    ScenarioFamily(
        family_id="consensus-grid",
        description="correct consensus implementations x processes x "
        "proposal pattern, judged by agreement & validity",
        parameters=(
            ("impl", ("cas", "commit-adopt", "silent", "tas")),
            ("n", (2, 3)),
            ("proposals", ("alt", "asc", "desc", "ones", "same")),
        ),
        builder=_build_consensus_grid,
    )
)

register_family(
    ScenarioFamily(
        family_id="faulty-consensus",
        description="planted agreement/validity violations x processes x "
        "proposal pattern (negative fixtures for oracle sensitivity)",
        parameters=(
            ("impl", ("inventing", "stubborn")),
            ("n", (2, 3)),
            # Distinct-proposal patterns only: the stubborn implementation
            # violates agreement only when proposals actually differ.
            ("proposals", ("alt", "asc", "desc", "ones")),
        ),
        builder=_build_faulty_consensus,
    )
)

register_family(
    ScenarioFamily(
        family_id="lock-mutex",
        description="lock implementations x processes x acquire/release "
        "rounds, judged by mutual exclusion",
        parameters=(
            ("impl", ("bakery", "mcs", "tas-lock")),
            ("n", (2, 3)),
            ("rounds", (1, 2, 3)),
        ),
        builder=_build_lock_mutex,
    )
)

register_family(
    ScenarioFamily(
        family_id="crash-tm",
        description="TM implementations x variable count x injected crash "
        "pattern (fuzz backend: opacity under crashes)",
        parameters=(
            ("impl", tuple(sorted(_TM_IMPLS))),
            ("vars", (1, 2)),
            ("crash", ("p0@3", "p0@7", "p1@5", "p0@4+p1@9")),
        ),
        builder=_build_crash_tm,
    )
)

#: Number of instances registered at import (under the current budget).
REGISTERED_INSTANCES = register_all()

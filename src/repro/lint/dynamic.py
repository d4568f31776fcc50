"""FP001's dynamic half: cross-check static footprints against a live runtime.

The static analyzer (:mod:`repro.lint.footprint`) derives, from source
alone, what each base-object primitive declares it touches.  This module
checks that derivation against reality twice:

* **Synthetic exercise** — every registered base-object class is
  constructed, each of its primitives is driven through a real
  :class:`~repro.sim.runtime.Runtime` with ``record_footprints`` on (a
  one-process probe implementation issuing exactly that primitive), and
  the recorded :class:`~repro.sim.kernel.Footprint` is reduced to the
  same ``{"mode", "cell"}`` row the static map uses.  The two maps must
  byte-match under :func:`~repro.util.hashing.canonical_json`.  The
  exercise also reads the object's state around each step: a primitive
  declared ``read`` must leave the very state object it was given, and
  any other state under a declared ``read`` is an under-approximating
  footprint even when the declaration is internally consistent —
  exactly the bug class DPOR cannot survive.

* **Catalog walk** — a seeded random walk over the ``exhaustible``
  scenario slice replays real implementations decision-by-decision with
  ``record_footprints`` on and checks every recorded step footprint
  against the static row for the touched object's class.  This ties the
  static map to the objects the verification backends actually explore,
  not just to what the probe can construct.

Everything here is deterministic: probe argument discovery is ordered,
the catalog walk uses an explicitly seeded rng, and maps are compared as
canonical JSON.
"""

from __future__ import annotations

import inspect
import random

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.base_objects.base import BaseObject, ObjectPool
from repro.core.object_type import ObjectType, OperationSignature
from repro.sim.drivers import InvokeDecision, StepDecision
from repro.sim.kernel import Implementation, Op
from repro.sim.runtime import Runtime
from repro.util.hashing import canonical_json

#: Argument tuples tried, in order, when discovering a valid call shape
#: for a primitive.  Covers every shipped signature: niladic, one index,
#: index+value, and string-keyed forms.
CANDIDATE_ARGS: Tuple[Tuple[Any, ...], ...] = (
    (),
    (0,),
    (0, 1),
    (1, 2),
    ("k",),
    ("k", 1),
)

#: Pool name given to the probed object.
_PROBE_NAME = "probe"

#: Array-like constructors take a size; three cells is enough to make
#: keyed footprints observable.
_PROBE_SIZE = 3


def registered_classes() -> Dict[str, Type[BaseObject]]:
    """Concrete base-object classes exported by :mod:`repro.base_objects`."""
    import repro.base_objects as package

    classes: Dict[str, Type[BaseObject]] = {}
    for name in package.__all__:
        candidate = getattr(package, name)
        if (
            isinstance(candidate, type)
            and issubclass(candidate, BaseObject)
            and candidate is not BaseObject
        ):
            classes[name] = candidate
    return classes


def construct_probe(cls: Type[BaseObject]) -> BaseObject:
    """Build one instance of ``cls`` from its signature.

    ``name`` is always passed; a ``size`` parameter gets
    :data:`_PROBE_SIZE`; everything else must have a default.
    """
    signature = inspect.signature(cls.__init__)
    kwargs: Dict[str, Any] = {}
    for parameter in list(signature.parameters.values())[1:]:
        if parameter.name == "name":
            kwargs["name"] = _PROBE_NAME
        elif parameter.name == "size":
            kwargs["size"] = _PROBE_SIZE
        elif parameter.default is inspect.Parameter.empty:
            raise TypeError(
                f"{cls.__name__}.__init__ parameter {parameter.name!r} has "
                "no default; the footprint probe cannot construct it"
            )
    return cls(**kwargs)


def discover_args(
    cls: Type[BaseObject], method: str
) -> Optional[Tuple[Any, ...]]:
    """First candidate argument tuple the primitive accepts."""
    instance = construct_probe(cls)
    for args in CANDIDATE_ARGS:
        try:
            instance.step(instance.initial_state(), method, args)
        except Exception:
            continue
        return args
    return None


class _ProbeImplementation(Implementation):
    """One-process implementation issuing exactly one primitive per op."""

    name = "lint-footprint-probe"

    def __init__(self, factory, operations: Tuple[str, ...]):
        object_type = ObjectType(
            name="lint-probe",
            operations=tuple(
                OperationSignature(name=op) for op in operations
            ),
        )
        super().__init__(object_type, n_processes=1)
        self._factory = factory

    def create_pool(self) -> ObjectPool:
        return ObjectPool([self._factory()])

    def algorithm(self, pid, operation, args, memory):
        def body():
            result = yield Op(_PROBE_NAME, operation, args)
            return result

        return body()


def _footprint_row(footprint) -> Dict[str, str]:
    cells = footprint.reads or footprint.writes
    key = cells[0][1] if cells else None
    return {
        "mode": "read" if footprint.reads else "write",
        "cell": "whole" if key is None else "keyed",
    }


@dataclass
class ClassProbe:
    """Dynamic exercise result for one base-object class."""

    name: str
    rows: Dict[str, Dict[str, str]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def exercise_class(cls: Type[BaseObject]) -> ClassProbe:
    """Drive every primitive of ``cls`` through a recording runtime."""
    probe = ClassProbe(name=cls.__name__)
    try:
        methods = construct_probe(cls).methods()
    except Exception as exc:  # construction itself is part of the check
        probe.problems.append(f"{cls.__name__}: cannot construct probe: {exc}")
        return probe
    for method in methods:
        args = discover_args(cls, method)
        if args is None:
            probe.problems.append(
                f"{cls.__name__}.{method}: no candidate arguments accepted"
            )
            continue
        implementation = _ProbeImplementation(
            lambda: construct_probe(cls), tuple(methods)
        )
        runtime = Runtime(implementation, driver=None)
        runtime.record_footprints = True
        runtime.apply_decision(
            InvokeDecision(pid=0, operation=method, args=args)
        )
        state_before = runtime.pool.state_of(_PROBE_NAME)
        runtime.apply_decision(StepDecision(pid=0))
        footprint = runtime.last_footprint
        if footprint is None or footprint.kind != "step":
            probe.problems.append(
                f"{cls.__name__}.{method}: probe step recorded no primitive "
                f"footprint (kind={getattr(footprint, 'kind', None)!r})"
            )
            continue
        state_after = runtime.pool.state_of(_PROBE_NAME)
        row = _footprint_row(footprint)
        probe.rows[method] = row
        if row["mode"] == "read" and state_after is not state_before:
            probe.problems.append(
                f"{cls.__name__}.{method}{args!r}: declared mode 'read' but "
                f"step returned a new state {state_before!r} -> "
                f"{state_after!r} (footprint under-approximates; DPOR "
                "would commute a mutation)"
            )
    return probe


def dynamic_footprint_map(
    classes: Optional[Dict[str, Type[BaseObject]]] = None,
) -> Tuple[Dict[str, Dict[str, Dict[str, str]]], List[str]]:
    """``{class: {method: {"mode", "cell"}}}`` from live runtimes."""
    if classes is None:
        classes = registered_classes()
    rows: Dict[str, Dict[str, Dict[str, str]]] = {}
    problems: List[str] = []
    for name in sorted(classes):
        probe = exercise_class(classes[name])
        rows[name] = probe.rows
        problems.extend(probe.problems)
    return rows, problems


@dataclass
class FootprintParity:
    """Outcome of the static-vs-dynamic comparison."""

    static_map: Dict[str, Dict[str, Dict[str, str]]]
    dynamic_map: Dict[str, Dict[str, Dict[str, str]]]
    problems: List[str]
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems and not self.mismatches


def compare_maps(
    static_map: Dict[str, Dict[str, Dict[str, str]]],
    dynamic_map: Dict[str, Dict[str, Dict[str, str]]],
) -> List[str]:
    """Human-readable differences; empty iff the maps byte-match."""
    if canonical_json(static_map) == canonical_json(dynamic_map):
        return []
    mismatches: List[str] = []
    for name in sorted(set(static_map) | set(dynamic_map)):
        static_rows = static_map.get(name)
        dynamic_rows = dynamic_map.get(name)
        if static_rows is None:
            mismatches.append(f"{name}: dynamically probed but not in the "
                              "static map")
            continue
        if dynamic_rows is None:
            mismatches.append(f"{name}: statically derived but never "
                              "dynamically probed")
            continue
        for method in sorted(set(static_rows) | set(dynamic_rows)):
            static_row = static_rows.get(method)
            dynamic_row = dynamic_rows.get(method)
            if static_row != dynamic_row:
                mismatches.append(
                    f"{name}.{method}: static {static_row!r} != dynamic "
                    f"{dynamic_row!r}"
                )
    return mismatches


def footprint_parity() -> FootprintParity:
    """Run the full synthetic cross-check for the registered catalog."""
    from pathlib import Path

    from repro.lint.footprint import static_footprint_map

    import repro.base_objects as package

    package_dir = Path(package.__file__).parent
    sources = {
        f"base_objects/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted(package_dir.glob("*.py"))
    }
    static_map = static_footprint_map(sources)
    classes = registered_classes()
    # Compare exactly the registered classes: the static parse also sees
    # BaseObject subclasses that are not exported (there are none today).
    static_map = {
        name: rows for name, rows in static_map.items() if name in classes
    }
    dynamic_map, problems = dynamic_footprint_map(classes)
    return FootprintParity(
        static_map=static_map,
        dynamic_map=dynamic_map,
        problems=problems,
        mismatches=compare_maps(static_map, dynamic_map),
    )


# ---------------------------------------------------------------------------
# catalog walk
# ---------------------------------------------------------------------------


def crosscheck_catalog(
    static_map: Dict[str, Dict[str, Dict[str, str]]],
    sample: int = 6,
    seed: int = 0,
    max_steps: int = 160,
) -> List[str]:
    """Replay sampled ``exhaustible`` scenarios with footprint recording.

    Every recorded step footprint is checked against the static row of
    the touched object's class.  Returns mismatch messages (empty on a
    clean catalog).
    """
    from repro.scenarios import iter_scenarios

    mismatches: List[str] = []
    scenarios = list(iter_scenarios(tags="exhaustible"))
    rng = random.Random(seed)
    if sample and len(scenarios) > sample:
        scenarios = rng.sample(scenarios, sample)
    for scenario in scenarios:
        mismatches.extend(
            _walk_scenario(scenario, static_map, rng, max_steps)
        )
    return mismatches


def _walk_scenario(scenario, static_map, rng, max_steps) -> List[str]:
    mismatches: List[str] = []
    implementation = scenario.factory()
    runtime = Runtime(implementation, driver=None)
    runtime.record_footprints = True
    positions = {pid: 0 for pid in scenario.plan}
    for _ in range(max_steps):
        choices: List[Any] = []
        for pid in sorted(scenario.plan):
            state = runtime.processes[pid]
            if state.idle and positions[pid] < len(scenario.plan[pid]):
                operation, args = scenario.plan[pid][positions[pid]]
                choices.append(
                    InvokeDecision(pid=pid, operation=operation, args=args)
                )
            elif state.pending:
                choices.append(StepDecision(pid=pid))
        if not choices:
            break
        decision = rng.choice(choices)
        if isinstance(decision, InvokeDecision):
            positions[decision.pid] += 1
        runtime.apply_decision(decision)
        footprint = runtime.last_footprint
        if not isinstance(decision, StepDecision) or footprint.kind != "step":
            continue
        op = runtime.processes[decision.pid].frame.pending_op
        class_name = type(runtime.pool.get(op.obj)).__name__
        static_row = static_map.get(class_name, {}).get(op.method)
        if static_row is None:
            mismatches.append(
                f"{scenario.scenario_id}: {class_name}.{op.method} has no "
                "static footprint row"
            )
            continue
        observed = _footprint_row(footprint)
        if observed != static_row:
            mismatches.append(
                f"{scenario.scenario_id}: {class_name}.{op.method}"
                f"{op.args!r} recorded {observed!r}, static row "
                f"{static_row!r}"
            )
    return mismatches

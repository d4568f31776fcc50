"""First-class scenarios: one declarative registry, every backend.

A :class:`Scenario` is the unit of verification everywhere in this
repository: a named bundle of (implementation factory, invocation
plan, safety property, scheduler/crash policy, bounds, tags).  The
process-global registry (:func:`register` / :func:`get_scenario` /
:func:`iter_scenarios`) is populated by :mod:`repro.scenarios.catalog`
at import time, and the :func:`verify` facade runs any scenario under
any backend — the exhaustive snapshot engine or the swarm-mutated
fuzzer — returning one uniform :class:`Verdict` (holds / violated /
budget-exhausted, stats, a replayable counterexample trace).

Consumers: the experiment evaluators (:mod:`repro.analysis`), the fuzz
CLI and differential oracle, campaign grids (cells reference scenarios
by id), and ``python -m repro scenarios list`` / ``verify``.
"""

from repro.scenarios.scenario import (
    OUTCOMES,
    TAG_EXHAUSTIBLE,
    TAG_FAMILY,
    TAG_LIVENESS,
    TAG_SATISFYING,
    TAG_SMALL,
    TAG_VIOLATING,
    Bounds,
    Scenario,
    Verdict,
)
from repro.scenarios.registry import (
    get_scenario,
    iter_scenarios,
    register,
    scenario_ids,
    unregister,
)
from repro.scenarios.verify import (
    BACKENDS,
    EXHAUSTIVE_ONLY_OVERRIDES,
    FUZZ_ONLY_OVERRIDES,
    resolve_backend,
    verify,
)
from repro.scenarios import catalog as _catalog  # populate the registry
from repro.scenarios.families import (  # expand the generated families
    ScenarioFamily,
    family_ids,
    get_family,
    iter_families,
    materialize,
    register_family,
)

__all__ = [
    "BACKENDS",
    "EXHAUSTIVE_ONLY_OVERRIDES",
    "FUZZ_ONLY_OVERRIDES",
    "Bounds",
    "OUTCOMES",
    "Scenario",
    "ScenarioFamily",
    "TAG_EXHAUSTIBLE",
    "TAG_FAMILY",
    "TAG_LIVENESS",
    "TAG_SATISFYING",
    "TAG_SMALL",
    "TAG_VIOLATING",
    "Verdict",
    "family_ids",
    "get_family",
    "get_scenario",
    "iter_families",
    "iter_scenarios",
    "materialize",
    "register",
    "register_family",
    "resolve_backend",
    "scenario_ids",
    "unregister",
    "verify",
]

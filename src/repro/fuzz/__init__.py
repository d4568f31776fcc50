"""Randomized schedule/crash fuzzing over the simulation kernel.

The randomized counterpart of the exhaustive exploration engine: where
:mod:`repro.sim.explore` enumerates every schedule of an invocation
plan, this subsystem *samples* schedules, crash patterns, and swarm-
mutated schedulers at high rate — opening the large-instance regime
exhaustive search cannot reach, while the differential oracle keeps the
two layers honest against each other on small instances.

Fuzz targets are the declarative scenarios of :mod:`repro.scenarios`
(one registry feeding both backends); this package stays *below* the
scenario layer and takes scenario objects as plain inputs.

* :mod:`repro.fuzz.driver` — :class:`FuzzDriver`: snapshot-restart
  sampling with swarm scheduler mutation, crash-point injection, and
  restarts from a reservoir corpus of visited states;
* :mod:`repro.fuzz.shrink` — ddmin minimization of violating schedules
  to locally minimal traces, each candidate replayed from a snapshot of
  the witness's prefix it shares;
* :mod:`repro.fuzz.trace` — the JSON replay artifacts (schedule
  counterexamples and the liveness backend's lasso certificates),
  replayed through the plain :mod:`repro.sim.runtime` (independent of
  the engine);
* :mod:`repro.fuzz.oracle` — fuzz-vs-exhaustive verdict comparison.
"""

from repro.fuzz.driver import FuzzDriver, FuzzReport, FuzzViolation, fuzz_workload
from repro.fuzz.oracle import OracleResult, differential_check, differential_sweep
from repro.fuzz.shrink import ShrinkResult, shrink_schedule
from repro.fuzz.trace import (
    LassoTrace,
    ReplayResult,
    ReplayTrace,
    decisions_to_labels,
    labels_to_decisions,
    load_lasso_trace,
    load_trace,
    replay_schedule,
    save_lasso_trace,
    save_trace,
    schedule_to_decisions,
)

__all__ = [
    "FuzzDriver",
    "FuzzReport",
    "FuzzViolation",
    "LassoTrace",
    "OracleResult",
    "ReplayResult",
    "ReplayTrace",
    "ShrinkResult",
    "decisions_to_labels",
    "differential_check",
    "differential_sweep",
    "fuzz_workload",
    "labels_to_decisions",
    "load_lasso_trace",
    "load_trace",
    "replay_schedule",
    "save_lasso_trace",
    "save_trace",
    "schedule_to_decisions",
    "shrink_schedule",
]

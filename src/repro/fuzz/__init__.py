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

Import from those modules: the package loads none of them.
"""

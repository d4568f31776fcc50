"""repro — reproduction of Bushkov & Guerraoui, "Safety-Liveness
Exclusion in Distributed Computing" (PODC 2015).

Subpackages
-----------
``repro.core``
    Events, histories, object types, safety/liveness property
    framework, the ``(l,k)``-freedom family, adversary sets, exclusion
    reports.
``repro.base_objects``
    Atomic hardware primitives (registers, CAS, TAS, snapshot, ...).
``repro.sim``
    Deterministic discrete-event simulator of asynchronous shared
    memory: drivers, schedulers, workloads, crash plans, lassos.
``repro.objects``
    Shared-object types and safety checkers (consensus agreement &
    validity, opacity, strict serializability, mutual exclusion,
    k-set agreement, the Section 5.3 property ``S``).
``repro.algorithms``
    Implementations under evaluation: register/CAS/TAS consensus,
    AGP and Algorithm 1 (``I(1,2)``) TMs, trivial/blocking/intent TMs,
    bakery and TAS locks.
``repro.adversaries``
    The paper's adversary strategies as drivers, plus the mechanised
    valency schedule search.
``repro.setmodel``
    Exact finite set-theoretic models of Theorems 4.4/4.9.
``repro.scenarios``
    The declarative scenario registry and the uniform ``verify()``
    facade over the exhaustive and fuzz backends.
``repro.analysis``
    The experiment registry: one claim evaluator per
    table/figure/theorem.

Importing ``repro`` loads none of these subpackages: import names
from the module that defines them (or from ``repro.sim``,
``repro.base_objects`` and ``repro.scenarios``, which re-export).

Quickstart
----------
>>> from repro.analysis import run_experiment
>>> result = run_experiment("thm44")
>>> result.all_ok
True
>>> from repro.scenarios import verify
>>> verify("agp-opacity", backend="exhaustive").outcome
'holds'
"""

__version__ = "1.1.0"

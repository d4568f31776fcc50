"""The verdict-cache key contract: one hash per (what, how, which code).

A ``verify()`` call is memoizable because every input that can change
its verdict document is either declarative (the scenario's plan, crash
model, bounds, expectations), an explicit override, or the code itself.
The cache key is therefore the SHA-256
(:func:`repro.util.hashing.canonical_fingerprint`) of::

    {
      "schema": "repro-verdict-key", "version": 1,
      "scenario": <scenario fingerprint>,   # see scenario_fingerprint()
      "backend": "exhaustive",              # the *resolved* backend
      "overrides": {...},                   # normalized() values, sorted keys
      "code": "1.1.0"                       # code_version()
    }

Design notes:

* The **scenario fingerprint** hashes the scenario's declarative
  content — id, plan (in the replay-trace encoding), crash model,
  bounds, expectations, tags — not its factories.  Implementation code
  is not introspectable into a stable hash; changes to it are covered
  by the coarser *code-version* component instead.
* **Overrides** pass through :func:`repro.util.hashing.normalized`:
  ``--set seed=1`` and ``seed=1.0`` hash identically, and insertion
  order never matters (canonical JSON sorts keys).
* ``backend`` is the backend verify *resolved* (never ``"auto"``): an
  auto call and an explicit call that run the same search share a
  cache line.
* The **code version** is the package version
  (:data:`repro.__version__`) plus an optional ``REPRO_CACHE_EPOCH``
  suffix — bump the env var to invalidate every cached verdict without
  releasing, e.g. after changing an algorithm under test.  ``cache gc``
  evicts entries whose code component no longer matches.
"""

from __future__ import annotations

import os

from typing import Any, Dict, Mapping, Optional

from repro.util.hashing import canonical_fingerprint, normalized

CACHE_KEY_SCHEMA = "repro-verdict-key"
CACHE_KEY_VERSION = 1

#: Environment override appended to the code-version component; bumping
#: it invalidates every cached verdict without a package release.
CACHE_EPOCH_ENV = "REPRO_CACHE_EPOCH"


def code_version() -> str:
    """The cache key's code-version component.

    ``<package version>`` or ``<package version>+epoch:<REPRO_CACHE_EPOCH>``
    when the env override is set (any non-empty string; it is an opaque
    invalidation token, not a number).
    """
    from repro import __version__

    epoch = os.environ.get(CACHE_EPOCH_ENV, "").strip()
    return f"{__version__}+epoch:{epoch}" if epoch else __version__


def _plain(value: Any) -> Any:
    """Tuples to lists, recursively (the replay-trace plan encoding)."""
    if isinstance(value, (tuple, list)):
        return [_plain(part) for part in value]
    return value


def scenario_payload(scenario: Any) -> Dict[str, Any]:
    """The declarative content of a scenario that the key hashes.

    Everything that changes the verified search space without touching
    code: the plan (in the same ``{pid: [[op, args], ...]}`` shape the
    replay-trace artifact uses), the crash model, the default bounds,
    the declared expectations, and the tags (``auto`` resolution reads
    them).  Factories are deliberately absent — see the module
    docstring.
    """
    bounds = scenario.bounds
    return {
        "id": scenario.scenario_id,
        "plan": {
            str(pid): [[op, _plain(args)] for op, args in ops]
            for pid, ops in sorted(scenario.plan.items())
        },
        "crash": scenario.crash,
        "bounds": {
            "max_depth": bounds.max_depth,
            "iterations": bounds.iterations,
            "max_configurations": bounds.max_configurations,
            "horizon": bounds.horizon,
        },
        "expect_violation": scenario.expect_violation,
        "expect_liveness_violation": scenario.expect_liveness_violation,
        "tags": sorted(scenario.tags),
    }


def scenario_fingerprint(scenario: Any) -> str:
    """SHA-256 of the canonical JSON of :func:`scenario_payload`."""
    return canonical_fingerprint(scenario_payload(scenario))


def normalize_overrides(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Override canonicalisation for hashing: integral floats collapse
    to ints, tuples to lists, keys to strings (order is irrelevant —
    the canonical encoding sorts).  ``verify()`` still *executes* with
    the caller's raw values; only the cache identity is normalised."""
    return {str(key): normalized(value) for key, value in overrides.items()}


def cache_key(
    scenario: Any,
    backend: str,
    overrides: Mapping[str, Any],
    code: Optional[str] = None,
) -> str:
    """The content address of one verify call (the cache's primary key).

    ``backend`` must be the resolved backend (``verify()`` resolves
    ``"auto"`` before keying).  ``code=None`` uses :func:`code_version`.
    """
    return fingerprint_key(scenario_fingerprint(scenario), backend, overrides, code)


def fingerprint_key(
    fingerprint: str,
    backend: str,
    overrides: Mapping[str, Any],
    code: Optional[str] = None,
) -> str:
    """:func:`cache_key` from an already computed scenario fingerprint
    (the service memoizes fingerprints of registered scenarios)."""
    return canonical_fingerprint(
        {
            "schema": CACHE_KEY_SCHEMA,
            "version": CACHE_KEY_VERSION,
            "scenario": fingerprint,
            "backend": backend,
            "overrides": normalize_overrides(overrides),
            "code": code if code is not None else code_version(),
        }
    )

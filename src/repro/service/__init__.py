"""Verification as a service: verdict cache + asyncio HTTP service.

Two layers (docs/architecture.md, "Service layer"):

* a **content-addressed verdict cache** (:mod:`repro.service.cache`,
  :mod:`repro.service.keys`): one SQLite WAL file mapping
  ``SHA-256(scenario fingerprint × backend × normalized overrides ×
  code version)`` to full verdict documents plus replayable
  counterexample/lasso artifacts by hash.  ``verify(cache="read" |
  "readwrite")`` consults it; the CLI (``verify --cache``) and the
  campaign worker pool (``campaign run --cache``) share the same file;
* an **asyncio HTTP service** (:mod:`repro.service.app`,
  :mod:`repro.service.server`), ``python -m repro serve``: submit a
  verify request (``POST /v1/verify`` — cache hits answer inline),
  poll it (``GET /v1/verify/{id}``), fetch verdicts and artifacts by
  content address (``GET /v1/verdicts/{key}``,
  ``GET /v1/artifacts/{hash}``), read server metrics
  (``GET /v1/metrics``, a ``repro-metrics`` v1 document).  Cold
  verdicts fan out to a bounded process-pool executor whose workers
  run ``verify(cache="readwrite")``.

This ``__init__`` deliberately exports only the cache layer:
:mod:`repro.scenarios.verify` imports it lazily on the cache path, and
pulling :mod:`repro.service.app` here would close an import cycle
(app → scenarios → verify → service).  Import the HTTP layer
explicitly (``from repro.service.server import serve``).
"""

from repro.service.cache import (
    CACHE_MODES,
    DEFAULT_CACHE_DB,
    CorruptCacheEntry,
    VerdictCache,
    artifact_hash,
    check_cache_mode,
    default_cache_path,
)
from repro.service.keys import (
    CACHE_KEY_SCHEMA,
    CACHE_KEY_VERSION,
    cache_key,
    code_version,
    normalize_overrides,
    scenario_fingerprint,
)

__all__ = [
    "CACHE_KEY_SCHEMA",
    "CACHE_KEY_VERSION",
    "CACHE_MODES",
    "DEFAULT_CACHE_DB",
    "CorruptCacheEntry",
    "VerdictCache",
    "artifact_hash",
    "cache_key",
    "check_cache_mode",
    "code_version",
    "default_cache_path",
    "normalize_overrides",
    "scenario_fingerprint",
]

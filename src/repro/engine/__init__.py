"""The unified exploration engine.

One subsystem for every exhaustive search the repository performs:

* :mod:`repro.engine.frontier` — the generic deduplicated
  :class:`~repro.engine.frontier.GraphSearch` (breadth or depth first
  over one deque);
* :mod:`repro.engine.config` — snapshot/restore of kernel
  configurations, replacing per-node O(depth) replay with incremental
  restore (replay remains available behind the same interface);
* :mod:`repro.engine.explorer` — :class:`KernelExplorer`, the
  configuration-graph search used by history exploration and the
  valency search, with a parity mode asserting snapshot ≡ replay;
* :mod:`repro.engine.batch` — batched execution of independent plays
  for the experiment batteries, on a process pool when asked.

Exhaustive searches are serial: they scale through partial-order
reduction (:mod:`repro.engine.dpor`), not through more processes.

See ``docs/architecture.md`` for the determinism/fingerprint contract
all of this rests on.
"""

from repro.engine.batch import PlayTask, default_parallelism, run_play_batch
from repro.engine.config import (
    ImplementationFactory,
    KernelConfig,
    KernelSnapshot,
    ProcessSnapshot,
)
from repro.engine.explorer import (
    ConfigVisit,
    EngineParityError,
    KernelExplorer,
)
from repro.engine.frontier import GraphSearch, SearchBudgetExceeded, Visit

__all__ = [
    "ConfigVisit",
    "EngineParityError",
    "GraphSearch",
    "ImplementationFactory",
    "KernelConfig",
    "KernelExplorer",
    "KernelSnapshot",
    "PlayTask",
    "ProcessSnapshot",
    "SearchBudgetExceeded",
    "Visit",
    "default_parallelism",
    "run_play_batch",
]

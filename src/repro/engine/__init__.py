"""The unified exploration engine.

One subsystem for every exhaustive search the repository performs:

* :mod:`repro.engine.config` — snapshot/restore of kernel
  configurations, replacing per-node O(depth) replay with incremental
  restore (replay remains available behind the same interface);
* :mod:`repro.engine.explorer` — :class:`KernelExplorer`, the one
  deduplicated, budgeted, depth-bounded search loop (breadth or depth
  first over one deque) over kernel configuration graphs, used by
  history exploration and the valency search, with a parity mode
  asserting snapshot ≡ replay;
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
    SearchBudgetExceeded,
)

__all__ = [
    "ConfigVisit",
    "EngineParityError",
    "ImplementationFactory",
    "KernelConfig",
    "KernelExplorer",
    "KernelSnapshot",
    "PlayTask",
    "ProcessSnapshot",
    "SearchBudgetExceeded",
    "default_parallelism",
    "run_play_batch",
]

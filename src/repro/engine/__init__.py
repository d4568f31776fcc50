"""The unified exploration engine.

One subsystem for every exhaustive search the repository performs:

* :mod:`repro.engine.config` — snapshot/restore of kernel
  configurations, replacing per-node O(depth) replay with incremental
  restore (replay remains available behind the same interface);
* :mod:`repro.engine.explorer` — :class:`KernelExplorer`, the one
  deduplicated, budgeted, depth-bounded search loop (breadth or depth
  first over one deque) over kernel configuration graphs, used by
  history exploration and the valency search, with a parity mode
  asserting snapshot ≡ replay.

Exhaustive searches are serial: they scale through partial-order
reduction (:mod:`repro.engine.dpor`), not through more processes.

Import from those modules: the package loads none of them.

See ``docs/architecture.md`` for the determinism/fingerprint contract
all of this rests on.
"""

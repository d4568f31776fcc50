"""Batched execution of simulation plays (the battery fast path).

The grid experiments (:mod:`repro.analysis.experiments`) run *batteries*
— dozens of independent driver-vs-implementation plays whose results are
only combined at classification time.  Routing them through one batch
entry point buys two things: every battery automatically benefits from
the engine's process-pool parallelism (plays are embarrassingly
parallel), and the batteries stop hand-rolling their own run loops.

Worker context travels by ``fork`` inheritance because play factories
are arbitrary closures, which cannot be pickled; without
``fork`` (or with ``processes <= 1``) the batch runs serially in-process
with identical results.
"""

from __future__ import annotations

import multiprocessing

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.drivers import Driver
from repro.util.params import env_int
from repro.sim.kernel import Implementation
from repro.sim.record import RunResult
from repro.sim.runtime import play


@dataclass(frozen=True)
class PlayTask:
    """One independent play: fresh implementation vs fresh driver.

    Factories rather than instances so every execution — local or in a
    forked worker — gets untouched state.
    """

    key: str
    label: str
    implementation_factory: Callable[[], Implementation]
    driver_factory: Callable[[], Driver]
    max_steps: int = 100_000

    def execute(self) -> RunResult:
        return play(
            self.implementation_factory(),
            self.driver_factory(),
            max_steps=self.max_steps,
        )


#: Fork-inherited task list (see module docstring).
_BATCH_TASKS: List[PlayTask] = []


def _run_indexed(index: int) -> RunResult:
    return _BATCH_TASKS[index].execute()


def default_parallelism() -> int:
    """Worker count from ``REPRO_ENGINE_PARALLEL`` (0 = serial).

    Negative values clamp to 0 (serial); a non-integer value raises
    :class:`~repro.util.errors.UsageError` rather than being silently
    ignored (the shared ``REPRO_*`` env grammar of
    :func:`repro.util.params.env_int`).
    """
    return env_int("REPRO_ENGINE_PARALLEL", default=0, minimum=0)


def run_play_batch(
    tasks: Sequence[PlayTask], processes: Optional[int] = None
) -> List[RunResult]:
    """Execute every task; results align with the input order.

    ``processes=None`` consults :func:`default_parallelism`, so setting
    ``REPRO_ENGINE_PARALLEL=4`` parallelises every battery in the
    repository without touching call sites.
    """
    if processes is None:
        processes = default_parallelism()
    tasks = list(tasks)
    use_pool = (
        processes > 1
        and len(tasks) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    if not use_pool:
        return [task.execute() for task in tasks]
    _BATCH_TASKS.clear()
    _BATCH_TASKS.extend(tasks)
    with multiprocessing.get_context("fork").Pool(
        min(processes, len(tasks))
    ) as pool:
        return pool.map(_run_indexed, range(len(tasks)))

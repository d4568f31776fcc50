"""A deliberately broken base object: an undeclared write under a
declared read.

``BrokenCounter.get`` has fetch-and-increment semantics — it returns the
count *and* steps to the bumped one — while ``footprint()`` declares
``("read", None)``.  That under-approximation is exactly the bug class FP001
exists for: DPOR treats two ``get`` steps of different processes as
independent (read/read on the same object commutes), explores one
representative order, and silently loses the interleaving where the
other process saw the smaller value.

``FixedCounter`` is the honest control: identical semantics, footprint
declared as the default whole-object write.

This module is linted as a *fixture* (never imported by the package);
``tests/test_lint.py`` asserts that FP001 flags the broken class
statically, that the dynamic probe catches the state change under a
declared read, and that ``reduction="dpor-parity"`` catches the same
bug as a verdict divergence at exploration time.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.base_objects import BaseObject, ObjectPool
from repro.core.history import History
from repro.core.object_type import ObjectType, OperationSignature
from repro.core.properties import SafetyProperty, Verdict
from repro.sim.kernel import Implementation, Op

OBJ = "broken"


class BrokenCounter(BaseObject):
    """Fetch-and-increment that lies about being a read."""

    def methods(self) -> Tuple[str, ...]:
        return ("get",)

    def initial_state(self):
        return ("broken-counter", 0)

    def step(self, state, method: str, args: Tuple[Any, ...]):
        if method == "get":
            count = state[1]
            return count, ("broken-counter", count + 1)
        return self._reject(method)

    def footprint(self, method, args):
        # The lie: a mutation declared as a whole-object read.
        return ("read", None)


class FixedCounter(BrokenCounter):
    """Same semantics, honest declaration (the conservative default)."""

    def footprint(self, method, args):
        return ("write", None)


def _counter_object_type() -> ObjectType:
    return ObjectType(
        name="lint-broken-counter",
        operations=(OperationSignature(name="get"),),
    )


class CounterImplementation(Implementation):
    """Two processes, one ``get`` each, one primitive per operation."""

    name = "lint-broken-counter"

    def __init__(self, counter_class=BrokenCounter, n_processes: int = 2):
        super().__init__(_counter_object_type(), n_processes)
        self._counter_class = counter_class

    def create_pool(self) -> ObjectPool:
        return ObjectPool([self._counter_class(OBJ)])

    def algorithm(self, pid, operation, args, memory):
        def body():
            value = yield Op(OBJ, operation, args)
            return value

        return body()


#: The two-process plan whose interleavings the parity test explores.
PLAN = {0: [("get", ())], 1: [("get", ())]}


class OverlapGetsZero(SafetyProperty):
    """When the two ``get`` operations overlap, ``pid``'s returns 0.

    Sequential (non-overlapping) histories are unconstrained, so the
    property is sensitive *only* to the order of the two primitive
    steps inside the overlap window — exactly the order the broken
    read/read declaration makes DPOR prune.  Prefix-closed: overlap and
    a non-zero response can only appear, never disappear, in prefixes
    extended to the full history.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.name = f"overlap-p{pid}-gets-zero"

    def check_history(self, history: History) -> Verdict:
        pending = set()
        overlapped = False
        for event in history:
            kind = type(event).__name__
            if kind == "Invocation":
                pending.add(event.process)
                overlapped = overlapped or len(pending) > 1
            elif kind == "Response":
                pending.discard(event.process)
                if (
                    overlapped
                    and event.process == self.pid
                    and event.value != 0
                ):
                    return Verdict(
                        holds=False,
                        reason=(
                            f"overlapping gets but p{self.pid} got "
                            f"{event.value!r}"
                        ),
                    )
        return Verdict(holds=True)

"""Mutual exclusion as a safety property over lock histories.

The lock object type (:mod:`repro.algorithms.locks.lock_type`) has no
sequential specification — linearizability is the wrong judge for a
lock, whose whole point is the *temporal* exclusion between the grant
and the release.  This checker decides the classic condition directly:
no two processes may hold the lock at the same time, where a process
holds the lock from the response to its ``acquire`` until it *invokes*
``release`` (the invocation, not the response: a correct lock may grant
the next waiter while the releaser's response is still in flight, and
that overlap is not a violation).

A crashed process stops holding the lock at its crash event — a crash
inside the critical section cannot retroactively create an exclusion
violation, it just (for blocking locks) starves everyone else, which is
a liveness matter outside this property's scope.

Prefix closure: the checker scans the event sequence and fails at the
first moment two processes hold simultaneously; extensions of a failing
history keep that moment, so the verdict is monotone.
"""

from __future__ import annotations

from typing import Set

from repro.core.events import Crash, Invocation, Response
from repro.core.history import History
from repro.core.properties import SafetyProperty, Verdict


class MutualExclusionChecker(SafetyProperty):
    """No two overlapping critical sections, ever."""

    name = "mutual-exclusion"

    def check_history(self, history: History) -> Verdict:
        holding: Set[int] = set()
        for index, event in enumerate(history):
            if isinstance(event, Response) and event.operation == "acquire":
                holding.add(event.process)
                if len(holding) > 1:
                    inside = ", ".join(f"p{pid}" for pid in sorted(holding))
                    return Verdict.failed(
                        f"mutual exclusion violated at event {index}: "
                        f"{inside} hold the lock simultaneously",
                        witness=history,
                    )
            elif isinstance(event, Invocation) and event.operation == "release":
                holding.discard(event.process)
            elif isinstance(event, Crash):
                holding.discard(event.process)
        return Verdict.passed("no overlapping critical sections")

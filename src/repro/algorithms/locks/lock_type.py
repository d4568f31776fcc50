"""Mutual-exclusion lock object type.

Used by the progress-taxonomy examples: starvation-freedom — "every
correct process that tries to acquire a lock should eventually
succeed" — is Section 3.2's example of the strongest liveness
requirement for lock-based implementations, so the registry carries two
lock implementations on opposite sides of it.

Operations: ``acquire()`` → ``GRANTED``, ``release()`` → ``RELEASED``.
Progress is the ``REPEATED`` receipt of ``GRANTED`` responses.
"""

from __future__ import annotations

from repro.core.object_type import ObjectType, OperationSignature, ProgressMode

#: Response to a successful acquisition.
GRANTED = "granted"
#: Response to a release.
RELEASED = "released"


def lock_object_type() -> ObjectType:
    """Build the lock object type."""
    return ObjectType(
        name="lock",
        operations=(
            OperationSignature(
                name="acquire", argument_domains=(), response_domain=(GRANTED,)
            ),
            OperationSignature(
                name="release", argument_domains=(), response_domain=(RELEASED,)
            ),
        ),
        good_response=lambda response: response.value == GRANTED,
        progress_mode=ProgressMode.REPEATED,
    )

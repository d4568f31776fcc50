"""Exception hierarchy for the repro library.

Every exception raised on purpose by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


def unknown_choice(kind: str, name: object, known) -> "UsageError":
    """A uniform lookup failure: ``UsageError`` with a did-you-mean hint.

    Every registry (scenarios, experiments, fuzz targets, backends)
    routes its unknown-key path through here so a mistyped id fails the
    same way everywhere: exit code 2 at the CLI, the close matches
    suggested, the known ids listed.
    """
    import difflib

    choices = sorted(str(choice) for choice in known)
    matches = difflib.get_close_matches(str(name), choices, n=3, cutoff=0.5)
    hint = (
        "; did you mean " + " or ".join(repr(m) for m in matches) + "?"
        if matches
        else ""
    )
    return UsageError(f"unknown {kind} {name!r}{hint} (known: {choices})")


class UsageError(ReproError):
    """The caller supplied an invalid parameter, flag, or environment
    setting.

    Raised for malformed CLI/campaign parameters (unknown registry key,
    unparsable crash pattern, bad axis range) and invalid environment
    configuration such as a non-integer ``REPRO_ENGINE_PARALLEL``.  The
    CLI maps this to exit code 2.
    """


class IllFormedHistoryError(ReproError):
    """A history violates well-formedness (Section 2 of the paper).

    Well-formedness requires that the projection of the history onto each
    process is an alternating sequence of invocations and responses starting
    with an invocation, and that no event follows a crash of the same
    process.
    """


class SpecificationError(ReproError):
    """A sequential specification rejected an operation.

    Raised when an operation is applied to a sequential-specification state
    that has no transition for it (e.g. a transactional read of a variable
    outside the declared variable set).
    """


class SimulationError(ReproError):
    """The simulation kernel was driven into an inconsistent state.

    Examples: scheduling a step for a process with no pending operation,
    invoking an operation on a pending (non-idle) process in violation of
    the one-outstanding-operation discipline, or stepping a crashed process.
    """


class AdversaryError(ReproError):
    """An adversary strategy observed a protocol violation.

    Raised when an implementation hands the adversary a response the
    adversary's strategy has no transition for (which would indicate the
    implementation violated the object type's response alphabet).
    """


class ModelError(ReproError):
    """A finite set-theoretic model (``repro.setmodel``) is inconsistent.

    Examples: a claimed safety property that is not prefix-closed, or an
    implementation whose history set is not input-enabled.
    """


class StoreError(ReproError):
    """A persistent store cannot be read or written: a row that no
    longer decodes, or a lock another process held past the busy
    timeout.

    The message names the file (and, for a corrupt row, the row).  The
    CLI prints it on one line and exits 1.
    """


def is_busy(error: Exception) -> bool:
    """Whether a ``sqlite3`` error means another connection held a lock
    past the busy timeout (``SQLITE_BUSY``/``SQLITE_LOCKED``): a fault
    of the moment, reported as :class:`StoreError`, not evidence that
    the file is not a store."""
    code = getattr(error, "sqlite_errorcode", None)  # Python >= 3.11
    if code is not None:
        return (code & 0xFF) in (5, 6)
    message = str(error)
    return "database is locked" in message or "is busy" in message

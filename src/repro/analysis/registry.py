"""Implementation registries: the finite stand-in for "all
implementations".

Definitions 4.1/4.3 quantify over every implementation of an object
type; a finite artifact can only quantify over a *registry*.  The
registries here are built to span the behavioural corners the paper's
arguments distinguish:

* consensus from registers only — obstruction-free (commit-adopt) and
  silent implementations;
* consensus from stronger primitives — CAS (wait-free) and 2-process
  TAS, the positive controls showing the corollaries are about
  registers;
* faulty consensus — agreement/validity violators, for checker
  negative tests and for verifying that exclusion machinery ignores
  implementations that do not ensure the safety property;
* TM — lock-free AGP, the paper's ``I(1,2)``, the trivial all-abort
  TM, the blocking global-lock TM, and the obstruction-free intent TM.

Every entry declares which shipped safety properties the
implementation is *designed* to ensure; experiments re-verify the
claims on generated histories rather than trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.algorithms.consensus import (
    CasConsensus,
    CommitAdoptConsensus,
    InventingConsensus,
    SilentConsensus,
    StubbornConsensus,
    TasConsensus,
)
from repro.algorithms.tm import (
    AgpTransactionalMemory,
    GlobalLockTransactionalMemory,
    I12TransactionalMemory,
    IntentTransactionalMemory,
    TrivialTransactionalMemory,
)
from repro.sim.kernel import Implementation
from repro.util.errors import UsageError

#: Safety-property labels used in ``ensures`` declarations.
AGREEMENT_VALIDITY = "agreement-validity"
OPACITY = "opacity"
COUNTEREXAMPLE_S = "S(opacity+timestamp-rule)"


@dataclass(frozen=True)
class RegistryEntry:
    """One implementation plus its metadata."""

    key: str
    factory: Callable[[], Implementation]
    base_objects: str
    ensures: Tuple[str, ...]
    notes: str = ""

    def make(self) -> Implementation:
        """A fresh implementation instance."""
        return self.factory()


def consensus_registry(
    n_processes: int = 2, registers_only: bool = False
) -> List[RegistryEntry]:
    """Consensus implementations (optionally restricted to registers).

    The register restriction is the hypothesis of Corollaries 4.5/4.10
    and Theorem 5.2.
    """
    entries: List[RegistryEntry] = [
        RegistryEntry(
            key="commit-adopt",
            factory=lambda: CommitAdoptConsensus(n_processes),
            base_objects="registers-only",
            ensures=(AGREEMENT_VALIDITY,),
            notes="obstruction-free; the (1,1) witness of Theorem 5.2",
        ),
        RegistryEntry(
            key="silent",
            factory=lambda: SilentConsensus(n_processes),
            base_objects="registers-only",
            ensures=(AGREEMENT_VALIDITY,),
            notes="never responds; Theorem 4.9's trivial implementation",
        ),
    ]
    if registers_only:
        return entries
    entries.append(
        RegistryEntry(
            key="cas",
            factory=lambda: CasConsensus(n_processes),
            base_objects="compare-and-swap",
            ensures=(AGREEMENT_VALIDITY,),
            notes="wait-free; positive control outside the register model",
        )
    )
    if n_processes == 2:
        entries.append(
            RegistryEntry(
                key="tas",
                factory=lambda: TasConsensus(2),
                base_objects="test-and-set",
                ensures=(AGREEMENT_VALIDITY,),
                notes="wait-free for 2 processes (consensus number 2)",
            )
        )
    entries.extend(
        [
            RegistryEntry(
                key="stubborn",
                factory=lambda: StubbornConsensus(n_processes),
                base_objects="registers-only",
                ensures=(),
                notes="violates agreement (negative fixture)",
            ),
            RegistryEntry(
                key="inventing",
                factory=lambda: InventingConsensus(n_processes),
                base_objects="registers-only",
                ensures=(),
                notes="violates validity (negative fixture)",
            ),
        ]
    )
    return entries


def tm_registry(
    n_processes: int = 2, variables: Sequence[int] = (0,)
) -> List[RegistryEntry]:
    """TM implementations."""
    variables = tuple(variables)
    return [
        RegistryEntry(
            key="agp",
            factory=lambda: AgpTransactionalMemory(n_processes, variables=variables),
            base_objects="compare-and-swap",
            ensures=(OPACITY,),
            notes="lock-free; the (1,n) witness of Theorem 5.3",
        ),
        RegistryEntry(
            key="i12",
            factory=lambda: I12TransactionalMemory(n_processes, variables=variables),
            base_objects="compare-and-swap + snapshot",
            ensures=(OPACITY, COUNTEREXAMPLE_S),
            notes="the paper's Algorithm 1; the (1,2) witness of Section 5.3",
        ),
        RegistryEntry(
            key="trivial",
            factory=lambda: TrivialTransactionalMemory(n_processes, variables=variables),
            base_objects="none",
            ensures=(OPACITY, COUNTEREXAMPLE_S),
            notes="aborts everything; the degenerate safe corner",
        ),
        RegistryEntry(
            key="global-lock",
            factory=lambda: GlobalLockTransactionalMemory(
                n_processes, variables=variables
            ),
            base_objects="test-and-set + register",
            ensures=(OPACITY,),
            notes="blocking; marks the non-blocking boundary",
        ),
        RegistryEntry(
            key="intent",
            factory=lambda: IntentTransactionalMemory(n_processes, variables=variables),
            base_objects="compare-and-swap + registers",
            ensures=(OPACITY,),
            notes="obstruction-free (crash-free), livelocks under contention",
        ),
    ]


def entries_ensuring(
    entries: Sequence[RegistryEntry], safety_label: str
) -> List[RegistryEntry]:
    """Registry entries declaring the given safety property."""
    return [entry for entry in entries if safety_label in entry.ensures]


def select_entries(
    entries: Sequence[RegistryEntry], keys
) -> List[RegistryEntry]:
    """Restrict a registry to the given keys (the campaign ``registry``
    axis).

    ``keys`` is a single key, a comma-separated string, or a sequence of
    keys; ``None`` selects everything.  Unknown keys raise
    :class:`~repro.util.errors.UsageError` naming the known ones, so a
    mistyped grid axis fails at init rather than producing an empty
    battery.
    """
    if keys is None:
        return list(entries)
    if isinstance(keys, str):
        keys = [part.strip() for part in keys.split(",") if part.strip()]
    known = {entry.key: entry for entry in entries}
    unknown = [key for key in keys if key not in known]
    if unknown:
        raise UsageError(
            f"unknown registry key(s) {unknown!r}; known keys: "
            f"{sorted(known)}"
        )
    return [known[key] for key in keys]

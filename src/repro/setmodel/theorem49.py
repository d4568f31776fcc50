"""Lemma 4.8 and Theorem 4.9, checked exactly on micro models.

* **Lemma 4.8** — the strongest liveness property an implementation
  ``I`` ensures is ``Lmax ∪ fair(A_I)``.  Over a finite model the set
  of liveness properties ``I`` ensures is exactly the up-set of that
  union, so the check is: the intersection of all ensured liveness
  properties equals ``Lmax ∪ fair(A_I)``, and every superset is
  ensured.

* **Theorem 4.9** — if a strongest liveness property not excluding
  ``S`` exists, it is ``Lmax``.  Equivalently: either ``Lmax`` itself
  does not exclude ``S`` (then it is trivially the strongest
  non-excluding property), or no strongest non-excluding property
  exists.  :func:`verify_theorem49` checks precisely this disjunction
  by brute force; :func:`positive_model` and :func:`negative_model`
  instantiate each branch.

The proof of Theorem 4.9 leans on two constructed implementations —
the trivial never-responding ``I_t`` and the respond-once ``I_b``.
The micro models include silent and constant policies so that the
lattice genuinely contains the behaviours the proof needs; the tests
additionally verify the proof's key step (``L_t = Lmax ∪ fair(A_{I_t})``
is not weaker than any candidate ``L_s ≠ Lmax``) on the positive model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.setmodel.model import FiniteModel, HistorySet, ImplementationModel
from repro.setmodel.theorem44 import _micro_type
from repro.setmodel.universe import (
    build_model,
    constant_policy,
    enumerate_policies,
    enumerate_universe,
    silent_policy,
)


def positive_model() -> Tuple[FiniteModel, HistorySet]:
    """A model where ``Lmax`` does not exclude ``S``.

    One process, responses ``{0, 1}``, ``S`` = "responses are 0", and a
    family containing the constant-0 policy — a wait-free
    implementation of ``S``.  The strongest non-excluding liveness
    property must exist and be ``Lmax``.
    """
    object_type = _micro_type((0, 1))
    model = build_model(
        object_type,
        processes=[0],
        policies=[constant_policy(0), constant_policy(1), silent_policy()],
        per_process_ops=1,
        name="thm49-positive",
    )
    safety = frozenset(
        h for h in model.universe if all(r.value == 0 for r in h.responses())
    )
    return model, safety


def negative_model() -> Tuple[FiniteModel, HistorySet]:
    """A model where ``Lmax`` excludes ``S`` — so by Theorem 4.9 *no*
    strongest non-excluding liveness property may exist.

    Two processes, single response value, ``S`` = "at most one response
    in total".  ``S`` is *admissible* (Section 3.1's standing
    assumption: each invocation run sequentially from the initial state
    can be answered — one lone response is allowed), which Theorem 4.9's
    proof requires; an inadmissible ``S`` such as "no responses at all"
    genuinely breaks the theorem on restricted families, and the test
    suite keeps a regression exhibit of that.

    The family is *every* context policy (16 of them), so it contains
    the proof's constructed implementations: the silent ``I_t`` and the
    respond-to-one-process-only ``I_b`` variants.  Every policy ensuring
    ``S`` must keep some process silent, hence starves it in a fair
    history — ``Lmax`` excludes ``S`` — and the minimal non-excluding
    liveness properties (``Lmax ∪ fair`` of the one-sided responders)
    are incomparable, so no strongest exists.
    """
    object_type = _micro_type((0,))
    processes = [0, 1]
    universe = enumerate_universe(object_type, processes, per_process_ops=1)
    policies = enumerate_policies(object_type, processes, universe)
    model = build_model(
        object_type,
        processes=processes,
        policies=policies,
        per_process_ops=1,
        name="thm49-negative",
    )
    safety = frozenset(h for h in model.universe if len(h.responses()) <= 1)
    return model, safety


@dataclass(frozen=True)
class Lemma48Report:
    """Lemma 4.8 on one implementation."""

    implementation: str
    candidate: HistorySet  # Lmax ∪ fair(A_I)
    candidate_is_ensured: bool
    candidate_is_strongest: bool

    @property
    def holds(self) -> bool:
        return self.candidate_is_ensured and self.candidate_is_strongest


def verify_lemma48(model: FiniteModel, impl: ImplementationModel) -> Lemma48Report:
    """Check Lemma 4.8 by enumerating the liveness lattice."""
    candidate = model.strongest_liveness_of(impl)
    ensured = impl.ensures_liveness(candidate) and model.is_liveness(candidate)
    strongest = all(
        candidate <= liveness
        for liveness in model.liveness_properties()
        if impl.ensures_liveness(liveness)
    )
    return Lemma48Report(
        implementation=impl.name,
        candidate=candidate,
        candidate_is_ensured=ensured,
        candidate_is_strongest=strongest,
    )


@dataclass(frozen=True)
class Theorem49Report:
    """Theorem 4.9 on one (model, safety) pair."""

    model_name: str
    lmax_excludes_safety: bool
    strongest_non_excluding: Optional[HistorySet]
    strongest_is_lmax: Optional[bool]

    @property
    def holds(self) -> bool:
        """The theorem's content: a strongest non-excluding property,
        when it exists, is ``Lmax``."""
        if self.strongest_non_excluding is None:
            return True
        return bool(self.strongest_is_lmax)


def verify_theorem49(model: FiniteModel, safety: HistorySet) -> Theorem49Report:
    """Evaluate Theorem 4.9 by brute force over the liveness lattice."""
    strongest = model.strongest_non_excluding(safety)
    return Theorem49Report(
        model_name=model.name,
        lmax_excludes_safety=model.excludes(model.lmax, safety),
        strongest_non_excluding=strongest,
        strongest_is_lmax=None if strongest is None else strongest == model.lmax,
    )

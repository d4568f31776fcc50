"""Theorem 4.4, checked exactly on micro models.

    There exists a weakest liveness property that excludes ``S`` iff
    ``Gmax`` (the intersection of all adversary sets w.r.t. ``Lmax``
    and ``S``) is itself an adversary set w.r.t. ``Lmax`` and ``S``.

Both directions are exercised:

* :func:`positive_model` — a one-process micro type whose only
  implementation is silent.  ``F(Lmax)`` is non-trivial, ``Gmax``
  belongs to it, and the brute-force search over the whole liveness
  lattice finds the weakest excluding property — equal to
  ``complement(Gmax)``, exactly as the theorem's proof constructs it.

* :func:`negative_model` — a two-process symmetric micro type.  The
  paper's disjointness argument applies verbatim: the set of histories
  beginning with an event of ``p0`` and the set beginning with an event
  of ``p1`` are both adversary sets, so ``Gmax ⊆ F1 ∩ F2 = ∅`` and no
  weakest excluding liveness exists — confirmed by the same brute-force
  search coming back empty-handed.

:func:`verify_theorem44` evaluates the iff for any (model, safety)
pair; the hypothesis tests sweep it over *every* prefix-closed safety
property of tiny models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.history import History
from repro.core.object_type import ObjectType, OperationSignature, ProgressMode
from repro.setmodel.model import FiniteModel, HistorySet
from repro.setmodel.universe import build_model, silent_policy


def _micro_type(responses: Tuple[object, ...]) -> ObjectType:
    """A one-operation object type with the given response domain."""
    return ObjectType(
        name="micro",
        operations=(
            OperationSignature(
                name="a", argument_domains=(), response_domain=responses
            ),
        ),
        good_response=lambda response: True,
        progress_mode=ProgressMode.EVENTUAL,
    )


def positive_model() -> Tuple[FiniteModel, HistorySet]:
    """A model in which the weakest excluding liveness *exists*.

    One process, operation ``a`` with responses ``{0, 1}``, and a
    single (silent) implementation.  ``S`` = "every response is 0" —
    prefix-closed, and ensured by the silent implementation, so
    condition (3) of Definition 4.3 has teeth.
    """
    object_type = _micro_type((0, 1))
    model = build_model(
        object_type,
        processes=[0],
        policies=[silent_policy()],
        per_process_ops=1,
        name="thm44-positive",
    )
    safety = frozenset(
        h for h in model.universe if all(r.value == 0 for r in h.responses())
    )
    return model, safety


def negative_model() -> Tuple[FiniteModel, HistorySet]:
    """A model in which no weakest excluding liveness exists.

    Two processes, symmetric operation ``a`` with the single response
    ``0``, one silent implementation, and ``S`` = the whole universe
    (the most permissive safety property, making every subset of
    ``¬Lmax`` pass conditions (1)+(2)).  The first-event argument of
    Corollaries 4.5/4.6 then yields two disjoint adversary sets.
    """
    object_type = _micro_type((0,))
    model = build_model(
        object_type,
        processes=[0, 1],
        policies=[silent_policy()],
        per_process_ops=1,
        name="thm44-negative",
    )
    safety = model.universe
    return model, safety


def first_event_adversary_sets(
    model: FiniteModel, safety: HistorySet
) -> Tuple[HistorySet, HistorySet]:
    """The paper's ``F1``/``F2`` shape inside a two-process model:
    non-``Lmax`` safe histories beginning with an event of ``p0``
    (resp. ``p1``)."""
    pool = safety & model.complement(model.lmax)
    f1 = frozenset(h for h in pool if len(h) > 0 and h[0].process == 0)
    f2 = frozenset(h for h in pool if len(h) > 0 and h[0].process == 1)
    return f1, f2


@dataclass(frozen=True)
class Theorem44Report:
    """Both sides of the iff, plus the witnessing sets."""

    model_name: str
    gmax: Optional[HistorySet]
    gmax_is_adversary_set: bool
    weakest_excluding: Optional[HistorySet]
    weakest_equals_complement_gmax: Optional[bool]

    @property
    def iff_holds(self) -> bool:
        """The theorem's biconditional, as observed on this model."""
        return self.gmax_is_adversary_set == (self.weakest_excluding is not None)


def verify_theorem44(model: FiniteModel, safety: HistorySet) -> Theorem44Report:
    """Evaluate both sides of Theorem 4.4 by enumeration."""
    gmax = model.gmax(safety)
    gmax_is_adversary = (
        gmax is not None and model.is_adversary_set(gmax, model.lmax, safety)
    )
    weakest = model.weakest_excluding(safety)
    equals_complement: Optional[bool] = None
    if weakest is not None and gmax is not None:
        equals_complement = weakest == model.complement(gmax)
    return Theorem44Report(
        model_name=model.name,
        gmax=gmax,
        gmax_is_adversary_set=gmax_is_adversary,
        weakest_excluding=weakest,
        weakest_equals_complement_gmax=equals_complement,
    )

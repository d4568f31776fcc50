"""The declarative scenario model: one instance, every backend.

A :class:`Scenario` bundles everything any verification backend needs
about one named instance — the implementation under test, the
invocation plan whose schedules are explored, and the safety property
that judges histories — plus the *policy* around it: an optional pinned
scheduler for directed fuzzing, an optional crash model, default search
bounds, and free-form tags that make the registry sliceable
(``iter_scenarios(tags="small")``).

The same ``Scenario`` is consumed by the exhaustive engine (every
schedule, a depth/configuration-bounded proof), the fuzzer (seeded
random sampling, horizon evidence), the differential oracle (both,
compared), campaign grids (by id), and the CLI.  The
:func:`~repro.scenarios.verify.verify` facade normalizes all of them to
one :class:`Verdict` shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.util.errors import UsageError

if TYPE_CHECKING:
    from repro.fuzz.trace import LassoTrace, ReplayTrace

#: The verdict outcomes every backend normalizes to.
OUTCOMES = ("holds", "violated", "budget-exhausted")

#: Tags with registry-wide meaning (free-form tags are also fine).
TAG_SMALL = "small"  #: exhaustible => oracle-eligible
TAG_VIOLATING = "violating"  #: a violation is the expected verdict
TAG_SATISFYING = "satisfying"  #: the property is expected to hold
TAG_LIVENESS = "liveness"  #: carries a liveness property (backend=liveness)
#: Generated by a :class:`~repro.scenarios.families.ScenarioFamily`.
#: Family instances are deliberately NOT tagged ``small`` — the curated
#: ``small`` slice drives the CI oracle sweep and the tier-1 round-trip
#: tests, and hundreds of generated instances would swamp both.
TAG_FAMILY = "family"
#: A family instance cheap enough for an exhaustive proof; the sampled
#: family differential tests draw from this slice (the family-layer
#: analogue of ``small`` without its CI weight).
TAG_EXHAUSTIBLE = "exhaustible"


@dataclass(frozen=True)
class Bounds:
    """Default search budgets of a scenario (overridable per call).

    ``max_depth`` bounds schedule length on both backends;
    ``iterations`` is the fuzz sampling budget; ``max_configurations``
    is the exhaustive engine's unique-configuration budget (exceeding
    it yields a ``budget-exhausted`` verdict, never a silent
    truncation).
    """

    max_depth: int = 64
    iterations: int = 2_000
    max_configurations: int = 200_000
    #: Step horizon of the liveness backend: runs neither lassoed nor
    #: fairly finished by here are classified as horizon evidence.
    #: Separate from ``max_depth`` because starvation cycles need far
    #: longer runs than schedule-space sampling does.
    horizon: int = 2_000

    def override(self, **changes: Any) -> "Bounds":
        """A copy with the given fields replaced (None values ignored)."""
        return replace(
            self, **{k: v for k, v in changes.items() if v is not None}
        )


@dataclass(frozen=True)
class Scenario:
    """One named, declarative verification instance (see module doc)."""

    scenario_id: str
    #: Fresh-implementation factory (the object under test).
    factory: Callable[[], Any]
    #: The invocation plan whose interleavings are explored/sampled.
    plan: Any  # InvocationPlan; kept loose for frozen-dataclass typing
    #: Fresh-property factory (the checker judging each history).
    safety_factory: Callable[[], Any]
    #: Optional pinned scheduler factory: when given, fuzz exploration
    #: walks use it instead of mutating random swarms (directed fuzzing).
    scheduler_factory: Optional[Callable[[], Any]] = None
    #: Optional crash model (``parse_crash_spec`` grammar, e.g.
    #: ``"p0@40"``) applied by the fuzz backend unless overridden.
    crash: Optional[str] = None
    bounds: Bounds = field(default_factory=Bounds)
    tags: Tuple[str, ...] = ()
    #: Whether the expected verdict is a violation (planted fixtures).
    expect_violation: bool = False
    notes: str = ""
    #: Optional fresh-liveness-property factory
    #: (:class:`~repro.core.properties.LivenessProperty`); required by
    #: ``backend="liveness"``, ignored by the safety backends.
    liveness_factory: Optional[Callable[[], Any]] = None
    #: Optional adversary strategy factory
    #: (:class:`~repro.sim.drivers.Driver`): when given, the liveness
    #: backend plays this strategy; when ``None`` it branches over every
    #: scheduler choice of :attr:`plan` instead.
    adversary_factory: Optional[Callable[[], Any]] = None
    #: The liveness backend's expected verdict — independent of
    #: :attr:`expect_violation`, which judges the *safety* backends (the
    #: paper's core cases are exactly the safety-holds /
    #: liveness-violated combinations).
    expect_liveness_violation: bool = False

    def __post_init__(self) -> None:
        if not self.scenario_id or not isinstance(self.scenario_id, str):
            raise UsageError(
                f"scenario id must be a non-empty string, got "
                f"{self.scenario_id!r}"
            )

    # -- derived views ------------------------------------------------------

    @property
    def name(self) -> str:
        """Alias for :attr:`scenario_id` (the former ``FuzzWorkload``
        field name; the fuzz driver and trace artifacts use it)."""
        return self.scenario_id

    @property
    def small(self) -> bool:
        """Small enough to exhaust — eligible for the exhaustive
        backend's full proof and therefore for the differential
        oracle."""
        return TAG_SMALL in self.tags

    def has_tags(self, wanted) -> bool:
        """Whether every tag in ``wanted`` (a string or an iterable of
        strings) is present."""
        if isinstance(wanted, str):
            wanted = (wanted,)
        return all(tag in self.tags for tag in wanted)

    def describe(self) -> Dict[str, str]:
        """The catalog row: id, object, property, tags, notes.

        Instantiates the factories (implementations are stateless and
        cheap by the kernel's determinism contract) to report the real
        registered names rather than repeating the id.
        """
        prop = getattr(self.safety_factory(), "name", "?")
        if self.liveness_factory is not None:
            prop += " + " + getattr(self.liveness_factory(), "name", "?")
        return {
            "id": self.scenario_id,
            "object": getattr(self.factory(), "name", "?"),
            "property": prop,
            "tags": ", ".join(self.tags),
            "notes": self.notes,
        }


@dataclass
class Verdict:
    """The uniform outcome every backend reduces to.

    ``outcome`` is one of :data:`OUTCOMES`: the property held over the
    explored/sampled space, a genuine violation was found (see
    :attr:`counterexample`), or the exhaustive engine ran out of its
    configuration budget before finishing.  ``expected`` compares the
    outcome against the scenario's declared expectation — the CLI's
    exit-0 condition.  ``stats`` carries backend-specific evidence
    (runs checked, interleavings sampled, corpus size, certainty,
    timings); ``counterexample`` is a replay-verified
    :class:`~repro.fuzz.trace.ReplayTrace` whenever a violation was
    found, replayable by ``python -m repro fuzz --replay``; ``lasso``
    is the liveness backend's counterpart — a replay-verified
    :class:`~repro.fuzz.trace.LassoTrace` starvation certificate.
    """

    scenario_id: str
    backend: str
    outcome: str
    expected: bool
    stats: Dict[str, Any] = field(default_factory=dict)
    counterexample: Optional[ReplayTrace] = None
    lasso: Optional[LassoTrace] = None
    #: In-memory provenance markers set by the verdict cache
    #: (:mod:`repro.service`): whether this verdict was served from the
    #: cache, and under which content address.  Deliberately excluded
    #: from :meth:`to_document` — a cached re-verify must serialize
    #: byte-identically to the cold run that populated the cache.
    cached: bool = False
    cache_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise UsageError(
                f"verdict outcome must be one of {OUTCOMES}, got "
                f"{self.outcome!r}"
            )

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    @property
    def violated(self) -> bool:
        return self.outcome == "violated"

    @property
    def budget_exhausted(self) -> bool:
        return self.outcome == "budget-exhausted"

    @property
    def metrics(self) -> Optional[Dict[str, Any]]:
        """The per-call ``repro-metrics`` document ``verify()`` attaches
        when an obs recorder is active; ``None`` when metrics are off."""
        return self.stats.get("metrics")

    def to_document(self) -> Dict[str, Any]:
        """A JSON-safe encoding (the ``verify --out`` artifact).

        The obs layer's ``metrics`` sub-document is deliberately
        excluded: it describes the *measurement* of the run, not the
        verdict, and carries wall-clock values — keeping it out is what
        makes serialized verdicts byte-identical with metrics enabled
        or disabled.  ``verify --metrics-out`` writes it as a separate
        artifact instead.
        """
        document: Dict[str, Any] = {
            "scenario": self.scenario_id,
            "backend": self.backend,
            "outcome": self.outcome,
            "expected": self.expected,
            "stats": {
                key: value
                for key, value in self.stats.items()
                if key != "metrics"
            },
        }
        if self.counterexample is not None:
            document["counterexample"] = self.counterexample.to_document()
        if self.lasso is not None:
            document["lasso"] = self.lasso.to_document()
        return document

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "Verdict":
        """Reconstruct a verdict from :meth:`to_document` output.

        The round-trip is exact — ``from_document(d).to_document() ==
        d`` — which is what lets the verdict cache hand back stored
        documents as live :class:`Verdict` objects without breaking the
        byte-identity contract.  Malformed documents raise
        :class:`UsageError` (the outcome check in ``__post_init__``
        plus explicit field checks here).
        """
        from repro.fuzz.trace import LassoTrace, ReplayTrace

        for key in ("scenario", "backend", "outcome", "expected"):
            if key not in document:
                raise UsageError(f"verdict document lacks {key!r}")
        counterexample = (
            ReplayTrace.from_document(document["counterexample"])
            if "counterexample" in document
            else None
        )
        lasso = (
            LassoTrace.from_document(document["lasso"])
            if "lasso" in document
            else None
        )
        return cls(
            scenario_id=document["scenario"],
            backend=document["backend"],
            outcome=document["outcome"],
            expected=bool(document["expected"]),
            stats=dict(document.get("stats", {})),
            counterexample=counterexample,
            lasso=lasso,
        )

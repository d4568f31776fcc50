"""The experiment registry: every table/figure/theorem of the paper.

Each experiment id (the README's paper → code map pairs the ids with
the paper items) maps to a runner returning an :class:`ExperimentResult`
— a list of *claims* comparing what the paper states with what the
artifact measures, plus rendered artifacts (Figure-1 panels, Hasse
diagrams, adversary-set certificates).  ``python -m repro run <id>``
prints the claim table and the renderings; ``tests/test_experiments.py``
asserts every claim.

The runners are thin *claim evaluators*: the schedule batteries they
quantify over live in :mod:`repro.analysis.batteries`, the named
verification instances live in the scenario registry
(:mod:`repro.scenarios` — each :class:`ExperimentSpec` names the
scenarios its instances correspond to), and the single-instance
experiments (``fuzz``, ``verify``) evaluate their claims over the
uniform :func:`repro.scenarios.verify` verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.adversaries.consensus_flp import (
    LockstepConsensusAdversary,
    f1_adversary_set,
    f2_adversary_set,
    histories_match_f1,
)
from repro.adversaries.counterexample import CounterexampleAdversary
from repro.adversaries.tm_local_progress import TMLocalProgressAdversary
from repro.adversaries.valency import find_nondeciding_schedule
from repro.algorithms.consensus import CasConsensus, CommitAdoptConsensus
from repro.analysis.batteries import consensus_plays, lk_points, tm_plays
from repro.analysis.classification import (
    ClassifiedGrid,
    check_plays,
    classify_grid,
    play_outcomes,
)
from repro.analysis.registry import (
    COUNTEREXAMPLE_S,
    OPACITY,
    consensus_registry,
    entries_ensuring,
    select_entries,
    tm_registry,
)
from repro.analysis.report import render_claims, render_grid, render_hasse
from repro.core.adversary import certify_disjoint_by_first_event
from repro.core.exclusion import NonExclusionReport
from repro.core.freedom import LKFreedom
from repro.core.history import History
from repro.core.lattice import LivenessOrder
from repro.core.liveness import enumerate_summaries
from repro.core.progress import NXLiveness, SFreedom
from repro.fuzz.oracle import differential_check
from repro.objects.consensus import AgreementValidity
from repro.objects.counterexample_s import counterexample_safety
from repro.objects.opacity import OpacityChecker
from repro.scenarios import get_scenario, resolve_backend, verify
from repro.setmodel import theorem44, theorem49
from repro.setmodel.theorem44 import first_event_adversary_sets, verify_theorem44
from repro.setmodel.theorem49 import verify_lemma48, verify_theorem49
from repro.sim.runtime import play
from repro.util.errors import UsageError, unknown_choice


@dataclass(frozen=True)
class Claim:
    """One paper-vs-measured row."""

    name: str
    expected: str
    measured: str
    ok: bool


@dataclass
class ExperimentResult:
    """Outcome of one experiment."""

    experiment_id: str
    title: str
    claims: List[Claim] = field(default_factory=list)
    artifacts: Dict[str, object] = field(default_factory=dict)
    rendered: str = ""

    @property
    def all_ok(self) -> bool:
        return all(claim.ok for claim in self.claims)

    def claim_rows(self) -> List[Tuple[str, str, str, bool]]:
        return [(c.name, c.expected, c.measured, c.ok) for c in self.claims]

    def render(self) -> str:
        table = render_claims(f"[{self.experiment_id}] {self.title}", self.claim_rows())
        if self.rendered:
            return f"{table}\n\n{self.rendered}"
        return table


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------


def run_fig1a(
    n: int = 3,
    max_steps: int = 20_000,
    semantics: str = "conditional",
    registry=None,
    scheduler=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
    lk: Optional[str] = None,
) -> ExperimentResult:
    """Figure 1(a): the (l,k) grid for consensus agreement & validity,
    register-only implementations.

    ``registry``/``scheduler``/``crash``/``seed``/``lk`` are the uniform
    campaign grid axes (subset the registry, the schedule families, the
    grid points; inject crashes; seed a random play); defaults reproduce
    the paper's panel exactly.
    """
    entries = select_entries(consensus_registry(n, registers_only=True), registry)
    battery = consensus_plays(
        n, entries, max_steps=max_steps, schedulers=scheduler, crash=crash, seed=seed
    )
    safety = AgreementValidity()
    grid = classify_grid(
        n, safety, battery, semantics=semantics, points=lk_points(n, lk)
    )
    expected = lambda l, k: not (l == 1 and k == 1)
    result = ExperimentResult(
        experiment_id="fig1a",
        title="Figure 1(a): (l,k)-freedom vs consensus safety (registers only)",
    )
    result.claims.append(
        Claim(
            name="white points",
            expected="{(1,1)}",
            measured=str(sorted(grid.implementable_points())),
            ok=grid.matches(expected),
        )
    )
    result.claims.append(
        Claim(
            name="black points",
            expected="all (l,k) with k >= 2",
            measured=str(sorted(grid.excluded_points())),
            ok=grid.matches(expected),
        )
    )
    result.artifacts["grid"] = grid
    result.artifacts["history_count"] = sum(
        len(plays) for plays in battery.values()
    )
    result.rendered = render_grid(grid)
    return result


def run_fig1b(
    n: int = 3,
    max_steps: int = 240,
    transactions: int = 2,
    semantics: str = "conditional",
    registry=None,
    scheduler=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
    lk: Optional[str] = None,
) -> ExperimentResult:
    """Figure 1(b): the (l,k) grid for TM opacity (same uniform grid
    axes as :func:`run_fig1a`)."""
    entries = select_entries(
        entries_ensuring(tm_registry(n, variables=(0,)), OPACITY), registry
    )
    battery = tm_plays(
        n,
        entries,
        max_steps=max_steps,
        transactions=transactions,
        schedulers=scheduler,
        crash=crash,
        seed=seed,
    )
    safety = OpacityChecker(deep=True)
    grid = classify_grid(
        n, safety, battery, semantics=semantics, points=lk_points(n, lk)
    )
    expected = lambda l, k: l >= 2
    result = ExperimentResult(
        experiment_id="fig1b",
        title="Figure 1(b): (l,k)-freedom vs TM opacity",
    )
    result.claims.append(
        Claim(
            name="white points",
            expected="all (1,k)",
            measured=str(sorted(grid.implementable_points())),
            ok=grid.matches(expected),
        )
    )
    result.claims.append(
        Claim(
            name="black points",
            expected="all (l,k) with l >= 2",
            measured=str(sorted(grid.excluded_points())),
            ok=grid.matches(expected),
        )
    )
    result.artifacts["grid"] = grid
    result.artifacts["history_count"] = sum(
        len(plays) for plays in battery.values()
    )
    result.rendered = render_grid(grid)
    return result


# ---------------------------------------------------------------------------
# Theorems 5.2 / 5.3
# ---------------------------------------------------------------------------


def _extremal_points(
    grid: ClassifiedGrid, semantics: str
) -> Tuple[List[str], List[str]]:
    """(strongest implementable, weakest excluded) under the semantic
    order of the grid's (l,k) properties."""
    properties = [
        LKFreedom(point.l, point.k, semantics=semantics) for point in grid.points
    ]
    order = LivenessOrder(properties, grid.n, progress_requires_steps=False)
    implementable = [
        prop
        for prop, point in zip(properties, grid.points)
        if not point.excludes
    ]
    excluded = [
        prop for prop, point in zip(properties, grid.points) if point.excludes
    ]
    strongest = order.strongest_below(implementable)
    # weakest excluded = minimal elements among excluded
    names = {p.name for p in excluded}
    stronger_pairs = [
        (a, b)
        for a, b in order.strictly_stronger_pairs()
        if a in names and b in names
    ]
    dominating = {a for a, _ in stronger_pairs}
    weakest = [p.name for p in excluded if p.name not in dominating]
    return strongest, weakest


def run_thm52(
    n: int = 3,
    max_steps: int = 20_000,
    registry=None,
    scheduler=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Theorem 5.2: extremal (l,k) properties for register consensus,
    plus the mechanised CIL schedule search."""
    fig = run_fig1a(
        n=n,
        max_steps=max_steps,
        registry=registry,
        scheduler=scheduler,
        crash=crash,
        seed=seed,
    )
    grid: ClassifiedGrid = fig.artifacts["grid"]  # type: ignore[assignment]
    strongest, weakest = _extremal_points(grid, semantics="conditional")
    result = ExperimentResult(
        experiment_id="thm52",
        title="Theorem 5.2: consensus-from-registers extremal (l,k)-freedom",
    )
    result.claims.append(
        Claim(
            name="strongest implementable",
            expected="(1,1)-freedom",
            measured=", ".join(strongest),
            ok=strongest == ["(1,1)-freedom"],
        )
    )
    result.claims.append(
        Claim(
            name="weakest non-implementable",
            expected="(1,2)-freedom",
            measured=", ".join(weakest),
            ok=weakest == ["(1,2)-freedom"],
        )
    )
    witness = find_nondeciding_schedule(
        lambda: CommitAdoptConsensus(2), proposals=(0, 1), max_configs=3_000
    )
    result.claims.append(
        Claim(
            name="CIL schedule search (registers)",
            expected="non-deciding schedule exists",
            measured=(
                f"found: stem={len(witness.stem)} cycle={len(witness.cycle)}"
                if witness
                else "none found"
            ),
            ok=witness is not None,
        )
    )
    cas_witness = find_nondeciding_schedule(
        lambda: CasConsensus(2), proposals=(0, 1), max_configs=3_000
    )
    result.claims.append(
        Claim(
            name="CIL schedule search (CAS control)",
            expected="no non-deciding schedule",
            measured="none found" if cas_witness is None else "found (!)",
            ok=cas_witness is None,
        )
    )
    result.artifacts["grid"] = grid
    result.artifacts["witness"] = witness
    result.rendered = render_grid(grid, annotate=False)
    return result


def run_thm53(
    n: int = 3,
    max_steps: int = 240,
    transactions: int = 2,
    registry=None,
    scheduler=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Theorem 5.3: extremal (l,k) properties for TM opacity, plus the
    paper's remark that (1,n) and (2,2) are incomparable."""
    fig = run_fig1b(
        n=n,
        max_steps=max_steps,
        transactions=transactions,
        registry=registry,
        scheduler=scheduler,
        crash=crash,
        seed=seed,
    )
    grid: ClassifiedGrid = fig.artifacts["grid"]  # type: ignore[assignment]
    strongest, weakest = _extremal_points(grid, semantics="conditional")
    result = ExperimentResult(
        experiment_id="thm53",
        title="Theorem 5.3: TM extremal (l,k)-freedom vs opacity",
    )
    result.claims.append(
        Claim(
            name="strongest implementable",
            expected=f"(1,{n})-freedom",
            measured=", ".join(strongest),
            ok=strongest == [f"(1,{n})-freedom"],
        )
    )
    result.claims.append(
        Claim(
            name="weakest non-implementable",
            expected="(2,2)-freedom",
            measured=", ".join(weakest),
            ok=weakest == ["(2,2)-freedom"],
        )
    )
    order = LivenessOrder(
        [LKFreedom(1, n), LKFreedom(2, 2)], n, progress_requires_steps=False
    )
    relation = order.relate(LKFreedom(1, n), LKFreedom(2, 2))
    result.claims.append(
        Claim(
            name=f"(1,{n}) vs (2,2)",
            expected="incomparable",
            measured=relation.kind,
            ok=relation.kind == "incomparable",
        )
    )
    result.artifacts["grid"] = grid
    result.rendered = render_grid(grid, annotate=False)
    return result


# ---------------------------------------------------------------------------
# Corollaries 4.5 / 4.6 (no weakest excluding liveness)
# ---------------------------------------------------------------------------


def _outside_lmax_consensus(history: History) -> bool:
    """A consensus history lies outside Lmax iff some proposer has not
    decided (the bounded reading of wait-freedom's complement)."""
    proposers = {inv.process for inv in history.invocations()}
    deciders = {res.process for res in history.responses()}
    return bool(proposers - deciders)


def run_cor45(max_steps: int = 20_000) -> ExperimentResult:
    """Corollary 4.5: no weakest liveness excluding consensus safety."""
    safety = AgreementValidity()
    f1 = f1_adversary_set(first=0, second=1)
    f2 = f2_adversary_set()
    result = ExperimentResult(
        experiment_id="cor45",
        title="Corollary 4.5: no weakest liveness excluding agreement+validity",
    )
    cond1 = all(safety.permits(h) for h in f1.histories | f2.histories)
    result.claims.append(
        Claim(
            name="F1, F2 ⊆ S",
            expected="true",
            measured=str(cond1).lower(),
            ok=cond1,
        )
    )
    cond2 = all(
        _outside_lmax_consensus(h) for h in f1.histories | f2.histories
    )
    result.claims.append(
        Claim(
            name="F1, F2 ⊆ complement(Lmax)",
            expected="true",
            measured=str(cond2).lower(),
            ok=cond2,
        )
    )
    # Condition (3) relative to the register-only registry: the lockstep
    # adversary defeats every implementation, and the resulting history
    # matches the F1 shape.
    entries = consensus_registry(2, registers_only=True)
    all_match = True
    for entry in entries:
        adversary = LockstepConsensusAdversary(first=0, second=1)
        run = play(entry.make(), adversary, max_steps=max_steps)
        if not histories_match_f1(run.history, first=0, second=1):
            all_match = False
    result.claims.append(
        Claim(
            name="condition (3) on registry",
            expected="every register impl yields a fair history matching F1",
            measured="all match" if all_match else "some play escapes F1",
            ok=all_match,
        )
    )
    certificate = certify_disjoint_by_first_event(f1, f2, 0, 1)
    result.claims.append(
        Claim(
            name="F1 ∩ F2",
            expected="empty (first-event argument)",
            measured="empty" if certificate.disjoint else "non-empty",
            ok=certificate.disjoint,
        )
    )
    result.claims.append(
        Claim(
            name="Gmax",
            expected="empty ⇒ no weakest excluding liveness",
            measured="empty" if certificate.gmax_is_empty else "non-empty",
            ok=certificate.gmax_is_empty,
        )
    )
    result.artifacts["certificate"] = certificate
    result.rendered = (
        f"F1 = {{{'; '.join(str(h) for h in sorted(f1.histories, key=str))}}}\n"
        f"F2 = {{{'; '.join(str(h) for h in sorted(f2.histories, key=str))}}}\n"
        f"separating feature: {certificate.separating_feature}"
    )
    return result


def run_cor46(
    n: int = 2, max_steps: int = 240
) -> ExperimentResult:
    """Corollary 4.6: no weakest liveness excluding opacity."""
    from repro.core.adversary import FiniteAdversarySet
    from repro.core.liveness import LocalProgress

    entries = entries_ensuring(tm_registry(n, variables=(0,)), OPACITY)
    opacity = OpacityChecker(deep=True)
    local_progress = LocalProgress()
    result = ExperimentResult(
        experiment_id="cor46",
        title="Corollary 4.6: no weakest TM liveness excluding opacity",
    )
    sets: Dict[str, FiniteAdversarySet] = {}
    defeats_ok = True
    safety_ok = True
    for name, victim, helper in (("F1", 0, 1), ("F2", 1, 0)):
        histories = []
        for entry in entries:
            adversary = TMLocalProgressAdversary(victim=victim, helper=helper, variable=0)
            run = play(entry.make(), adversary, max_steps=max_steps)
            summary = run.summary(entry.make().object_type.progress_mode)
            if adversary.escaped or local_progress.evaluate(summary).holds:
                defeats_ok = False
            if not opacity.permits(run.history):
                safety_ok = False
            histories.append(run.history)
        sets[name] = FiniteAdversarySet(histories, name=name)
    result.claims.append(
        Claim(
            name="strategy defeats every opaque TM",
            expected="victim starves in every play",
            measured="yes" if defeats_ok else "an implementation escaped",
            ok=defeats_ok,
        )
    )
    result.claims.append(
        Claim(
            name="plays stay opaque (F ⊆ S)",
            expected="true",
            measured=str(safety_ok).lower(),
            ok=safety_ok,
        )
    )
    certificate = certify_disjoint_by_first_event(sets["F1"], sets["F2"], 0, 1)
    result.claims.append(
        Claim(
            name="F1 ∩ F2",
            expected="empty (every F1 history begins with start_0)",
            measured="empty" if certificate.disjoint else "non-empty",
            ok=certificate.disjoint,
        )
    )
    result.claims.append(
        Claim(
            name="Gmax",
            expected="empty ⇒ no weakest excluding liveness",
            measured="empty" if certificate.gmax_is_empty else "non-empty",
            ok=certificate.gmax_is_empty,
        )
    )
    result.artifacts["certificate"] = certificate
    result.rendered = f"separating feature: {certificate.separating_feature}"
    return result


# ---------------------------------------------------------------------------
# Theorems 4.4 / 4.9, Lemma 4.8 (finite models)
# ---------------------------------------------------------------------------


def run_thm44() -> ExperimentResult:
    """Theorem 4.4 on the positive and negative micro models."""
    result = ExperimentResult(
        experiment_id="thm44",
        title="Theorem 4.4: weakest-excluding liveness iff Gmax is an adversary set",
    )
    model, safety = theorem44.positive_model()
    report = verify_theorem44(model, safety)
    result.claims.append(
        Claim(
            name="positive model: iff",
            expected="Gmax adversary set ⇔ weakest exists (both true)",
            measured=(
                f"gmax-adv={report.gmax_is_adversary_set}, "
                f"weakest={'exists' if report.weakest_excluding is not None else 'none'}"
            ),
            ok=report.iff_holds and report.gmax_is_adversary_set,
        )
    )
    result.claims.append(
        Claim(
            name="positive model: weakest = complement(Gmax)",
            expected="true (as in the theorem's proof)",
            measured=str(report.weakest_equals_complement_gmax).lower(),
            ok=bool(report.weakest_equals_complement_gmax),
        )
    )
    model2, safety2 = theorem44.negative_model()
    f1, f2 = first_event_adversary_sets(model2, safety2)
    both_adv = model2.is_adversary_set(
        f1, model2.lmax, safety2
    ) and model2.is_adversary_set(f2, model2.lmax, safety2)
    result.claims.append(
        Claim(
            name="negative model: disjoint adversary sets",
            expected="F1, F2 adversary sets with F1 ∩ F2 = ∅",
            measured=f"adversary-sets={both_adv}, disjoint={not (f1 & f2)}",
            ok=both_adv and not (f1 & f2),
        )
    )
    report2 = verify_theorem44(model2, safety2)
    result.claims.append(
        Claim(
            name="negative model: iff",
            expected="Gmax empty ⇒ no weakest (both false)",
            measured=(
                f"gmax-adv={report2.gmax_is_adversary_set}, "
                f"weakest={'exists' if report2.weakest_excluding is not None else 'none'}"
            ),
            ok=report2.iff_holds and not report2.gmax_is_adversary_set,
        )
    )
    result.artifacts["positive"] = report
    result.artifacts["negative"] = report2
    return result


def run_thm49() -> ExperimentResult:
    """Lemma 4.8 and Theorem 4.9 on micro models."""
    result = ExperimentResult(
        experiment_id="thm49",
        title="Lemma 4.8 / Theorem 4.9: strongest non-excluding liveness is Lmax",
    )
    model, safety = theorem49.positive_model()
    lemma_ok = all(
        verify_lemma48(model, impl).holds for impl in model.implementations
    )
    result.claims.append(
        Claim(
            name="Lemma 4.8 (all implementations)",
            expected="strongest ensured liveness = Lmax ∪ fair(A_I)",
            measured="holds" if lemma_ok else "violated",
            ok=lemma_ok,
        )
    )
    report = verify_theorem49(model, safety)
    result.claims.append(
        Claim(
            name="positive model",
            expected="strongest non-excluding exists and is Lmax",
            measured=(
                f"excludes={report.lmax_excludes_safety}, "
                f"strongest-is-lmax={report.strongest_is_lmax}"
            ),
            ok=report.holds and report.strongest_is_lmax is True,
        )
    )
    model2, safety2 = theorem49.negative_model()
    report2 = verify_theorem49(model2, safety2)
    result.claims.append(
        Claim(
            name="negative model",
            expected="Lmax excludes S ⇒ no strongest non-excluding",
            measured=(
                f"excludes={report2.lmax_excludes_safety}, "
                f"strongest={'none' if report2.strongest_non_excluding is None else 'exists'}"
            ),
            ok=report2.holds
            and report2.lmax_excludes_safety
            and report2.strongest_non_excluding is None,
        )
    )
    result.artifacts["positive"] = report
    result.artifacts["negative"] = report2
    return result


# ---------------------------------------------------------------------------
# Lemma 5.4 / Section 5.3
# ---------------------------------------------------------------------------


def run_lem54(
    n: int = 3,
    transactions: int = 2,
    max_steps: int = 400,
    scheduler=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Lemma 5.4: I(1,2) ensures S and (1,2)-freedom."""
    if n < 3:
        raise UsageError(
            "lem54 requires n >= 3 (the timestamp-rule check plays the "
            "3-process Section 5.3 adversary)"
        )
    entries = [e for e in tm_registry(n, variables=(0,)) if e.key == "i12"]
    battery = tm_plays(
        n,
        entries,
        max_steps=max_steps,
        transactions=transactions,
        schedulers=scheduler,
        crash=crash,
        seed=seed,
    )
    safety = counterexample_safety(deep_opacity=True)
    property_12 = LKFreedom(1, 2)
    runs = play_outcomes(property_12, check_plays(safety, battery))["i12"]
    witness = NonExclusionReport(property_12.name, safety.name, "i12", runs)
    safety_ok, liveness_ok = witness.safe, witness.live
    result = ExperimentResult(
        experiment_id="lem54",
        title="Lemma 5.4: Algorithm I(1,2) ensures S and (1,2)-freedom",
    )
    result.claims.append(
        Claim(
            name="S on all battery plays",
            expected="opacity + timestamp rule hold",
            measured="hold" if safety_ok else "violated",
            ok=safety_ok,
        )
    )
    result.claims.append(
        Claim(
            name="(1,2)-freedom on all battery plays",
            expected="holds",
            measured="holds" if liveness_ok else "violated",
            ok=liveness_ok,
        )
    )
    # The timestamp rule in action: three concurrent same-numbered
    # transactions must all abort (proved lasso via the Section 5.3
    # adversary).
    adversary = CounterexampleAdversary((0, 1, 2))
    run = play(entries[0].make(), adversary, max_steps=5_000)
    rule_enforced = (
        not adversary.escaped
        and run.lasso is not None
        and all(run.stats[pid].good_responses == 0 for pid in range(3))
    )
    result.claims.append(
        Claim(
            name="timestamp rule enforcement",
            expected="3 concurrent t-th transactions abort forever (lasso)",
            measured=(
                f"lasso={'yes' if run.lasso else 'no'}, commits="
                f"{sum(run.stats[p].good_responses for p in range(3))}"
            ),
            ok=rule_enforced,
        )
    )
    result.artifacts["battery_size"] = len(runs)
    return result


def run_sec53(
    n: int = 3,
    transactions: int = 2,
    max_steps: int = 240,
    registry=None,
    scheduler=None,
    crash: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Section 5.3: the counterexample property S has no weakest
    excluding (l,k)-freedom."""
    if n < 3:
        raise UsageError(
            "sec53 requires n >= 3 (its argument relates the (1,3) and "
            "(2,2) grid points)"
        )
    safety = counterexample_safety(deep_opacity=True)
    entries = select_entries(
        entries_ensuring(tm_registry(n, variables=(0,)), COUNTEREXAMPLE_S), registry
    )
    battery = tm_plays(
        n,
        entries,
        max_steps=max_steps,
        transactions=transactions,
        schedulers=scheduler,
        crash=crash,
        seed=seed,
    )
    grid = classify_grid(n, safety, battery)
    result = ExperimentResult(
        experiment_id="sec53",
        title="Section 5.3: limits of (l,k)-freedom on the property S",
    )
    point_22 = grid.point(2, 2)
    point_13 = grid.point(1, 3)
    point_12 = grid.point(1, 2)
    result.claims.append(
        Claim(
            name="(2,2)-freedom vs S",
            expected="excludes",
            measured="excludes" if point_22.excludes else "does not exclude",
            ok=point_22.excludes,
        )
    )
    result.claims.append(
        Claim(
            name="(1,3)-freedom vs S",
            expected="excludes (3-process adversary)",
            measured="excludes" if point_13.excludes else "does not exclude",
            ok=point_13.excludes,
        )
    )
    result.claims.append(
        Claim(
            name="(1,2)-freedom vs S",
            expected="does not exclude (I(1,2) implements it)",
            measured="does not exclude" if not point_12.excludes else "excludes",
            ok=not point_12.excludes,
        )
    )
    order = LivenessOrder(
        [LKFreedom(1, 2), LKFreedom(1, 3), LKFreedom(2, 2)],
        n,
        progress_requires_steps=False,
    )
    weaker_both = order.is_stronger(LKFreedom(1, 3), LKFreedom(1, 2)) and (
        order.is_stronger(LKFreedom(2, 2), LKFreedom(1, 2))
    )
    incomparable = (
        order.relate(LKFreedom(1, 3), LKFreedom(2, 2)).kind == "incomparable"
    )
    result.claims.append(
        Claim(
            name="(1,2) weaker than both excluders",
            expected="true",
            measured=str(weaker_both).lower(),
            ok=weaker_both,
        )
    )
    result.claims.append(
        Claim(
            name="(1,3) vs (2,2)",
            expected="incomparable ⇒ no weakest excluding (l,k)-freedom",
            measured=order.relate(LKFreedom(1, 3), LKFreedom(2, 2)).kind,
            ok=incomparable,
        )
    )
    result.artifacts["grid"] = grid
    result.rendered = render_grid(grid, annotate=False)
    return result


# ---------------------------------------------------------------------------
# Section 6 taxonomies
# ---------------------------------------------------------------------------


def run_sec6(n: int = 3) -> ExperimentResult:
    """Section 6: alternative restricted liveness families."""
    result = ExperimentResult(
        experiment_id="sec6",
        title="Section 6: S-freedom antichain, (n,x)-liveness chain, (l,k) poset",
    )
    summaries = enumerate_summaries(n, progress_requires_steps=True)
    singletons = [SFreedom({size}) for size in range(1, n + 1)]
    singleton_order = LivenessOrder(
        singletons, n, progress_requires_steps=True, summaries=summaries
    )
    antichain = all(
        singleton_order.relate(a, b).kind == "incomparable"
        for i, a in enumerate(singletons)
        for b in singletons[i + 1:]
    )
    result.claims.append(
        Claim(
            name="singleton S-freedom",
            expected="pairwise incomparable (no strongest implementable)",
            measured="antichain" if antichain else "comparable pair exists",
            ok=antichain,
        )
    )
    nx_family = [NXLiveness(n, x) for x in range(0, n + 1)]
    nx_order = LivenessOrder(nx_family, n, progress_requires_steps=False)
    total = nx_order.is_totally_ordered()
    result.claims.append(
        Claim(
            name="(n,x)-liveness",
            expected="totally ordered in x",
            measured="chain" if total else "not a chain",
            ok=total,
        )
    )
    increasing = all(
        nx_order.is_stronger(NXLiveness(n, x + 1), NXLiveness(n, x))
        for x in range(0, n)
    )
    result.claims.append(
        Claim(
            name="(n,x+1) stronger than (n,x)",
            expected="true",
            measured=str(increasing).lower(),
            ok=increasing,
        )
    )
    lk_family = LKFreedom.grid(n)
    lk_order = LivenessOrder(lk_family, n, progress_requires_steps=False)
    partially = not lk_order.is_totally_ordered()
    result.claims.append(
        Claim(
            name="(l,k)-freedom family",
            expected="partially ordered (incomparable pairs exist)",
            measured="poset with incomparable pairs" if partially else "chain",
            ok=partially,
        )
    )
    # Empirical halves of the cited implementability facts, on the
    # register-consensus battery: S-freedom{1} and (n,0)-liveness
    # survive every play of commit-adopt (they are the implementable
    # corners per [36] and [25]), while S-freedom{2} and
    # (n,1)-liveness fall to the lockstep adversary.
    battery = consensus_plays(
        n, consensus_registry(n, registers_only=True), max_steps=20_000
    )["commit-adopt"]
    def survives(prop) -> bool:
        return all(prop.evaluate(summary).holds for _h, summary, _l in battery)

    implementable = [SFreedom({1}), NXLiveness(n, 0)]
    non_implementable = [SFreedom({2}), NXLiveness(n, 1)]
    empirically_ok = all(survives(p) for p in implementable) and not any(
        survives(p) for p in non_implementable
    )
    result.claims.append(
        Claim(
            name="implementable corners ([36],[25])",
            expected="S-freedom{1} and (n,0)-liveness survive; "
            "S-freedom{2} and (n,1)-liveness fall",
            measured=(
                f"survive: {[p.name for p in implementable if survives(p)]}, "
                f"fall: {[p.name for p in non_implementable if not survives(p)]}"
            ),
            ok=empirically_ok,
        )
    )
    result.artifacts["lk_order"] = lk_order
    result.rendered = "\n\n".join(
        [
            render_hasse(singleton_order, "singleton S-freedom"),
            render_hasse(nx_order, "(n,x)-liveness"),
            render_hasse(lk_order, "(l,k)-freedom"),
        ]
    )
    return result


# ---------------------------------------------------------------------------
# Fuzzing (the randomized counterpart of the exhaustive experiments)
# ---------------------------------------------------------------------------


#: The sampling evidence persisted by every fuzz-flavoured job.
_SAMPLING_ARTIFACTS = (
    "interleavings",
    "corpus",
    "histories_checked",
    "interleavings_per_second",
)


def _record_sampling_artifacts(result: ExperimentResult, source) -> None:
    for key in _SAMPLING_ARTIFACTS:
        result.artifacts[key] = source[key]


def run_fuzz(
    workload: str = "agp-opacity",
    mode: str = "fuzz",
    seed: int = 0,
    iterations: int = 2_000,
    max_steps: int = 64,
    crash: Optional[str] = None,
    shrink: bool = True,
) -> ExperimentResult:
    """Fuzz one registered scenario, or differential-oracle it.

    A thin claim evaluator over the scenario layer: ``mode="fuzz"``
    judges the uniform :func:`repro.scenarios.verify` verdict of the
    fuzz backend against the scenario's declared expectation (shrunk,
    replay-verified counterexample traces land in the artifacts);
    ``mode="oracle"`` additionally runs the exhaustive backend on the
    same (small) instance and asserts verdict agreement via
    :func:`repro.fuzz.oracle.differential_check`.  ``mode`` is the grid
    axis that makes fuzzing a first-class campaign job kind; ``crash``
    and ``shrink`` apply to ``mode="fuzz"`` only, and ``max_steps``
    doubles as the walk depth bound, matching the uniform axis name of
    the battery experiments.
    """
    if mode not in ("fuzz", "oracle"):
        raise UsageError(f"mode must be 'fuzz' or 'oracle', got {mode!r}")
    if mode == "oracle" and crash not in (None, "", "none"):
        # The oracle compares against the crash-free exhaustive space; a
        # crash axis on an oracle cell would be silently meaningless.
        raise UsageError(
            f"the 'crash' axis (got {crash!r}) only applies to mode=fuzz; "
            "the oracle compares verdicts over the crash-free schedule "
            "space the exhaustive engine enumerates"
        )
    spec = get_scenario(workload)
    result = ExperimentResult(
        experiment_id="fuzz",
        title=f"Randomized schedule fuzzer on {workload} [{mode}]",
    )
    if mode == "oracle":
        oracle = differential_check(
            spec, seed=seed, iterations=iterations, max_depth=max_steps
        )
        result.claims.append(
            Claim(
                name="differential oracle",
                expected="fuzz verdict == exhaustive verdict",
                measured=(
                    f"exhaustive={'holds' if oracle.exhaustive_holds else 'violated'}"
                    f" ({oracle.exhaustive_runs} runs), "
                    f"fuzz={'holds' if oracle.fuzz_holds else 'violated'}"
                ),
                ok=oracle.agree,
            )
        )
        if oracle.counterexample_replays is not None:
            result.claims.append(
                Claim(
                    name="counterexample replay",
                    expected="violating schedule reproduces on a fresh runtime",
                    measured=(
                        "reproduces"
                        if oracle.counterexample_replays
                        else "does not reproduce"
                    ),
                    ok=bool(oracle.counterexample_replays),
                )
            )
        report = oracle.fuzz
        result.artifacts["exhaustive_runs"] = oracle.exhaustive_runs
        _record_sampling_artifacts(
            result,
            {
                "interleavings": report.interleavings,
                "corpus": report.corpus,
                "histories_checked": report.histories_checked,
                "interleavings_per_second": round(
                    report.interleavings_per_second, 1
                ),
            },
        )
        return result

    verdict = verify(
        spec,
        backend="fuzz",
        seed=seed,
        iterations=iterations,
        max_depth=max_steps,
        crash=crash,
        shrink=shrink,
    )
    stats = verdict.stats
    expectation = "violation" if spec.expect_violation else "no violation"
    if verdict.budget_exhausted:
        # The safety checker's own search budget blew mid-fuzz: report
        # a failed claim rather than crashing the job.
        result.claims.append(
            Claim(
                name="fuzz verdict",
                expected=expectation,
                measured=f"budget exhausted: {stats.get('error', '')}",
                ok=False,
            )
        )
        return result
    measured = (
        f"violation at iteration {stats['violation_iteration']}"
        if verdict.violated
        else f"no violation in {stats['interleavings']} interleavings"
    )
    result.claims.append(
        Claim(
            name="fuzz verdict",
            expected=expectation,
            measured=measured,
            ok=verdict.expected,
        )
    )
    if verdict.counterexample is not None and shrink:
        replays = bool(stats.get("counterexample_replays"))
        measured_shrink = (
            f"{stats['shrunk_from']} -> "
            f"{stats['counterexample_length']} steps, replay "
            f"{'violates' if replays else 'passes (!)'}"
            if "shrunk_from" in stats
            else "minimization aborted: "
            + stats.get("witness_check_error", "unknown error")
        )
        result.claims.append(
            Claim(
                name="shrunk counterexample",
                expected="locally minimal trace replays to a violation",
                measured=measured_shrink,
                ok=replays,
            )
        )
        result.artifacts["shrunk_trace"] = verdict.counterexample.to_document()
        result.artifacts["shrunk_length"] = stats["counterexample_length"]
        result.rendered = "shrunk schedule: " + " ".join(
            f"{kind}(p{pid})" for kind, pid in verdict.counterexample.schedule
        )
    _record_sampling_artifacts(result, stats)
    return result


def run_verify(
    scenario: str = "cas-consensus",
    backend: str = "auto",
    seed: Optional[int] = None,
    iterations: Optional[int] = None,
    max_steps: Optional[int] = None,
    crash: Optional[str] = None,
    shrink: bool = True,
    reduction: Optional[str] = None,
) -> ExperimentResult:
    """Verify one registered scenario through the uniform facade.

    The campaign face of :func:`repro.scenarios.verify`: ``scenario``
    and ``backend`` (``exhaustive``/``fuzz``/``liveness``/``auto``) are
    grid axes, so ``campaign init --grid verify scenario=...
    backend=...`` sweeps the scenario catalog as stored, resumable
    jobs.  The single claim compares the verdict outcome with the
    scenario's declared expectation for the backend's property kind
    (``expect_liveness_violation`` for liveness cells); the full
    verdict document (stats + replayable counterexample / lasso trace)
    is persisted as an artifact.
    """
    spec = get_scenario(scenario)
    resolved = resolve_backend(spec, backend)
    overrides: Dict[str, object] = {"shrink": shrink}
    if reduction not in (None, "", "none"):
        if resolved == "fuzz":
            if backend != "auto":
                raise UsageError(
                    "the 'reduction' axis selects a partial-order "
                    "reduction for exhaustive/liveness search; it cannot "
                    "apply to backend='fuzz' — restrict the axis to "
                    "exhaustive/liveness (or auto) cells or drop it"
                )
            # Auto-resolved fuzz cells drop the knob, same policy as the
            # backend-exclusive overrides in the verify facade.
        else:
            overrides["reduction"] = reduction
    if resolved == "fuzz":
        overrides["seed"] = 0 if seed is None else seed
        if iterations is not None:
            overrides["iterations"] = iterations
    elif backend != "auto":
        # Explicit exhaustive/liveness cells reject swept sampling
        # knobs loudly (a seed/iterations axis would run identical jobs
        # — same policy as the batteries' seed-without-random check);
        # 'auto' cells may mix backends across one grid, so there the
        # knobs are dropped for the non-fuzz-resolved scenarios
        # instead.
        for axis, value in (("seed", seed), ("iterations", iterations)):
            if value is not None:
                raise UsageError(
                    f"the {axis!r} axis only affects fuzz cells, and "
                    f"backend={resolved!r} verification is deterministic "
                    "— sweeping it would run identical jobs; restrict "
                    f"the {axis!r} axis to backend=fuzz (or backend=auto) "
                    "cells or drop it"
                )
    if max_steps is not None:
        overrides["max_depth"] = max_steps
    if crash not in (None, "", "none"):
        # Passed through on every backend: a crash model changes the
        # verified space, so an exhaustive or liveness cell must fail
        # loudly.
        overrides["crash"] = crash
    verdict = verify(spec, backend=resolved, **overrides)
    result = ExperimentResult(
        experiment_id="verify",
        title=f"Scenario verify: {spec.scenario_id} [{verdict.backend}]",
    )
    expect_violation = (
        spec.expect_liveness_violation
        if resolved == "liveness"
        else spec.expect_violation
    )
    result.claims.append(
        Claim(
            name="verdict",
            expected="violated" if expect_violation else "holds",
            measured=verdict.outcome,
            ok=verdict.expected,
        )
    )
    if verdict.counterexample is not None:
        replays = bool(verdict.stats.get("counterexample_replays"))
        result.claims.append(
            Claim(
                name="counterexample replay",
                expected="trace replays to a violation on a plain runtime",
                measured="replays" if replays else "does not replay",
                ok=replays,
            )
        )
    if verdict.lasso is not None:
        replays = bool(verdict.stats.get("lasso_replays"))
        result.claims.append(
            Claim(
                name="lasso certificate replay",
                expected="stem+cycle re-certifies starvation on a plain runtime",
                measured="replays" if replays else "does not replay",
                ok=replays,
            )
        )
    result.artifacts["verdict"] = verdict.to_document()
    if verdict.budget_exhausted:
        evidence = "search budget exceeded"
    elif "runs_checked" in verdict.stats:
        evidence = f"runs_checked={verdict.stats['runs_checked']}"
    elif "runs" in verdict.stats:
        evidence = (
            f"runs={verdict.stats['runs']}, "
            f"lassos={verdict.stats.get('lassos', 0)}, "
            f"certainty={verdict.stats.get('certainty')}"
        )
    else:
        evidence = f"interleavings={verdict.stats.get('interleavings')}"
    result.rendered = (
        f"{spec.scenario_id}: {verdict.outcome} "
        f"[{verdict.backend}, {evidence}]"
    )
    return result


# ---------------------------------------------------------------------------
# Mutation testing (oracle sensitivity)
# ---------------------------------------------------------------------------


def run_mutation(
    seed: int = 0,
    iterations: Optional[int] = None,
    mutant: Optional[str] = None,
    backend: Optional[str] = None,
    min_sensitivity: float = 1.0,
) -> ExperimentResult:
    """Score the verification backends against the seeded mutants.

    Runs the kill matrix (:mod:`repro.mutate`) and claims: every mutant
    whose expected killer is evaluated gets killed, the pristine
    baselines are never flagged (zero false kills), and the resulting
    oracle-sensitivity score stays at/above ``min_sensitivity`` (the
    seed score is 1.0).  ``mutant`` / ``backend`` restrict the matrix —
    the campaign axes and the ``mutation-smoke`` CI job use them to
    carve out seconds-fast slices.
    """
    from repro.mutate import get_mutant, kill_matrix

    mutants = None if mutant is None else [get_mutant(mutant)]
    backends = None if backend is None else (backend,)
    matrix = kill_matrix(
        mutants=mutants, seed=seed, iterations=iterations, backends=backends
    )
    result = ExperimentResult(
        experiment_id="mutation",
        title="Mutation-tested oracle sensitivity (kill matrix)",
    )
    expected_cells = matrix.expected_cells
    achieved = sum(1 for cell in expected_cells if cell.killed)
    result.claims.append(
        Claim(
            name="oracle sensitivity",
            expected=f">= {min_sensitivity:.2f}",
            measured=(
                f"{matrix.sensitivity:.2f} "
                f"({achieved}/{len(expected_cells)} expected kills)"
            ),
            ok=matrix.sensitivity >= min_sensitivity,
        )
    )
    result.claims.append(
        Claim(
            name="false kills",
            expected="0 (the unmutated zoo is never flagged)",
            measured=str(len(matrix.false_kills)),
            ok=not matrix.false_kills,
        )
    )
    # Mutants whose every expected killer was filtered out of this run
    # cannot be judged; the kill claim quantifies over the rest.
    judgeable = [
        m
        for m in matrix.mutants
        if any(
            cell.expected_kill for cell in matrix.cells_for(m.mutant_id)
        )
    ]
    surviving = [
        m.mutant_id for m in judgeable if not matrix.killed_by(m.mutant_id)
    ]
    result.claims.append(
        Claim(
            name="every mutant killed",
            expected="each seeded bug caught by >= 1 backend",
            measured="all killed" if not surviving else f"surviving: {surviving}",
            ok=not surviving,
        )
    )
    result.artifacts["kill_matrix"] = matrix.to_document()
    result.rendered = matrix.render_markdown()
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment.

    ``grid_axes`` names the keyword parameters the runner accepts — the
    contract the campaign layer (:mod:`repro.campaign`) uses to expand
    parameter grids: an axis outside this tuple is dropped for this
    experiment (duplicate jobs collapse by fingerprint).

    ``scenarios`` names the registered scenarios this experiment's
    instances correspond to — validated against the scenario registry
    at import time, so an experiment can never reference an instance
    the registry does not know.  Battery experiments list the scenarios
    of the implementations they quantify over; single-instance
    experiments (``fuzz``, ``verify``) list their default scenario (the
    ``workload``/``scenario`` axis selects others); the finite
    set-model experiments (``thm44``, ``thm49``) run on history-set
    models with no implementation under test and list none.
    """

    experiment_id: str
    title: str
    runner: Callable[..., ExperimentResult]
    grid_axes: Tuple[str, ...] = ()
    scenarios: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for scenario_id in self.scenarios:
            get_scenario(scenario_id)  # unknown ids fail at import time


#: The uniform axes every battery-driven grid experiment accepts.
_BATTERY_AXES = ("registry", "scheduler", "crash", "seed")

#: The scenario slices the batteries quantify over.
_REGISTER_CONSENSUS = ("commit-adopt-consensus", "silent-consensus")
_OPAQUE_TMS = (
    "agp-opacity",
    "i12-opacity",
    "trivial-opacity",
    "global-lock-opacity",
    "intent-opacity",
)

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig1a",
            "Figure 1(a) consensus grid",
            run_fig1a,
            ("n", "max_steps", "semantics", "lk") + _BATTERY_AXES,
            scenarios=_REGISTER_CONSENSUS,
        ),
        ExperimentSpec(
            "fig1b",
            "Figure 1(b) TM grid",
            run_fig1b,
            ("n", "max_steps", "transactions", "semantics", "lk") + _BATTERY_AXES,
            scenarios=_OPAQUE_TMS,
        ),
        ExperimentSpec(
            "thm52",
            "Theorem 5.2 extremal consensus freedom",
            run_thm52,
            ("n", "max_steps") + _BATTERY_AXES,
            scenarios=_REGISTER_CONSENSUS + ("cas-consensus",),
        ),
        ExperimentSpec(
            "thm53",
            "Theorem 5.3 extremal TM freedom",
            run_thm53,
            ("n", "max_steps", "transactions") + _BATTERY_AXES,
            scenarios=_OPAQUE_TMS,
        ),
        ExperimentSpec(
            "cor45",
            "Corollary 4.5 no weakest (consensus)",
            run_cor45,
            ("max_steps",),
            scenarios=_REGISTER_CONSENSUS,
        ),
        ExperimentSpec(
            "cor46",
            "Corollary 4.6 no weakest (TM)",
            run_cor46,
            ("n", "max_steps"),
            scenarios=_OPAQUE_TMS,
        ),
        ExperimentSpec("thm44", "Theorem 4.4 finite models", run_thm44),
        ExperimentSpec("thm49", "Lemma 4.8 / Theorem 4.9 finite models", run_thm49),
        ExperimentSpec(
            "lem54",
            "Lemma 5.4 Algorithm I(1,2)",
            run_lem54,
            ("n", "transactions", "max_steps", "scheduler", "crash", "seed"),
            scenarios=("i12-opacity",),
        ),
        ExperimentSpec(
            "sec53",
            "Section 5.3 counterexample property",
            run_sec53,
            ("n", "transactions", "max_steps") + _BATTERY_AXES,
            scenarios=("i12-opacity", "trivial-opacity"),
        ),
        ExperimentSpec(
            "sec6",
            "Section 6 liveness taxonomies",
            run_sec6,
            ("n",),
            scenarios=_REGISTER_CONSENSUS,
        ),
        ExperimentSpec(
            "fuzz",
            "Randomized schedule/crash fuzzer + differential oracle",
            run_fuzz,
            ("workload", "mode", "seed", "iterations", "max_steps", "crash", "shrink"),
            scenarios=("agp-opacity",),
        ),
        ExperimentSpec(
            "verify",
            "Uniform scenario verification (exhaustive/fuzz/liveness backends)",
            run_verify,
            (
                "scenario",
                "backend",
                "seed",
                "iterations",
                "max_steps",
                "crash",
                "shrink",
                "reduction",
            ),
            scenarios=("cas-consensus", "trivial-local-progress-f1"),
        ),
        ExperimentSpec(
            "mutation",
            "Mutation-tested oracle sensitivity (kill matrix)",
            run_mutation,
            ("seed", "iterations", "mutant", "backend", "min_sensitivity"),
            # The hunting scenarios are deliberately unregistered (they
            # wrap broken implementations); no registry ids to declare.
        ),
    )
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id.

    Unknown ids raise :class:`~repro.util.errors.UsageError` with a
    did-you-mean suggestion (exit code 2 at the CLI), like every other
    registry lookup.
    """
    if experiment_id not in EXPERIMENTS:
        raise unknown_choice("experiment", experiment_id, EXPERIMENTS)
    spec = EXPERIMENTS[experiment_id]
    return spec.runner(**kwargs)

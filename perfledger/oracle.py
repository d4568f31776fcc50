"""The verdict oracle: every request of every workload is checked.

A request fails when its verdict is ``budget-exhausted``, contradicts
the scenario's declared expectation, or carries a witness that does not
stand on its own: a counterexample must re-violate on a fresh plain
replay, a lasso must re-certify the starvation, and neither may be
flagged unfaithful by its shrinker.  (Exceptions, non-2xx responses and
cache hits that differ from their cold verdict are counted by the
workloads themselves.)  Known false verdicts are not skipped here; the
workloads leave the instances that trigger them out of their request
lists instead (see README.md).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


def check_verdict(scenario, verdict) -> Optional[str]:
    """``None`` when the verdict is correct, else why it is not."""
    from repro.fuzz.trace import replay_schedule
    from repro.sim.lasso_shrink import certifies_starvation

    if verdict.outcome == "budget-exhausted":
        return f"budget-exhausted: {verdict.stats.get('error', '')}"
    if not verdict.expected:
        return f"outcome {verdict.outcome!r} contradicts the declared expectation"
    for flag in ("shrink_unfaithful", "lasso_shrink_unfaithful"):
        if verdict.stats.get(flag):
            return flag
    if verdict.counterexample is not None:
        replay = replay_schedule(
            scenario.factory,
            scenario.plan,
            verdict.counterexample.schedule,
            scenario.safety_factory(),
        )
        if not replay.violates:
            return "the counterexample does not replay to a violation"
    if verdict.lasso is not None:
        lasso = verdict.lasso
        if not certifies_starvation(
            scenario.factory,
            lasso.stem_decisions(),
            lasso.cycle_decisions(),
            lasso.fingerprint_kind,
            scenario.liveness_factory(),
            scenario.factory().object_type.progress_mode,
            lasso.starving,
        ):
            return "the lasso does not replay to a starvation"
    return None


def check_document(scenario, document: Dict[str, Any]) -> Optional[str]:
    """:func:`check_verdict` for a serialized verdict (the service's)."""
    from repro.scenarios.scenario import Verdict

    return check_verdict(scenario, Verdict.from_document(document))

"""Pins on ``play()``: every play of the paper experiments, and its
step budget.

``play()`` runs one driver against one implementation as the
straight-line case of the liveness search.  The digest below covers
every play the paper experiments run at their defaults, so any change
to how a run is stepped, stopped or certified shows up as a new digest.
"""

import hashlib

import pytest

import repro.analysis.batteries as batteries
import repro.analysis.experiments as experiments
from repro.algorithms.tm import TrivialTransactionalMemory
from repro.sim import ComposedDriver, RandomScheduler, TransactionWorkload, play

#: The experiments that play drivers against implementations, in order.
PLAYING_EXPERIMENTS = (
    "fig1a",
    "fig1b",
    "thm52",
    "thm53",
    "cor45",
    "cor46",
    "lem54",
    "sec53",
    "sec6",
)
#: Plays per experiment at defaults.
PLAY_COUNTS = {
    "fig1a": 14,
    "fig1b": 35,
    "thm52": 14,
    "thm53": 35,
    "cor45": 2,
    "cor46": 10,
    "lem54": 8,
    "sec53": 14,
    "sec6": 14,
}
#: SHA-256 over the 146 run records, one line each, in play order.
PLAYS_DIGEST = "de914efe89e12c70691acdb4a60cfb984c4e56ffdaa4e05e78d5aa34be6603f5"


def _run_record(result) -> str:
    """Events, step count, stop reason, fairness, per-process stats and
    the lasso certificate of one run."""
    stats = tuple(
        (
            pid,
            s.steps,
            s.last_step,
            s.invocations,
            s.responses,
            s.good_responses,
            tuple(s.good_response_steps),
            s.crashed,
            s.pending_at_end,
        )
        for pid, s in sorted(result.stats.items())
    )
    lasso = result.lasso
    if lasso is not None:
        lasso = (lasso.cycle_start, lasso.cycle_end, lasso.fingerprint_kind)
    return repr(
        (
            tuple(map(repr, result.history)),
            result.total_steps,
            result.stop_reason,
            result.fairness_complete,
            stats,
            lasso,
        )
    )


def test_every_paper_experiment_play_is_pinned(monkeypatch):
    records = []

    def recording(*args, **kwargs):
        result = play(*args, **kwargs)
        records.append(_run_record(result))
        return result

    monkeypatch.setattr(batteries, "play", recording)
    monkeypatch.setattr(experiments, "play", recording)
    counts = {}
    for experiment_id in PLAYING_EXPERIMENTS:
        before = len(records)
        experiments.run_experiment(experiment_id)
        counts[experiment_id] = len(records) - before
    assert counts == PLAY_COUNTS
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PLAYS_DIGEST


@pytest.mark.parametrize("max_steps", [1, 2, 137, 500])
def test_a_driver_that_never_stops_runs_to_the_budget(max_steps):
    """Every start aborts on the trivial TM and the workload retries
    forever; a random scheduler opts out of fingerprints, so no lasso
    ends the run either.  The search's configuration budget equals the
    horizon, so it never cuts the run short."""
    result = play(
        TrivialTransactionalMemory(2),
        ComposedDriver(RandomScheduler(0), TransactionWorkload(2, 1)),
        max_steps=max_steps,
    )
    assert result.stop_reason == "max-steps"
    assert result.total_steps == max_steps
    assert result.lasso is None

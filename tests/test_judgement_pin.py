"""Pin on the judgement: every claim row and Figure 1 panel of the
experiments that judge cells at their defaults.

The digest covers the claim rows of each experiment and, where it has
one, its grid as ``grid_to_payload`` encodes it for campaign exports.
Any change to how a cell is judged (excluded or not, its certainty,
its evidence, or an undetermined flag) shows up as a new digest.
"""

import hashlib
import json

from repro.analysis.experiments import run_experiment
from repro.campaign.report import grid_to_payload

#: The experiments whose claims read a judged cell, in order.
JUDGING_EXPERIMENTS = ("fig1a", "fig1b", "thm52", "thm53", "cor46", "lem54", "sec53")
#: SHA-256 over one JSON line per experiment: its claim rows and grid.
JUDGEMENT_DIGEST = "2e238b40be46c637bd40f247c22ab63bc7715bf49bcbb22d3e8a4727b42f9d6b"


def test_every_judged_claim_and_grid_is_pinned():
    digest = hashlib.sha256()
    for experiment_id in JUDGING_EXPERIMENTS:
        result = run_experiment(experiment_id)
        grid = result.artifacts.get("grid")
        record = {
            "experiment": experiment_id,
            "claims": [list(row) for row in result.claim_rows()],
            "grid": None if grid is None else grid_to_payload(grid),
        }
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == JUDGEMENT_DIGEST

"""Experiment harness: registries, classification, reports."""

from repro.analysis.registry import (
    AGREEMENT_VALIDITY,
    COUNTEREXAMPLE_S,
    OPACITY,
    RegistryEntry,
    consensus_registry,
    entries_ensuring,
    tm_registry,
)
from repro.analysis.batteries import consensus_plays, tm_plays
from repro.analysis.classification import ClassifiedGrid, GridPoint, classify_grid
from repro.analysis.report import render_claims, render_grid, render_hasse
from repro.analysis.experiments import (
    EXPERIMENTS,
    Claim,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)

__all__ = [
    "AGREEMENT_VALIDITY",
    "COUNTEREXAMPLE_S",
    "OPACITY",
    "RegistryEntry",
    "consensus_registry",
    "entries_ensuring",
    "tm_registry",
    "ClassifiedGrid",
    "GridPoint",
    "classify_grid",
    "render_claims",
    "render_grid",
    "render_hasse",
    "EXPERIMENTS",
    "Claim",
    "ExperimentResult",
    "ExperimentSpec",
    "consensus_plays",
    "run_experiment",
    "tm_plays",
]

"""The cyclic collector and the verifier: checkers leave no reference
cycles behind, ``verify()`` runs under one scoped collector policy that
it undoes exactly, and collector time shows in the metrics document
(``gc/*`` spans) only while a recorder is active.  See
docs/architecture.md, "Memory and the cyclic collector"."""

from __future__ import annotations

import gc
import importlib

import pytest

from repro.core.properties import ConjunctionSafety, SafetyProperty, Verdict
from repro.fuzz.driver import FuzzDriver
from repro.objects.consensus import AgreementValidity
from repro.objects.counterexample_s import TimestampAbortRule, counterexample_safety
from repro.objects.opacity import OpacityChecker, StrictSerializability
from repro.objects.set_agreement import KSetAgreement
from repro.objects.mutex import MutualExclusionChecker
from repro.obs import recording
from repro.obs.recorder import _time_collection
from repro.scenarios import get_scenario, verify

# The module, not the function of the same name the package exports.
verify_module = importlib.import_module("repro.scenarios.verify")


class _Collect(SafetyProperty):
    """Keeps every history the fuzz driver hands it; judges nothing."""

    name = "collect"

    def __init__(self):
        self.histories = []

    def check_history(self, history):
        self.histories.append(history)
        return Verdict.passed()


def _fuzz_histories(scenario_id, iterations=60):
    """The distinct histories of seeded fuzz walks of a catalog scenario."""
    scenario = get_scenario(scenario_id)
    collect = _Collect()
    FuzzDriver(
        scenario.factory, scenario.plan, safety=collect, seed=3, max_depth=40
    ).run(iterations)
    return collect.histories


#: Every shipped safety property, each on histories of a catalog
#: scenario of its object type.
CHECKERS = {
    "opacity": (OpacityChecker, "agp-opacity-3p"),
    "strict-serializability": (StrictSerializability, "agp-opacity-3p"),
    "agreement-validity": (AgreementValidity, "consensus-grid:impl=cas,n=3,proposals=alt"),
    "mutual-exclusion": (MutualExclusionChecker, "lock-mutex:impl=bakery,n=2,rounds=1"),
    "k-set-agreement": (lambda: KSetAgreement(2), "consensus-grid:impl=cas,n=3,proposals=alt"),
    "timestamp-abort-rule": (TimestampAbortRule, "agp-opacity-3p"),
    "conjunction": (counterexample_safety, "agp-opacity-3p"),
}


@pytest.fixture
def collector_state():
    """Restore the process's collector settings after the test."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    yield
    gc.set_threshold(*thresholds)
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_checking_leaves_no_reference_cycles(name, collector_state):
    factory, scenario_id = CHECKERS[name]
    histories = _fuzz_histories(scenario_id)
    assert len(histories) > 5
    gc.collect()
    gc.disable()
    checker = factory()
    if name == "conjunction":
        assert isinstance(checker, ConjunctionSafety)
    verdicts = [checker.check_history(history) for history in histories]
    assert all(isinstance(verdict, Verdict) for verdict in verdicts)
    del checker, verdicts
    assert gc.collect() == 0


class TestCollectorPolicy:
    CUSTOM = (650, 9, 8)

    def _observe(self, monkeypatch, body):
        """Route the exhaustive backend through ``body``, which sees the
        collector settings the verify runs under."""
        original = verify_module._verify_exhaustive
        seen = []

        def backend(scenario, overrides):
            seen.append((gc.get_threshold(), gc.isenabled()))
            return body(original, scenario, overrides)

        monkeypatch.setattr(verify_module, "_verify_exhaustive", backend)
        return seen

    def test_restored_on_return(self, monkeypatch, collector_state):
        seen = self._observe(monkeypatch, lambda run, s, o: run(s, o))
        gc.set_threshold(*self.CUSTOM)
        verdict = verify("agp-opacity", backend="exhaustive")
        assert verdict.outcome == "holds"
        assert seen == [((verify_module.YOUNG_GC_THRESHOLD, 9, 8), True)]
        assert gc.get_threshold() == self.CUSTOM
        assert gc.isenabled()

    def test_restored_on_error(self, monkeypatch, collector_state):
        def fail(run, scenario, overrides):
            raise RuntimeError("boom")

        self._observe(monkeypatch, fail)
        gc.set_threshold(*self.CUSTOM)
        with pytest.raises(RuntimeError, match="boom"):
            verify("agp-opacity", backend="exhaustive")
        assert gc.get_threshold() == self.CUSTOM
        assert gc.isenabled()

    def test_restored_after_nested_verify(self, monkeypatch, collector_state):
        def nested(run, scenario, overrides):
            inner = verify("agp-opacity", backend="fuzz", iterations=20)
            assert inner.outcome == "holds"
            # The inner verify restored the outer one's policy.
            assert gc.get_threshold()[0] == verify_module.YOUNG_GC_THRESHOLD
            return run(scenario, overrides)

        self._observe(monkeypatch, nested)
        gc.set_threshold(*self.CUSTOM)
        verify("agp-opacity", backend="exhaustive")
        assert gc.get_threshold() == self.CUSTOM
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(
        self, monkeypatch, collector_state
    ):
        seen = self._observe(monkeypatch, lambda run, s, o: run(s, o))
        gc.set_threshold(*self.CUSTOM)
        gc.disable()
        verify("agp-opacity", backend="exhaustive")
        assert seen[0][1] is False
        assert gc.get_threshold() == self.CUSTOM
        assert not gc.isenabled()

    def test_collection_off_by_threshold_stays_off(
        self, monkeypatch, collector_state
    ):
        seen = self._observe(monkeypatch, lambda run, s, o: run(s, o))
        gc.set_threshold(0, 9, 8)
        verify("agp-opacity", backend="exhaustive")
        assert seen[0][0] == (0, 9, 8)
        assert gc.get_threshold() == (0, 9, 8)


class TestCollectorMetrics:
    def _collecting(self, monkeypatch):
        original = verify_module._verify_exhaustive

        def backend(scenario, overrides):
            gc.collect(0)
            return original(scenario, overrides)

        monkeypatch.setattr(verify_module, "_verify_exhaustive", backend)

    def test_gc_spans_only_while_recording(self, monkeypatch):
        self._collecting(monkeypatch)
        assert _time_collection not in gc.callbacks
        plain = verify("agp-opacity", backend="exhaustive")
        assert "metrics" not in plain.stats
        with recording(label="session") as session:
            assert _time_collection in gc.callbacks
            verdict = verify("agp-opacity", backend="exhaustive")
        assert _time_collection not in gc.callbacks
        spans = verdict.metrics["spans"]
        assert spans["gc/gen0"]["count"] >= 1
        assert spans["gc/gen0"]["total_s"] >= 0
        # Collections are not deterministic: never a counter.
        assert not any(name.startswith("gc/") for name in verdict.metrics["counters"])
        # The session recorder absorbed the per-verify spans.
        assert session.spans["gc/gen0"][0] >= spans["gc/gen0"]["count"]
        # Serialized verdicts do not see the metrics at all.
        assert "metrics" not in verdict.to_document()["stats"]
        assert set(verdict.to_document()["stats"]) == set(plain.to_document()["stats"])

    def test_full_collection_is_a_gen2_span(self):
        with recording() as recorder:
            gc.collect()
        assert recorder.spans["gc/gen2"][0] >= 1
        assert _time_collection not in gc.callbacks

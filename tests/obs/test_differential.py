"""Telemetry observes, never decides.

That an instrumented run gives verdicts field-for-field identical
(``MutationRun.same_results``) to a plain run, on either engine and at
every store temperature, is checked by the telemetry-on cells of the
configuration lattice (``test_config_lattice.py``).  Here each mutant's
span must carry its outcome's verdict, and the "off means off" contract
holds: a default (un-instrumented) analysis never reaches the emitter.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.obs import MemorySink, Telemetry

SEEDS = (20010701, 7, 99)
MUTANT_COUNT = 20


def small_suite(seed: int):
    """A compact suite whose cases all visit the mutated methods."""
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:50]
    return replace(suite, cases=relevant)


def oracle():
    return experiment_oracle(CSortableObList.__tspec__)


@pytest.fixture(scope="module")
def findmax_mutants():
    mutants, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return mutants[:MUTANT_COUNT]


@pytest.fixture(scope="module")
def plain_runs(findmax_mutants):
    """Per seed: the un-instrumented, cache-less baseline run."""
    return {
        seed: MutationAnalysis(
            CSortableObList, small_suite(seed), oracle=oracle()
        ).analyze(findmax_mutants)
        for seed in SEEDS
    }


class TestSameResultsOnVsOff:
    """Span attributes mirror the run's outcomes."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutant_spans_carry_verdict_attrs(self, seed, findmax_mutants,
                                              plain_runs):
        """Span attributes mirror the run's outcomes exactly."""
        sink = MemorySink()
        observed = MutationAnalysis(
            CSortableObList, small_suite(seed), oracle=oracle(),
            telemetry=Telemetry(sink=sink),
        ).analyze(findmax_mutants)
        assert observed.same_results(plain_runs[seed])
        by_ident = {
            event["attrs"]["mutant"]: event["attrs"]
            for event in sink.events
            if event["kind"] == "span" and event["name"] == "analysis.mutant"
        }
        for outcome in observed.outcomes:
            attrs = by_ident[outcome.mutant.ident]
            assert attrs["killed"] == outcome.killed
            assert attrs["reason"] == outcome.reason.value
            assert attrs["cases_run"] == outcome.cases_run
            assert attrs["cases_skipped"] == outcome.cases_skipped


class TestZeroEventsWhenDisabled:
    """A default (telemetry-less) analysis never reaches the emitter."""

    def test_default_analysis_emits_nothing(self, findmax_mutants,
                                            monkeypatch, tmp_path):
        def explode(self, event):
            raise AssertionError("disabled telemetry emitted an event")

        monkeypatch.setattr(Telemetry, "_emit", explode)
        run = MutationAnalysis(
            CSortableObList, small_suite(SEEDS[0]), oracle=oracle(),
            cache=MutationOutcomeCache(tmp_path / "outcomes"),
        ).analyze(findmax_mutants[:5])
        assert len(run.outcomes) == 5

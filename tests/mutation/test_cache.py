"""Tests for the incremental mutation-outcome cache.

That a warm run is ``same_results``-identical to a fresh one, on either
engine and whichever configuration filled the store, is checked by the
warm cells of the configuration lattice (``test_config_lattice.py``).
Here a fully warm run must execute **zero** mutant test cases (every
lookup hits; the class builder is never invoked), a partly warm run only
the new mutants, and the engine picker must pass the store on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis, analyze_mutants
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants

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


#: Call counter for the builder below — module-level so the builder
#: function itself has a stable (picklable, fingerprintable) identity.
BUILD_CALLS = {"count": 0}


def counting_builder(mutant):
    BUILD_CALLS["count"] += 1
    return mutant.build_class()


@pytest.fixture(scope="module")
def findmax_mutants():
    mutants, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return mutants[:MUTANT_COUNT]


class TestWarmEqualsFresh:
    """Without a store a run reports no store counters."""

    def test_run_without_cache_has_no_stats(self, findmax_mutants):
        fresh = MutationAnalysis(
            CSortableObList, small_suite(SEEDS[0]), oracle=oracle()
        ).analyze(findmax_mutants)
        assert fresh.cache_stats is None


class TestZeroExecutionOnFullHit:
    """A fully warm run never builds (hence never executes) a mutant."""

    def test_builder_never_invoked_on_warm_run(self, findmax_mutants, tmp_path):
        suite = small_suite(SEEDS[0])
        cache = MutationOutcomeCache(tmp_path)
        BUILD_CALLS["count"] = 0
        cold = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(),
            class_builder=counting_builder, cache=cache,
        ).analyze(findmax_mutants)
        assert BUILD_CALLS["count"] == len(findmax_mutants)

        BUILD_CALLS["count"] = 0
        warm = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(),
            class_builder=counting_builder, cache=cache,
        ).analyze(findmax_mutants)
        assert BUILD_CALLS["count"] == 0  # zero mutant test cases executed
        assert warm.same_results(cold)

    def test_partial_hit_executes_only_new_mutants(self, findmax_mutants,
                                                   tmp_path):
        suite = small_suite(SEEDS[0])
        cache = MutationOutcomeCache(tmp_path)
        head = findmax_mutants[:-1]
        MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache
        ).analyze(head)
        warm = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache
        ).analyze(findmax_mutants)
        assert warm.cache_stats.hits == len(head)
        assert warm.cache_stats.misses == 1


class TestCrossEngineSharing:
    """The engine picker hands the store to the pool engine."""

    def test_analyze_mutants_dispatch_passes_cache(self, findmax_mutants,
                                                   tmp_path):
        suite = small_suite(SEEDS[2])
        cache = MutationOutcomeCache(tmp_path)
        cold = analyze_mutants(
            CSortableObList, suite, findmax_mutants[:5],
            oracle=oracle(), cache=cache,
        )
        warm = analyze_mutants(
            CSortableObList, suite, findmax_mutants[:5],
            oracle=oracle(), cache=cache, workers=2,
        )
        assert warm.same_results(cold)
        assert warm.cache_stats.hits == 5

"""Tests for the incremental mutation-outcome store: one record per run.

That a warm run is ``same_results``-identical to a fresh one, on either
engine and whichever configuration filled the store, is checked by the
warm cells of the configuration lattice (``test_config_lattice.py``).
Here a warm run must execute **zero** mutant test cases (the class
builder is never invoked), an unfinished run must store nothing, the
engine picker must pass the store on, and each run must count its own
lookup.  What the run key covers, and damaged run records, are
``test_cache_invalidation.py``'s.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis, analyze_mutants
from repro.mutation.cache import CacheStats, MutationOutcomeCache
from repro.mutation.generate import generate_mutants

SEEDS = (20010701, 7, 99)
MUTANT_COUNT = 20


def small_suite(seed: int = SEEDS[0], limit: int = 50):
    """A compact suite whose cases all visit the mutated methods."""
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:limit]
    return replace(suite, cases=relevant)


def oracle():
    return experiment_oracle(CSortableObList.__tspec__)


#: Call counter for the builder below — module-level so the builder
#: function itself has a stable (picklable, fingerprintable) identity.
BUILD_CALLS = {"count": 0}


def counting_builder(mutant):
    BUILD_CALLS["count"] += 1
    return mutant.build_class()


def battery_of(method):
    mutants, _ = generate_mutants(
        CSortableObList, [method], type_model=OBLIST_TYPE_MODEL
    )
    return mutants


@pytest.fixture(scope="module")
def findmax_mutants():
    return battery_of("FindMax")[:MUTANT_COUNT]


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

    def test_interrupted_run_stores_nothing(self, findmax_mutants, tmp_path):
        def failing_builder(mutant):
            if mutant.ident == findmax_mutants[3].ident:
                raise RuntimeError("interrupted")
            return mutant.build_class()

        cache = MutationOutcomeCache(tmp_path)
        with pytest.raises(RuntimeError, match="interrupted"):
            MutationAnalysis(
                CSortableObList, small_suite(), oracle=oracle(),
                class_builder=failing_builder, cache=cache,
            ).analyze(findmax_mutants)
        assert cache.live_records() == 0


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


# -- per-run stats ------------------------------------------------------------


def test_runs_sharing_a_store_on_two_threads_count_their_own_lookup(
        tmp_path):
    """Each run's stats come from its own lookup, whatever else the
    shared store serves meanwhile.  The two batteries share their idents
    (M0001-M0051)."""
    suite = small_suite(limit=40)
    batteries = {method: battery_of(method) for method in ("FindMax",
                                                           "FindMin")}
    assert [len(battery) for battery in batteries.values()] == [51, 51]
    cache = MutationOutcomeCache(tmp_path)

    def analyse_both():
        runs = {}

        def analyse(method):
            runs[method] = MutationAnalysis(
                CSortableObList, suite, oracle=oracle(), cache=cache,
                static_triage=False,
            ).analyze(batteries[method])

        threads = [threading.Thread(target=analyse, args=(method,))
                   for method in batteries]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert set(runs) == set(batteries)
        return runs

    for expected in (CacheStats(misses=51), CacheStats(hits=51)):
        for method, run in analyse_both().items():
            assert run.cache_stats == expected, (method, run.cache_stats)

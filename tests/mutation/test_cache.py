"""Tests for the incremental mutation-outcome store: one record per run.

That a warm run is ``same_results``-identical to a fresh one, on either
engine and whichever configuration filled the store, is checked by the
warm cells of the configuration lattice (``test_config_lattice.py``).
Here a warm run must execute **zero** mutant test cases (the class
builder is never invoked), an unfinished run must store nothing, the
engine picker must pass the store on, and each run must count its own
lookup.  The lookup comes first: a hit records no coverage, triages
nothing and starts no worker, and takes its reference from one plain
pass.  What the run key covers, and damaged run records, are
``test_cache_invalidation.py``'s.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

import repro.mutation.analysis as analysis_module
from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.core.errors import MutationError
from repro.generator.driver import DriverGenerator
from repro.harness.executor import TestExecutor
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis, analyze_mutants
from repro.mutation.cache import CacheStats, MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.obs import MemorySink, Telemetry

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


#: What :func:`recording_setup` and the reference pass did, in order.
EVENTS = []


def recording_setup():
    EVENTS.append("setup")


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


def spans(sink, name):
    return [event for event in sink.events
            if event["kind"] == "span" and event["name"] == name]


@pytest.fixture()
def counted(monkeypatch):
    """Calls to the coverage recorder and the triage pass, by name."""
    calls = {"record_coverage": 0, "triage_mutants": 0}
    for name in calls:
        def counting(*args, _name=name,
                     _function=getattr(analysis_module, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)
        monkeypatch.setattr(analysis_module, name, counting)
    return calls


class TestLookupComesFirst:
    """A hit runs nothing but its reference, plainly; a miss records."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hit_runs_only_the_plain_reference(self, workers, counted,
                                               findmax_mutants, tmp_path):
        suite = small_suite(SEEDS[0], limit=30)
        cache = MutationOutcomeCache(tmp_path)

        def run(telemetry=None):
            return analyze_mutants(
                CSortableObList, suite, findmax_mutants, workers=workers,
                oracle=oracle(), cache=cache, telemetry=telemetry,
            )

        cold = run()
        assert counted == {"record_coverage": 1, "triage_mutants": 1}
        sink = MemorySink()
        warm = run(Telemetry(sink=sink))
        assert counted == {"record_coverage": 1, "triage_mutants": 1}
        assert warm.cache_stats == CacheStats(hits=warm.dispatched_count)
        assert warm.same_results(cold)
        assert warm.reference == cold.reference
        [reference] = spans(sink, "analysis.reference")
        assert reference["attrs"]["recorded"] is False
        assert len(spans(sink, "executor.case")) == len(suite.cases)
        for name in ("analysis.mutant", "triage.run", "parallel.run"):
            assert spans(sink, name) == []

    def test_hit_runs_setup_before_its_plain_reference(
            self, findmax_mutants, tmp_path, monkeypatch):
        class RecordingExecutor(TestExecutor):
            def run_suite(self, suite):
                EVENTS.append("reference")
                return super().run_suite(suite)

        monkeypatch.setattr(analysis_module, "TestExecutor",
                            RecordingExecutor)
        cache = MutationOutcomeCache(tmp_path)
        runs = []
        for _ in range(2):
            EVENTS.clear()
            runs.append(MutationAnalysis(
                CSortableObList, small_suite(limit=20), oracle=oracle(),
                setup=recording_setup, cache=cache,
            ).analyze(findmax_mutants[:5]))
        cold, warm = runs
        assert warm.cache_stats == CacheStats(hits=warm.dispatched_count)
        assert EVENTS == ["setup", "reference"]
        assert warm.same_results(cold)

    def test_hit_uses_a_seeded_reference_as_it_is(self, counted,
                                                  findmax_mutants, tmp_path):
        suite = small_suite(SEEDS[0], limit=30)
        cache = MutationOutcomeCache(tmp_path)
        cold = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache,
        ).analyze(findmax_mutants)
        sink = MemorySink()
        warm = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache,
            reference=cold.reference, telemetry=Telemetry(sink=sink),
        ).analyze(findmax_mutants)
        assert warm.cache_stats == CacheStats(hits=warm.dispatched_count)
        assert warm.reference is cold.reference
        assert counted["record_coverage"] == 1
        assert spans(sink, "analysis.reference") == []
        assert spans(sink, "executor.case") == []

    def test_miss_refuses_a_budget_the_reference_reaches(
            self, counted, findmax_mutants, tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        with pytest.raises(MutationError, match="reaches the step budget"):
            MutationAnalysis(
                CSortableObList, small_suite(limit=30), oracle=oracle(),
                step_budget=5, cache=cache,
            ).analyze(findmax_mutants)
        assert counted == {"record_coverage": 1, "triage_mutants": 0}
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

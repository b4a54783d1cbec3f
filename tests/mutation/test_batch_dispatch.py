"""Batched dispatch: batches really form, and a poisoned batch harms one.

That batch size never moves a verdict is checked with every other run
setting by the configuration lattice (``test_config_lattice.py``).  Here,
batches of more than one mutant really go over the wire, a warm run ships
none, triage composes with batching, and the batch refinement of the
crash/hang rules holds: a mutant that kills or hangs its worker mid-batch
is the ONLY mutant classified at the process boundary — every batchmate
is re-run and keeps its serial-identical verdict.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import KillReason, experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.mutation.parallel import (
    ParallelMutationAnalysis,
    default_batch_size,
)
from repro.obs import MemorySink, Telemetry

from .test_parallel import CRASH_SOURCE, HANG_SOURCE, hostile_mutant

SEEDS = (20010701, 7, 99)
MUTANT_COUNT = 12


def small_suite(seed: int):
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:40]
    return replace(suite, cases=relevant)


def oracle():
    return experiment_oracle(CSortableObList.__tspec__)


@pytest.fixture(scope="module")
def mutants():
    pool, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return pool[:MUTANT_COUNT]


def batched(mutants, seed, *, workers=2, batch_size=None, cache=None,
            static_triage=True, telemetry=None, backstop=None):
    options = {}
    if backstop is not None:
        options["wall_clock_backstop"] = backstop
    return ParallelMutationAnalysis(
        CSortableObList, small_suite(seed), oracle=oracle(),
        workers=workers, batch_size=batch_size, cache=cache,
        static_triage=static_triage,
        triage_type_model=OBLIST_TYPE_MODEL if static_triage else None,
        telemetry=telemetry, **options,
    ).analyze(mutants)


class TestAdaptiveDefault:
    """The documented chunk formula, pinned."""

    def test_formula(self):
        assert default_batch_size(709, 2) == 44  # 709 // (8·2)
        assert default_batch_size(30, 2) == 1
        assert default_batch_size(100, 4) == 3
        assert default_batch_size(0, 2) == 1     # floor at one
        assert default_batch_size(5, 0) == 1     # degenerate worker count

    def test_explicit_batch_size_validated(self):
        with pytest.raises(ValueError):
            ParallelMutationAnalysis(
                CSortableObList, small_suite(SEEDS[0]), batch_size=0
            )


class TestBatchedEqualsSerial:
    """Batches of several mutants really form (the lattice checks that
    their verdicts equal the serial engine's)."""

    def test_batching_actually_batches(self, mutants):
        # Not just equivalence: with an explicit chunk of 5, multi-mutant
        # batches really go over the wire (visible as dispatch events
        # whose batch attr exceeds 1).
        telemetry = Telemetry(sink=(sink := MemorySink()))
        run = batched(mutants, SEEDS[0], workers=2, batch_size=5,
                      static_triage=False, telemetry=telemetry)
        telemetry.close()
        assert run.total == len(mutants)
        dispatches = [event for event in sink.events
                      if event.get("name") == "parallel.dispatch"]
        assert len(dispatches) == len(mutants)
        assert max(event["attrs"]["batch"] for event in dispatches) == 5
        tasks = [event for event in sink.events
                 if event.get("name") == "parallel.task"]
        assert len(tasks) == len(mutants)


class TestTriageOffDifferential:
    """Batching composes with triage exactly as the unbatched engine did."""

    @pytest.mark.parametrize("batch_size", (1, 7))
    def test_triage_off_matches_serial_off(self, batch_size, mutants):
        seed = SEEDS[1]
        serial_off = MutationAnalysis(
            CSortableObList, small_suite(seed), oracle=oracle(),
            static_triage=False,
        ).analyze(mutants)
        run = batched(mutants, seed, batch_size=batch_size,
                      static_triage=False)
        assert run.same_results(serial_off)

    def test_triage_on_off_same_verdicts(self, mutants):
        seed = SEEDS[1]
        serial = MutationAnalysis(
            CSortableObList, small_suite(seed), oracle=oracle(),
            static_triage=True, triage_type_model=OBLIST_TYPE_MODEL,
        ).analyze(mutants)
        on = batched(mutants, seed, batch_size=7, static_triage=True)
        off = batched(mutants, seed, batch_size=7, static_triage=False)
        assert on.same_verdicts(off)
        assert on.same_verdicts(serial)


class TestCacheMatrix:
    """A warm store keeps the pool idle."""

    def test_warm_run_ships_no_batches(self, mutants, tmp_path):
        seed = SEEDS[2]
        cache = MutationOutcomeCache(tmp_path)
        batched(mutants, seed, batch_size=7, cache=cache)
        telemetry = Telemetry(sink=(sink := MemorySink()))
        warm = batched(mutants, seed, batch_size=7, cache=cache,
                       telemetry=telemetry)
        telemetry.close()
        assert warm.cache_stats.misses == 0
        assert not any(event.get("name") == "parallel.dispatch"
                       for event in sink.events)


class TestPoisonedBatch:
    """One hostile mutant inside a batch kills only itself."""

    def test_crashing_batchmate_classified_alone(self, mutants):
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0101", CRASH_SOURCE)
        battery = list(mutants[:2]) + [hostile] + list(mutants[2:8])
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=2,
            batch_size=5, static_triage=False,
        ).analyze(battery)

        assert run.total == len(battery)
        poisoned = run.outcomes[2]
        assert poisoned.killed
        assert poisoned.reason is KillReason.WORKER_CRASH
        assert "exitcode" in poisoned.detail
        # Every batchmate survived the crash with its serial verdict.
        serial = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), static_triage=False,
        ).analyze(battery[:2] + battery[3:])
        assert run.outcomes[:2] == serial.outcomes[:2]
        assert run.outcomes[3:] == serial.outcomes[2:]
        crash_kills = [outcome for outcome in run.outcomes
                       if outcome.reason is KillReason.WORKER_CRASH]
        assert len(crash_kills) == 1

    def test_hanging_batchmate_classified_alone(self, mutants):
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0102", HANG_SOURCE)
        battery = list(mutants[:2]) + [hostile] + list(mutants[2:6])
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=2,
            batch_size=4, static_triage=False, wall_clock_backstop=1.5,
        ).analyze(battery)

        assert run.total == len(battery)
        poisoned = run.outcomes[2]
        assert poisoned.killed
        assert poisoned.reason is KillReason.WALL_TIMEOUT
        assert "backstop" in poisoned.detail
        serial = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), static_triage=False,
        ).analyze(battery[:2] + battery[3:])
        assert run.outcomes[:2] == serial.outcomes[:2]
        assert run.outcomes[3:] == serial.outcomes[2:]
        timeout_kills = [outcome for outcome in run.outcomes
                         if outcome.reason is KillReason.WALL_TIMEOUT]
        assert len(timeout_kills) == 1

    def test_whole_pool_batch_with_crasher_completes(self, mutants):
        # The most concentrated case: ONE batch holds the entire battery,
        # so the crash invalidates every in-flight assignment at once.
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0103", CRASH_SOURCE)
        battery = [hostile] + list(mutants[:5])
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=1,
            batch_size=len(battery), static_triage=False,
        ).analyze(battery)
        assert run.total == len(battery)
        assert run.outcomes[0].reason is KillReason.WORKER_CRASH
        serial = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), static_triage=False,
        ).analyze(battery[1:])
        assert run.outcomes[1:] == serial.outcomes

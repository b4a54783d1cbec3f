"""Robustness and plumbing tests for the parallel mutation engine.

That the parallel ``MutationRun`` equals the serial run outcome for
outcome (killed flag, ``KillReason``, ``killing_case``, ``cases_run``,
sandbox timeouts) at every worker count is checked by the configuration
lattice (``test_config_lattice.py``).  Here the engine is fed hostile
mutants — one that kills its worker process outright and one that hangs
past the wall-clock backstop — and the paper's "program crashed" clause
must be applied at the process boundary while every remaining mutant
still runs; the battery may be any iterable, and mutants survive the
process boundary as the module code the generator compiled.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import KillReason, experiment_oracle
from repro.mutation.analysis import MutationAnalysis, analyze_mutants
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.mutation.mutant import (
    CompiledMutant, Mutant, compile_mutant_function,
)
from repro.mutation.parallel import ParallelMutationAnalysis, WorkerPool

SEEDS = (20010701, 7, 99)


def small_suite(seed: int):
    """A compact suite whose cases all visit the mutated methods."""
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:60]
    return replace(suite, cases=relevant)


def oracle():
    return experiment_oracle(CSortableObList.__tspec__)


@pytest.fixture(scope="module")
def findmax_mutants():
    mutants, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return mutants[:30]


class TestSerialEquivalence:
    """The engine picker and the degenerate battery."""

    def test_analyze_mutants_workers_dispatch(self, findmax_mutants):
        suite = small_suite(SEEDS[1])
        serial = analyze_mutants(
            CSortableObList, suite, findmax_mutants[:5], oracle=oracle()
        )
        parallel = analyze_mutants(
            CSortableObList, suite, findmax_mutants[:5], oracle=oracle(),
            workers=2,
        )
        assert parallel.same_results(serial)

    def test_empty_battery(self):
        run = ParallelMutationAnalysis(
            CSortableObList, small_suite(SEEDS[0]), oracle=oracle(), workers=2
        ).analyze([])
        assert run.total == 0
        assert run.outcomes == ()


class TestBatteryAsGenerator:
    """Both engines take the battery as any iterable, read once."""

    @pytest.mark.parametrize("store", (False, True),
                             ids=("no-store", "store"))
    @pytest.mark.parametrize("static_triage", (True, False),
                             ids=("triage", "no-triage"))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_generator_gives_the_list_run(self, workers, static_triage,
                                          store, findmax_mutants, tmp_path):
        battery = findmax_mutants[:8]

        def run(mutants, name):
            return analyze_mutants(
                CSortableObList, small_suite(SEEDS[0]), mutants,
                workers=workers, oracle=oracle(),
                static_triage=static_triage,
                cache=MutationOutcomeCache(tmp_path / name) if store else None,
            )

        from_list = run(list(battery), "list")
        from_generator = run((mutant for mutant in battery), "generator")
        assert from_generator.total == len(battery)
        assert from_generator.same_results(from_list)


class TestMutantReconstruction:
    """Mutants must round-trip the process boundary as their compiled code."""

    def test_pickle_roundtrip_preserves_record_and_owner(self, findmax_mutants):
        original = findmax_mutants[0]
        clone = pickle.loads(pickle.dumps(original))
        assert clone.record == original.record
        assert clone.owner is original.owner
        assert clone.function is not original.function  # defined anew

    def test_reconstructed_mutant_behaves_identically(self, findmax_mutants):
        original = findmax_mutants[0]
        clone = pickle.loads(pickle.dumps(original))
        suite = small_suite(SEEDS[0])
        run_a = MutationAnalysis(
            CSortableObList, suite, oracle=oracle()
        ).analyze([original])
        run_b = MutationAnalysis(
            CSortableObList, suite, oracle=oracle()
        ).analyze([clone])
        assert run_a.same_results(run_b)


# ---------------------------------------------------------------------------
# Hostile-mutant fixtures (the paper's "program crashed" clause)
# ---------------------------------------------------------------------------

#: A mutant whose method takes the entire worker process down.
CRASH_SOURCE = (
    "def FindMax(self):\n"
    "    import os\n"
    "    os._exit(23)\n"
)

#: A mutant that blocks in C-level sleeps: line events accumulate far too
#: slowly for the step budget to matter, so only wall-clock observes it.
HANG_SOURCE = (
    "def FindMax(self):\n"
    "    import time\n"
    "    while True:\n"
    "        time.sleep(0.005)\n"
)


def hostile_mutant(ident: str, source: str):
    record = Mutant(
        ident=ident,
        operator="IndVarRepReq",
        class_name="CSortableObList",
        method_name="FindMax",
        variable="pos",
        occurrence=0,
        line=1,
        replacement="0",
        description="hostile fixture mutant",
        mutated_source=source,
    )
    return CompiledMutant(record, CSortableObList,
                          *compile_mutant_function(record, CSortableObList))


class TestWorkerCrashRobustness:
    def test_crashing_mutant_killed_with_distinct_reason(self, findmax_mutants):
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0001", CRASH_SOURCE)
        tail = list(findmax_mutants[:6])
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=2,
        ).analyze([hostile] + tail)

        assert run.total == 7
        first = run.outcomes[0]
        assert first.killed
        assert first.reason is KillReason.WORKER_CRASH
        assert "exitcode" in first.detail
        assert first.killing_case == ""
        assert first.cases_run == 0
        # The engine completed every remaining mutant, serial-identically.
        serial_tail = MutationAnalysis(
            CSortableObList, suite, oracle=oracle()
        ).analyze(tail)
        assert run.outcomes[1:] == serial_tail.outcomes

    def test_crash_counts_as_kill_in_reason_tally(self, findmax_mutants):
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0003", CRASH_SOURCE)
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=2,
        ).analyze([hostile, findmax_mutants[0]])
        counts = run.kill_reason_counts()
        assert counts[KillReason.WORKER_CRASH.value] == 1


class TestWallClockBackstopRobustness:
    def test_hanging_mutant_killed_and_engine_completes(self, findmax_mutants):
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0002", HANG_SOURCE)
        tail = list(findmax_mutants[:4])
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=2,
            wall_clock_backstop=1.5,
        ).analyze([hostile] + tail)

        assert run.total == 5
        first = run.outcomes[0]
        assert first.killed
        assert first.reason is KillReason.WALL_TIMEOUT
        assert "backstop" in first.detail
        assert first.cases_run == 0
        serial_tail = MutationAnalysis(
            CSortableObList, suite, oracle=oracle()
        ).analyze(tail)
        assert run.outcomes[1:] == serial_tail.outcomes

    def test_invalid_backstop_rejected(self):
        with pytest.raises(ValueError):
            ParallelMutationAnalysis(
                CSortableObList, small_suite(SEEDS[0]),
                wall_clock_backstop=0.0,
            )

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_counts_below_one_rejected(self, workers):
        # ``analyze_mutants`` ran the serial engine at 0, and the engine
        # clamped -3 to one worker.
        suite = small_suite(SEEDS[0])
        with pytest.raises(ValueError, match="workers must be at least 1"):
            analyze_mutants(CSortableObList, suite, [], workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ParallelMutationAnalysis(CSortableObList, suite, workers=workers)


class TestCrashAndHangVerdictsNeverStored:
    """Worker-boundary kills depend on scheduling, not on fingerprinted
    input, so a run holding one is never stored."""

    def test_boundary_kills_miss_again_when_warm(self, findmax_mutants,
                                                 tmp_path):
        suite = small_suite(SEEDS[0])
        crasher = hostile_mutant("X0004", CRASH_SOURCE)
        hanger = hostile_mutant("X0005", HANG_SOURCE)
        ordinary = list(findmax_mutants[:4])
        battery = [crasher] + ordinary[:2] + [hanger] + ordinary[2:]
        expected = {crasher.ident: KillReason.WORKER_CRASH,
                    hanger.ident: KillReason.WALL_TIMEOUT}

        with WorkerPool() as pool:
            def run():
                engine = ParallelMutationAnalysis(
                    CSortableObList, suite, oracle=oracle(), workers=2,
                    wall_clock_backstop=1.5, static_triage=False,
                    cache=MutationOutcomeCache(tmp_path), pool=pool,
                )
                return engine, engine.analyze(battery)

            engine, cold = run()
            assert cold.cache_stats.misses == len(battery)
            reasons = {outcome.mutant.ident: outcome.reason
                       for outcome in cold.outcomes}
            assert {ident: reasons[ident] for ident in expected} == expected

            store = MutationOutcomeCache(tmp_path)
            assert store.live_records() == 0
            assert store.lookup(engine.run_fingerprint(battery)) == (None,
                                                                      False)

            # The rerun misses and executes again: the boundary kills
            # recur, which only running the mutants can produce.
            _, rerun = run()
            assert rerun.cache_stats.hits == 0
            assert rerun.cache_stats.misses == len(battery)
            reasons = {outcome.mutant.ident: outcome.reason
                       for outcome in rerun.outcomes}
            assert {ident: reasons[ident] for ident in expected} == expected
            assert rerun.same_results(cold)
            assert MutationOutcomeCache(tmp_path).live_records() == 0

"""Differential tests for coverage-guided mutant×case pruning.

The pruned≡unpruned guarantee, checked the same way the parallel engine's
serial-equivalence and the cache's warm≡cold are: for every seed and worker
count, a pruned run must pass ``same_results`` against the exhaustive run —
identical verdicts, kill reasons, killing cases, details and sandbox-timeout
counts — while executing strictly fewer test cases.

Soundness hinges on coverage being *dynamic*: ``Sort1``/``Sort2``/
``ShellSort`` reach ``IsSorted`` only through their postcondition check,
never through a test step, so a statically derived matrix would prune the
exact cases able to kill an ``IsSorted`` mutant.  The indirect-kill tests
below pin that down.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from dataclasses import replace

import pytest

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.coverage import CoverageMatrix, record_coverage
from repro.mutation.generate import generate_mutants
from repro.mutation.parallel import ParallelMutationAnalysis

SEEDS = (20010701, 7, 99)
WORKER_COUNTS = (1, 2)
MUTANT_COUNT = 15

SORT_METHODS = ("Sort1", "Sort2", "ShellSort")


def mixed_suite(seed: int, limit: int = 60):
    """A suite slice that mixes covering and non-covering cases."""
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    return replace(suite, cases=suite.cases[:limit])


def indirect_suite(seed: int, limit: int = 40):
    """Cases that run a sort but never name ``IsSorted`` in a step.

    These reach ``IsSorted`` *only* through the sorts' postcondition —
    the edge static step inspection cannot see.
    """
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in SORT_METHODS for step in case.steps)
        and not any(step.method_name == "IsSorted" for step in case.steps)
    )[:limit]
    assert relevant, "seed produced no sort-without-IsSorted cases"
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


@pytest.fixture(scope="module")
def issorted_mutants():
    mutants, _ = generate_mutants(
        CSortableObList, ["IsSorted"], type_model=OBLIST_TYPE_MODEL
    )
    return mutants


class TestMatrixRecording:
    def test_dynamic_coverage_includes_stepped_methods(self):
        suite = mixed_suite(SEEDS[0], limit=30)
        reference, matrix = record_coverage(CSortableObList, suite)
        assert reference.all_passed
        assert len(matrix) == len(suite)
        # Plain processing/access methods only: constructor and destructor
        # steps use t-spec names ("CSortableObList"/"~…"), not the Python
        # method names frames carry.
        cut_methods = {
            method.name for method in CSortableObList.__tspec__.methods
            if hasattr(CSortableObList, method.name)
        }
        for case in suite.cases:
            stepped = {
                step.method_name for step in case.steps
                if step.method_name in cut_methods
            }
            # Dynamic coverage is a superset of the statically visible calls.
            assert stepped <= matrix.methods_of(case.ident)

    def test_indirect_postcondition_calls_are_covered(self):
        suite = indirect_suite(SEEDS[0], limit=20)
        _, matrix = record_coverage(CSortableObList, suite)
        for case in suite.cases:
            # No step names IsSorted, yet every case runs a sort whose
            # postcondition calls it — dynamic coverage must see that.
            assert "IsSorted" in matrix.methods_of(case.ident)
            assert matrix.covers(case.ident, "IsSorted")

    def test_inherited_base_methods_are_covered(self):
        # Experiment 2's shape: the executed class is the subclass, the
        # mutated methods live in the base.  Frames carry CObList code
        # objects; the MRO-wide code map must still resolve them.
        suite = mixed_suite(SEEDS[0], limit=30)
        _, matrix = record_coverage(CSortableObList, suite)
        base_methods = {
            name for name, attribute in vars(CObList).items()
            if callable(attribute) and not name.startswith("_")
        }
        covered_anywhere = set().union(
            *(matrix.methods_of(case.ident) for case in suite.cases)
        )
        assert covered_anywhere & base_methods

    def test_unknown_case_is_conservatively_covered(self):
        matrix = CoverageMatrix(
            class_name="X", methods_by_case={"c1": frozenset({"FindMax"})}
        )
        assert matrix.covers("never-recorded", "anything")
        assert not matrix.covers("c1", "FindMin")
        assert matrix.covers("c1", "FindMax")

    def test_traced_reference_identical_to_untraced(self):
        from repro.harness.executor import TestExecutor

        suite = mixed_suite(SEEDS[1], limit=25)
        traced, _ = record_coverage(CSortableObList, suite)
        untraced = TestExecutor(CSortableObList).run_suite(suite)
        assert traced == untraced

    def test_fingerprint_deterministic_and_content_sensitive(self):
        suite = mixed_suite(SEEDS[0], limit=20)
        _, first = record_coverage(CSortableObList, suite)
        _, second = record_coverage(CSortableObList, suite)
        assert first.fingerprint() == second.fingerprint()
        _, other = record_coverage(CSortableObList, mixed_suite(SEEDS[1], 20))
        assert first.fingerprint() != other.fingerprint()

    def test_density_observability(self):
        suite = mixed_suite(SEEDS[0], limit=30)
        _, matrix = record_coverage(CSortableObList, suite)
        density = matrix.density("FindMax")
        assert 0.0 <= density <= 1.0
        assert len(matrix.cases_covering("FindMax")) == round(
            density * len(matrix)
        )


def called_after_the_reference_pass():
    return sum(range(10))


class TestExternalProfilers:
    """The recorder borrows the profile hook and must hand it back."""

    def test_cprofile_records_calls_after_the_reference_pass(self):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            _, matrix = record_coverage(
                CSortableObList, mixed_suite(SEEDS[0], limit=10)
            )
            called_after_the_reference_pass()
        finally:
            profiler.disable()
        assert len(matrix) == 10
        functions = {name for _, _, name in pstats.Stats(profiler).stats}
        assert "called_after_the_reference_pass" in functions

    def test_python_profile_hook_is_restored(self):
        def hook(frame, event, arg):  # noqa: ARG001 — sys.setprofile API
            pass

        sys.setprofile(hook)
        try:
            record_coverage(CSortableObList, mixed_suite(SEEDS[0], limit=3))
            assert sys.getprofile() is hook
        finally:
            sys.setprofile(None)


class TestPrunedEqualsUnpruned:
    """3 seeds × workers {1, 2}: pruned ≡ exhaustive, modulo case counters."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_differential(self, seed, workers, findmax_mutants):
        suite = mixed_suite(seed)

        def run(prune):
            engine = (ParallelMutationAnalysis if workers > 1
                      else MutationAnalysis)
            return engine(
                CSortableObList, suite, oracle=oracle(), prune=prune,
                **({"workers": workers} if workers > 1 else {}),
            ).analyze(findmax_mutants)

        pruned = run(prune=True)
        exhaustive = run(prune=False)

        assert pruned.same_results(exhaustive)
        assert pruned.step_timeouts == exhaustive.step_timeouts
        for mine, theirs in zip(pruned.outcomes, exhaustive.outcomes):
            assert mine.killed == theirs.killed
            assert mine.reason is theirs.reason
            assert mine.killing_case == theirs.killing_case
            assert mine.killing_cases == theirs.killing_cases
            assert mine.detail == theirs.detail
        # The whole point: strictly fewer cases executed, the difference
        # fully accounted for by the skip counters.
        assert pruned.cases_skipped > 0
        assert pruned.cases_executed < exhaustive.cases_executed
        assert exhaustive.cases_skipped == 0

    @pytest.mark.parametrize("stop_on_first_kill", (True, False))
    def test_case_counters_follow_suite_order(self, findmax_mutants,
                                              stop_on_first_kill):
        # A killed mutant (stopping at the kill) counts only the cases up
        # to its killing case; every other mutant counts the whole suite.
        suite = mixed_suite(SEEDS[0])
        analysis = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(),
            stop_on_first_kill=stop_on_first_kill, static_triage=False,
        )
        run = analysis.analyze(findmax_mutants)
        matrix = analysis.coverage_matrix()
        order = [case.ident for case in suite.cases]
        cut_short = 0
        for outcome in run.outcomes:
            considered = order
            if outcome.killed and stop_on_first_kill:
                considered = order[:order.index(outcome.killing_case) + 1]
            skipped = sum(
                not matrix.covers(ident, outcome.mutant.method_name)
                for ident in considered
            )
            assert outcome.cases_skipped == skipped
            assert outcome.cases_run == len(considered) - skipped
            cut_short += len(considered) < len(order)
        assert cut_short > 0 if stop_on_first_kill else cut_short == 0

    def test_exhaustive_run_records_no_matrix(self, findmax_mutants):
        analysis = MutationAnalysis(
            CSortableObList, mixed_suite(SEEDS[0]), oracle=oracle(),
            prune=False,
        )
        assert analysis.coverage_matrix() is None
        run = analysis.analyze(findmax_mutants[:3])
        assert run.cases_skipped == 0


class TestIndirectKillSoundness:
    """Mutants in ``IsSorted``, reached only through postconditions.

    If pruning consulted static step names it would skip every case of
    ``indirect_suite`` for these mutants and the kills would vanish; the
    dynamic matrix keeps them.
    """

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_indirect_kills_survive_pruning(self, seed, workers,
                                            issorted_mutants):
        suite = indirect_suite(seed)

        def run(prune):
            engine = (ParallelMutationAnalysis if workers > 1
                      else MutationAnalysis)
            return engine(
                CSortableObList, suite, oracle=oracle(), prune=prune,
                **({"workers": workers} if workers > 1 else {}),
            ).analyze(issorted_mutants)

        pruned = run(prune=True)
        exhaustive = run(prune=False)
        assert pruned.same_results(exhaustive)
        # The suite must actually be able to kill through the indirect
        # edge, otherwise this test proves nothing.
        assert pruned.killed
        for mine, theirs in zip(pruned.outcomes, exhaustive.outcomes):
            assert mine.killed == theirs.killed
            assert mine.killing_case == theirs.killing_case


class TestCacheIsolation:
    """Pruned and unpruned entries never cross-contaminate one store."""

    def test_unpruned_entries_invisible_to_pruned_run(self, findmax_mutants,
                                                      tmp_path):
        suite = mixed_suite(SEEDS[0])
        cache = MutationOutcomeCache(tmp_path)
        cold_unpruned = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache, prune=False,
        ).analyze(findmax_mutants)
        assert cold_unpruned.cache_stats.misses == len(findmax_mutants)

        cold_pruned = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache, prune=True,
        ).analyze(findmax_mutants)
        # Different experiment fingerprint → no hits from the unpruned pass.
        assert cold_pruned.cache_stats.hits == 0
        assert cold_pruned.cache_stats.misses == len(findmax_mutants)
        assert cold_pruned.same_results(cold_unpruned)

    def test_warm_pruned_run_executes_nothing(self, findmax_mutants, tmp_path):
        suite = mixed_suite(SEEDS[0])
        cache = MutationOutcomeCache(tmp_path)
        BUILD_CALLS["count"] = 0
        cold = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(),
            class_builder=counting_builder, cache=cache, prune=True,
        ).analyze(findmax_mutants)
        assert BUILD_CALLS["count"] == len(findmax_mutants)

        BUILD_CALLS["count"] = 0
        warm = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(),
            class_builder=counting_builder, cache=cache, prune=True,
        ).analyze(findmax_mutants)
        assert BUILD_CALLS["count"] == 0  # verdicts replayed, nothing built
        assert warm.cache_stats.hits == len(findmax_mutants)
        assert warm.same_results(cold)
        # Replayed outcomes preserve the skip accounting of the cold run.
        for mine, theirs in zip(warm.outcomes, cold.outcomes):
            assert mine.cases_skipped == theirs.cases_skipped

    def test_parallel_warm_after_serial_pruned_cold(self, findmax_mutants,
                                                    tmp_path):
        suite = mixed_suite(SEEDS[1])
        cache = MutationOutcomeCache(tmp_path)
        cold = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), cache=cache, prune=True,
        ).analyze(findmax_mutants)
        warm = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=oracle(), workers=2, cache=cache,
            prune=True,
        ).analyze(findmax_mutants)
        assert warm.cache_stats.hits == len(findmax_mutants)
        assert warm.same_results(cold)


class TestBaseClassMutantsThroughSubclass:
    """Experiment 2's shape: mutants in the base, coverage on the subclass."""

    def test_pruned_equals_unpruned_with_class_builder(self):
        from repro.mutation.mutant import rebuild_subclass

        mutants, _ = generate_mutants(
            CObList, ["RemoveHead"], ident_prefix="B",
            type_model=OBLIST_TYPE_MODEL,
        )
        suite = mixed_suite(SEEDS[0], limit=50)
        builder = (lambda m:
                   rebuild_subclass(CSortableObList, CObList, m.build_class()))

        def run(prune):
            return MutationAnalysis(
                CSortableObList, suite, class_builder=builder,
                oracle=oracle(), prune=prune,
            ).analyze(mutants[:12])

        pruned = run(prune=True)
        exhaustive = run(prune=False)
        assert pruned.same_results(exhaustive)
        assert pruned.killed  # base faults still visible through the subclass

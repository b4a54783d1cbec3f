"""Tests for the coverage recorder behind mutant×case pruning.

That pruned runs match exhaustive ones is checked by the configuration
lattice (``test_config_lattice.py``).  Here the matrix must be *dynamic*:
``Sort1``/``Sort2``/``ShellSort`` reach ``IsSorted`` only through their
postcondition, so a statically derived matrix would prune the cases able
to kill an ``IsSorted`` mutant.  Case counters follow suite order, shared
state or a budget the original reaches turns pruning off or is refused,
profilers keep working, and pruned and exhaustive entries never share a
store.  The recorder must also give the same results and matrix as the
one it replaced (``coverage_reference.py``).
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from dataclasses import replace

import pytest

from repro.components import (
    CObList,
    CSortableObList,
    OBLIST_TYPE_MODEL,
    Product,
    reset_database,
)
from repro.core.errors import MutationError
from repro.experiments.config import sortable_oracle, sortable_suite
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.coverage import (
    ENTRY,
    NEVER,
    CoverageMatrix,
    mutated_line,
    record_coverage,
)
from repro.mutation.generate import generate_mutants
from repro.scenarios.families import FAMILY_NAMES
from repro.scenarios.genspec import GeneratorSpec, synthesize
from repro.scenarios.materialize import materialize
from repro.scenarios.registry import SuiteConfig

from .coverage_reference import assert_same_recording
from .pruning_subjects import LINE_SUBJECTS, Tally, suite_of
from .test_sandbox import collections_with_callbacks

SEEDS = (20010701, 7, 99)
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


def reached(matrix, case_ident, method_name):
    """Whether the case's reference ran any of the method's code."""
    return matrix.first_calls((case_ident,), method_name) != bytes((NEVER,))


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
            for method_name in stepped:
                assert reached(matrix, case.ident, method_name)

    def test_indirect_postcondition_calls_are_covered(self):
        suite = indirect_suite(SEEDS[0], limit=20)
        _, matrix = record_coverage(CSortableObList, suite)
        for case in suite.cases:
            # No step names IsSorted, yet every case runs a sort whose
            # postcondition calls it — dynamic coverage must see that.
            assert reached(matrix, case.ident, "IsSorted")

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
        assert any(reached(matrix, case.ident, name)
                   for case in suite.cases for name in base_methods)

    def test_unknown_case_is_conservatively_covered(self):
        matrix = CoverageMatrix(
            class_name="X", case_idents=("c1",),
            columns={("FindMax", ENTRY): bytes((0,))},
        )
        assert reached(matrix, "never-recorded", "anything")
        assert not reached(matrix, "c1", "FindMin")
        assert reached(matrix, "c1", "FindMax")

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

    def test_seeded_matrix_is_used_as_is(self):
        suite = mixed_suite(SEEDS[0], limit=10)
        _, matrix = record_coverage(CSortableObList, suite)
        analysis = MutationAnalysis(CSortableObList, suite, coverage=matrix)
        assert analysis.coverage_matrix() is matrix


def called_after_the_reference_pass():
    return sum(range(10))


class TestExternalProfilers:
    """The recorder borrows the trace hook, hands it back, and leaves the
    profile hook alone."""

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

    def test_python_trace_hook_is_restored(self):
        def hook(frame, event, arg):  # noqa: ARG001 — sys.settrace API
            return None

        previous = sys.gettrace()
        sys.settrace(hook)
        try:
            _, matrix = record_coverage(
                CSortableObList, mixed_suite(SEEDS[0], limit=3)
            )
            assert sys.gettrace() is hook
        finally:
            sys.settrace(previous)
        assert len(matrix) == 3

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
    """Case counters, shared state and the step budget under pruning."""

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
        for outcome, mutant in zip(run.outcomes, findmax_mutants):
            considered = order
            if outcome.killed and stop_on_first_kill:
                considered = order[:order.index(outcome.killing_case) + 1]
            skipped = matrix.first_calls(
                considered, outcome.mutant.method_name, mutated_line(mutant)
            ).count(NEVER)
            assert outcome.cases_skipped == skipped
            assert outcome.cases_run == len(considered) - skipped
            cut_short += len(considered) < len(order)
        assert cut_short > 0 if stop_on_first_kill else cut_short == 0

    def test_shared_state_disables_pruning(self):
        # Product cases share the module-global DATABASE, which the setup
        # hook resets once per suite run.  At seed 11, case TC60 removes a
        # product an earlier case inserted; skipping that earlier case
        # would turn six UpdateName survivors into output_diff kills.
        suite = DriverGenerator(Product.__tspec__, seed=11).generate()
        methods = ("UpdateName", "UpdateQty", "UpdatePrice", "UpdateProv",
                   "ShowAttributes", "InsertProduct", "RemoveProduct")
        mutants, _ = generate_mutants(Product, methods)
        pruned, exhaustive = (
            MutationAnalysis(Product, suite, prune=prune, setup=reset_database,
                             static_triage=False).analyze(mutants)
            for prune in (True, False)
        )
        assert pruned.same_results(exhaustive)
        assert pruned.cases_skipped == 0
        assert MutationAnalysis(Product, suite, setup=reset_database
                                ).coverage_matrix() is None

    def test_step_budget_the_original_reaches_is_refused(self,
                                                         findmax_mutants):
        # On these cases the original itself needs 109 line events in one
        # call, so every guarded run of that call times out at 100.
        suite = sortable_suite()
        suite = replace(suite, cases=suite.cases[:60])

        def analysis(budget, prune=True):
            return MutationAnalysis(
                CSortableObList, suite, oracle=sortable_oracle(),
                step_budget=budget, prune=prune,
            )

        refusal = r"call \d+ of case TC\d+ .*step budget of 100"
        with pytest.raises(MutationError, match=refusal):
            analysis(100).analyze(findmax_mutants)
        exhaustive = analysis(100, prune=False).analyze(findmax_mutants)
        assert len(exhaustive.killed) == len(findmax_mutants)
        assert exhaustive.step_timeouts == len(findmax_mutants)
        # One more line event of headroom and pruning is sound again.
        assert analysis(110).analyze(findmax_mutants).same_results(
            analysis(110, prune=False).analyze(findmax_mutants)
        )

    def test_collections_leave_the_peak_alone(self):
        # The 109 line events above sit one below a budget of 110 only if
        # no collection runs its Python callbacks inside that call.
        suite = sortable_suite()
        suite = replace(suite, cases=suite.cases[:60])
        _, quiet = record_coverage(CSortableObList, suite)
        with collections_with_callbacks():
            _, busy = record_coverage(CSortableObList, suite)
        assert quiet.peak[0] == 109
        assert busy.peak == quiet.peak

    def test_exhaustive_run_records_no_matrix(self, findmax_mutants):
        analysis = MutationAnalysis(
            CSortableObList, mixed_suite(SEEDS[0]), oracle=oracle(),
            prune=False,
        )
        assert analysis.coverage_matrix() is None
        run = analysis.analyze(findmax_mutants[:3])
        assert run.cases_skipped == 0


class TestLineLevelPruning:
    """A method bound under two names is covered under both."""

    def test_every_bound_name_is_covered(self):
        cut_class, _, suite = LINE_SUBJECTS["alias"]
        _, matrix = record_coverage(cut_class, suite)
        # TC1 calls neither name; TC0 enters the shared code through
        # Increment and TC2 through Bump, both at call 2 (constructor,
        # invariant, then the method).
        for name in ("Bump", "Increment"):
            assert matrix.first_calls(("TC0", "TC1", "TC2"), name) == bytes(
                (2, NEVER, 2))


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


class TestRecorderMatchesReference:
    """The per-code recorder gives the replaced recorder's results and
    matrix: the same columns, case order, ``peak`` and fingerprint."""

    def test_table2_suite(self):
        matrix = assert_same_recording(CSortableObList, sortable_suite())
        assert len(matrix) == 624

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_scenario_family(self, family, tmp_path):
        cls = materialize(synthesize(GeneratorSpec(family, 1)), tmp_path)
        config = SuiteConfig()
        suite = DriverGenerator(
            cls.__tspec__, seed=config.seed, edge_bound=config.edge_bound,
            max_transactions=config.max_transactions,
        ).generate()
        assert len(assert_same_recording(cls, suite)) == len(suite)

    @pytest.mark.parametrize("subject", ("alias", "comprehension",
                                         "wraps", "continuation"))
    def test_pruning_subject(self, subject):
        cut_class, _, suite = LINE_SUBJECTS[subject]
        assert_same_recording(cut_class, suite)

    def test_calls_past_the_cap(self):
        # Constructor, invariant, then a call and an invariant check per
        # step: ``Total`` first runs at call 2 + 2 * 140 = 282, which the
        # column stores as 254.
        suite = suite_of("Tally", [("Bump", 1)] * 140 + [("Total",),
                                                         ("Increment", 2)],
                         [("Total",), ("Bump", 3)])
        matrix = assert_same_recording(Tally, suite)
        assert matrix.first_calls(("TC0", "TC1"), "Total") == bytes((254, 2))
        assert matrix.first_calls(("TC0", "TC1"), "Bump") == bytes((2, 4))

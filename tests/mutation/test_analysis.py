"""Tests for mutation analysis (kill classification, runs, aggregation)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.executor import TestExecutor
from repro.harness.oracles import (
    KillReason,
    Oracle,
    OracleJudgement,
    experiment_oracle,
    paper_oracle,
)
from repro.harness.outcomes import Verdict
from repro.mutation.analysis import (
    MutantOutcome,
    MutationAnalysis,
    analyze_mutants,
)
from repro.mutation.coverage import NEVER, mutated_line
from repro.mutation.generate import generate_mutants
from repro.mutation.mutant import rebuild_subclass
from repro.mutation.sandbox import StepBudgetGuard
from repro.scenarios.sweep import resolve_oracle


@pytest.fixture(scope="module")
def findmax_mutants():
    mutants, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return mutants


@pytest.fixture(scope="module")
def small_suite():
    suite = DriverGenerator(CSortableObList.__tspec__).generate()
    # Cases that actually visit FindMax/FindMin keep the run fast and the
    # kill power realistic.
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin") for step in case.steps)
    )[:120]
    return replace(suite, cases=relevant)


class TestAnalysis:
    def test_reference_is_green(self, small_suite):
        analysis = MutationAnalysis(CSortableObList, small_suite)
        reference = analysis.reference_results()
        assert reference.all_passed

    def test_reference_cached(self, small_suite):
        analysis = MutationAnalysis(CSortableObList, small_suite)
        assert analysis.reference_results() is analysis.reference_results()

    def test_most_findmax_mutants_killed(self, small_suite, findmax_mutants):
        run = MutationAnalysis(
            CSortableObList, small_suite,
            oracle=experiment_oracle(CSortableObList.__tspec__),
        ).analyze(findmax_mutants)
        assert run.total == len(findmax_mutants)
        assert len(run.killed) > 0.5 * run.total

    def test_outcomes_carry_killing_case(self, small_suite, findmax_mutants):
        run = MutationAnalysis(CSortableObList, small_suite).analyze(findmax_mutants)
        for outcome in run.killed:
            assert outcome.killing_case
            assert outcome.reason is not KillReason.NONE
            assert outcome.cases_run >= 1
        for outcome in run.survivors:
            assert outcome.killing_case == ""
            # Pruning may skip non-covering cases, but every case must be
            # accounted for as either executed or provably irrelevant.
            assert outcome.cases_run + outcome.cases_skipped == len(small_suite)

    def test_stop_on_first_kill_short_circuits(self, small_suite, findmax_mutants):
        eager = MutationAnalysis(
            CSortableObList, small_suite, stop_on_first_kill=True
        ).analyze(findmax_mutants[:10])
        exhaustive = MutationAnalysis(
            CSortableObList, small_suite, stop_on_first_kill=False
        ).analyze(findmax_mutants[:10])
        for eager_outcome, full_outcome in zip(eager.outcomes, exhaustive.outcomes):
            assert eager_outcome.killed == full_outcome.killed
            if eager_outcome.killed:
                assert eager_outcome.killing_case == full_outcome.killing_case
                assert len(full_outcome.killing_cases) >= 1

    def test_kill_reason_counts(self, small_suite, findmax_mutants):
        run = MutationAnalysis(CSortableObList, small_suite).analyze(findmax_mutants)
        counts = run.kill_reason_counts()
        assert sum(counts.values()) == len(run.killed)
        assert "none" not in counts

    def test_aggregation_views(self, small_suite, findmax_mutants):
        run = MutationAnalysis(CSortableObList, small_suite).analyze(findmax_mutants)
        assert run.outcomes_for_method("FindMax") == run.outcomes
        assert run.outcomes_for_method("Sort1") == ()
        per_operator = sum(
            len(run.outcomes_for_operator(op))
            for op in ("IndVarBitNeg", "IndVarRepGlob", "IndVarRepLoc",
                       "IndVarRepExt", "IndVarRepReq")
        )
        assert per_operator == run.total

    def test_summary(self, small_suite, findmax_mutants):
        run = MutationAnalysis(CSortableObList, small_suite).analyze(findmax_mutants[:5])
        text = run.summary()
        assert "CSortableObList" in text and "mutants killed" in text

    def test_analyze_mutants_convenience(self, small_suite, findmax_mutants):
        run = analyze_mutants(CSortableObList, small_suite, findmax_mutants[:3])
        assert run.total == 3


class TestSubclassOverMutantBase:
    def test_rebuild_subclass(self):
        mutants, _ = generate_mutants(CObList, ["AddHead"])
        mutant_base = mutants[0].build_class()
        rebuilt = rebuild_subclass(CSortableObList, CObList, mutant_base)
        assert rebuilt.__name__ == "CSortableObList"
        assert rebuilt.__bases__ == (mutant_base,)
        assert rebuilt.AddHead is mutant_base.AddHead
        # Subclass methods preserved.
        instance = rebuilt()
        assert hasattr(instance, "Sort1")

    def test_rebuild_requires_direct_base(self):
        mutants, _ = generate_mutants(CObList, ["AddHead"])
        with pytest.raises(ValueError):
            rebuild_subclass(CObList, CSortableObList, mutants[0].build_class())

    def test_base_mutants_analyzed_through_subclass(self):
        mutants, _ = generate_mutants(
            CObList, ["RemoveHead"], type_model=OBLIST_TYPE_MODEL
        )
        suite = DriverGenerator(CSortableObList.__tspec__).generate()
        small = replace(suite, cases=suite.cases[:80])
        builder = lambda m: rebuild_subclass(CSortableObList, CObList, m.build_class())
        run = MutationAnalysis(
            CSortableObList, small, class_builder=builder
        ).analyze(mutants[:20])
        assert run.total == 20
        assert run.killed  # some base faults visible through the subclass


class CaseKeyedOracle(Oracle):
    """A value-based oracle that also kills a result equal to its reference
    when the case's ident ends in 4 or 8: a memo that took "equal to the
    reference" for "no kill" would miss those kills."""

    name = "case_keyed"

    def __init__(self):
        self._paper = paper_oracle()

    def judge(self, observed, reference):
        if observed.case_ident[-1] in "48" and observed == reference:
            return OracleJudgement(KillReason.OUTPUT_DIFFERENCE,
                                   f"flagged {observed.case_ident}")
        return self._paper.judge(observed, reference)


class CountingOracle(Oracle):
    """Counts the calls that judge a reference against itself."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.self_judged = []

    def judge(self, observed, reference):
        if observed is reference:
            self.self_judged.append(observed.case_ident)
        return self._oracle.judge(observed, reference)


def plain_outcomes(analysis, suite, mutants, oracle, stop_on_first_kill):
    """Each mutant's outcome from a loop that runs every planned case and
    calls ``oracle.judge(observed, reference)`` on it, and how many judged
    results equalled their reference and how many of those killed."""
    reference = {result.case_ident: result
                 for result in analysis.reference_results()}
    matrix = analysis.coverage_matrix()
    idents = [case.ident for case in suite.cases]
    outcomes, equal, equal_kills = [], 0, 0
    for mutant in mutants:
        plan = matrix.first_calls(idents, mutant.record.method_name,
                                  mutated_line(mutant))
        guard = StepBudgetGuard()
        executor = TestExecutor(mutant.build_class(), step_guard=guard)
        kills, run, skipped = [], 0, 0
        for case, unguarded in zip(suite.cases, plan):
            if unguarded == NEVER:
                skipped += 1
                continue
            run += 1
            guard.let_through(unguarded)
            observed = executor.run_case(case)
            if observed.verdict is Verdict.INCOMPLETE:
                continue
            judgement = oracle.judge(observed, reference.get(case.ident))
            if observed == reference.get(case.ident):
                equal += 1
                equal_kills += judgement.detected
            if judgement.detected:
                kills.append((case.ident, judgement))
                if stop_on_first_kill:
                    break
        first = kills[0] if kills else ("", OracleJudgement(KillReason.NONE))
        outcomes.append(MutantOutcome(
            mutant=mutant.record, killed=bool(kills),
            reason=first[1].reason, killing_case=first[0], cases_run=run,
            killing_cases=tuple(ident for ident, _ in kills),
            detail=first[1].detail, cases_skipped=skipped,
        ))
    return tuple(outcomes), equal, equal_kills


class TestReproducedReferenceJudgement:
    """A case whose observed result equals its reference is judged once,
    as ``judge(reference, reference)``; every outcome field stays what a
    plain ``judge(observed, reference)`` per case gives."""

    ORACLES = ("experiment", "paper", "assertions", "output", "log",
               "case-keyed")

    @pytest.mark.parametrize("stop_on_first_kill", (True, False))
    @pytest.mark.parametrize("oracle_name", ORACLES)
    def test_outcomes_equal_a_plain_judge_per_case(
            self, small_suite, findmax_mutants, oracle_name,
            stop_on_first_kill):
        suite = replace(small_suite, cases=small_suite.cases[:40])
        mutants = findmax_mutants[:24]
        oracle = (CaseKeyedOracle() if oracle_name == "case-keyed"
                  else resolve_oracle(oracle_name, CSortableObList.__tspec__))
        counting = CountingOracle(oracle)
        analysis = MutationAnalysis(
            CSortableObList, suite, oracle=counting,
            stop_on_first_kill=stop_on_first_kill, static_triage=False,
        )
        run = analysis.analyze(mutants)
        expected, equal, equal_kills = plain_outcomes(
            analysis, suite, mutants, oracle, stop_on_first_kill)
        assert run.outcomes == expected
        assert equal > 0
        # One self-judgement per case that some mutant reproduced, however
        # many mutants reproduce it.
        assert len(counting.self_judged) == len(set(counting.self_judged))
        assert 0 < len(counting.self_judged) < equal
        if oracle_name == "case-keyed":
            assert equal_kills > 0

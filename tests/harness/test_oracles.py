"""Tests for the kill-rule oracles."""

from __future__ import annotations

import pickle

from repro.bit.reporter import StateReport
from repro.core.fingerprint import canonical
from repro.harness.oracles import (
    AssertionOracle,
    CompositeOracle,
    CrashOracle,
    GoldenOutputOracle,
    KillReason,
    LogOutputOracle,
    SelectiveOutputOracle,
    assertions_only_oracle,
    experiment_oracle,
    log_level_oracle,
    output_only_oracle,
    paper_oracle,
)
from repro.harness.outcomes import Observation, StepObservation, TestResult, Verdict


def state_of(**attributes) -> StateReport:
    return StateReport(
        class_name="X",
        state=tuple(sorted(attributes.items())),
    )


def result(verdict=Verdict.PASS, steps=(), final_state=None, detail=""):
    return TestResult(
        case_ident="TC0",
        class_name="X",
        verdict=verdict,
        observation=Observation(steps=tuple(steps), final_state=final_state),
        detail=detail,
    )


def step(name, value):
    return StepObservation(name, "return", value)


class TestCrashOracle:
    def test_detects_new_crash(self):
        judgement = CrashOracle().judge(result(Verdict.CRASH), result())
        assert judgement.reason is KillReason.CRASH

    def test_timeout_counts_as_crash(self):
        judgement = CrashOracle().judge(result(Verdict.TIMEOUT), result())
        assert judgement.detected

    def test_matching_crash_not_detected(self):
        judgement = CrashOracle().judge(
            result(Verdict.CRASH), result(Verdict.CRASH)
        )
        assert not judgement.detected

    def test_crash_without_reference_detected(self):
        assert CrashOracle().judge(result(Verdict.CRASH), None).detected


class TestAssertionOracle:
    def test_detects_new_violation(self):
        judgement = AssertionOracle().judge(
            result(Verdict.CONTRACT_VIOLATION), result()
        )
        assert judgement.reason is KillReason.ASSERTION

    def test_rule_ii_given_clause(self):
        # "given that this was not the case with the original program"
        judgement = AssertionOracle().judge(
            result(Verdict.CONTRACT_VIOLATION),
            result(Verdict.CONTRACT_VIOLATION),
        )
        assert not judgement.detected

    def test_pass_not_detected(self):
        assert not AssertionOracle().judge(result(), result()).detected


class TestGoldenOutputOracle:
    def test_detects_return_value_difference(self):
        observed = result(steps=[step("Get", 5)])
        reference = result(steps=[step("Get", 6)])
        judgement = GoldenOutputOracle().judge(observed, reference)
        assert judgement.reason is KillReason.OUTPUT_DIFFERENCE

    def test_detects_final_state_difference(self):
        observed = result(final_state=state_of(count=1))
        reference = result(final_state=state_of(count=2))
        assert GoldenOutputOracle().judge(observed, reference).detected

    def test_identical_not_detected(self):
        observed = result(steps=[step("Get", 5)], final_state=state_of(n=1))
        reference = result(steps=[step("Get", 5)], final_state=state_of(n=1))
        assert not GoldenOutputOracle().judge(observed, reference).detected

    def test_no_reference_no_detection(self):
        assert not GoldenOutputOracle().judge(result(), None).detected


class TestLogOutputOracle:
    def test_ignores_intermediate_returns(self):
        observed = result(steps=[step("Sort1", 3)], final_state=state_of(n=1))
        reference = result(steps=[step("Sort1", 7)], final_state=state_of(n=1))
        assert not LogOutputOracle().judge(observed, reference).detected

    def test_detects_state_difference(self):
        observed = result(final_state=state_of(n=1))
        reference = result(final_state=state_of(n=2))
        assert LogOutputOracle().judge(observed, reference).detected

    def test_missing_state_on_one_side(self):
        observed = result(final_state=None)
        reference = result(final_state=state_of(n=2))
        assert LogOutputOracle().judge(observed, reference).detected


class TestSelectiveOutputOracle:
    def test_observed_methods_compared(self):
        oracle = SelectiveOutputOracle({"GetCount"})
        observed = result(steps=[step("GetCount", 5)])
        reference = result(steps=[step("GetCount", 6)])
        assert oracle.judge(observed, reference).detected

    def test_unobserved_methods_ignored(self):
        oracle = SelectiveOutputOracle({"GetCount"})
        observed = result(steps=[step("Sort1", 5)])
        reference = result(steps=[step("Sort1", 99)])
        assert not oracle.judge(observed, reference).detected

    def test_falls_back_to_final_state(self):
        oracle = SelectiveOutputOracle(set())
        observed = result(final_state=state_of(n=1))
        reference = result(final_state=state_of(n=2))
        assert oracle.judge(observed, reference).detected

    def test_exception_steps_matched_by_bare_name(self):
        oracle = SelectiveOutputOracle({"GetAt"})
        observed = result(steps=[StepObservation("GetAt(3)", "raise", "E: x")])
        reference = result(steps=[step("GetAt", 1)])
        assert oracle.judge(observed, reference).detected

    def test_new_reference_for_a_case_replaces_the_memo(self):
        oracle = SelectiveOutputOracle({"GetCount"})
        observed = result(steps=[step("GetCount", 5)])
        assert oracle.judge(observed, result(steps=[step("GetCount", 6)])).detected
        assert not oracle.judge(
            observed, result(steps=[step("GetCount", 5)])
        ).detected

    def test_memos_stay_out_of_fingerprint_and_pickle(self):
        # The memos must not leak into the cache fingerprint or into the
        # pickled battery whose hash is the worker pool's spec token.
        oracle = SelectiveOutputOracle({"GetCount"})
        fingerprint = canonical(oracle)
        payload = pickle.dumps(oracle)
        observed = result(steps=[step("GetCount", 5), step("Sort1", 1)])
        reference = result(steps=[step("GetCount", 6), step("Sort1", 1)])
        judgement = oracle.judge(observed, reference)
        assert judgement.detected
        assert canonical(oracle) == fingerprint
        assert pickle.dumps(oracle) == payload
        assert pickle.loads(payload).judge(observed, reference) == judgement


class TestComposite:
    def test_paper_order(self):
        # Crash wins over output difference when both apply.
        observed = result(Verdict.CRASH, steps=[step("Get", 1)])
        reference = result(steps=[step("Get", 2)])
        judgement = paper_oracle().judge(observed, reference)
        assert judgement.reason is KillReason.CRASH

    def test_none_when_identical(self):
        judgement = paper_oracle().judge(result(), result())
        assert judgement.reason is KillReason.NONE

    def test_assertions_only_blind_to_output(self):
        observed = result(steps=[step("Get", 1)])
        reference = result(steps=[step("Get", 2)])
        assert not assertions_only_oracle().judge(observed, reference).detected

    def test_output_only_blind_to_assertions(self):
        observed = result(Verdict.CONTRACT_VIOLATION)
        reference = result()
        assert not output_only_oracle().judge(observed, reference).detected

    def test_log_level_weaker_than_paper(self):
        observed = result(steps=[step("Get", 1)], final_state=state_of(n=1))
        reference = result(steps=[step("Get", 2)], final_state=state_of(n=1))
        assert paper_oracle().judge(observed, reference).detected
        assert not log_level_oracle().judge(observed, reference).detected

    def test_custom_order(self):
        oracle = CompositeOracle((GoldenOutputOracle(), CrashOracle()))
        observed = result(Verdict.CRASH, steps=[step("Get", 1)])
        reference = result(steps=[step("Get", 2)])
        assert oracle.judge(observed, reference).reason is KillReason.OUTPUT_DIFFERENCE


class TestExperimentOracle:
    def test_observes_access_methods_of_spec(self):
        from repro.components import SORTABLE_OBLIST_SPEC

        oracle = experiment_oracle(SORTABLE_OBLIST_SPEC)
        selective = oracle.oracles[-1]
        assert isinstance(selective, SelectiveOutputOracle)
        assert "FindMax" in selective.observed
        assert "GetCount" in selective.observed
        assert "Sort1" not in selective.observed

"""Tests for bounded mutant execution."""

from __future__ import annotations

import sys

import pytest

from repro.core.errors import SandboxTimeout
from repro.mutation.sandbox import CallCountGuard, StepBudgetGuard


def finite_work(rounds):
    total = 0
    for _ in range(rounds):
        total += 1
    return total


def infinite_loop():
    while True:
        pass


class TestStepBudgetGuard:
    def test_normal_calls_pass_through(self):
        guard = StepBudgetGuard(budget=10_000)
        assert guard(finite_work, 100) == 100
        assert guard.timeouts == 0

    def test_infinite_loop_cut(self):
        guard = StepBudgetGuard(budget=5_000)
        with pytest.raises(SandboxTimeout, match="budget"):
            guard(infinite_loop)
        assert guard.timeouts == 1

    def test_budget_is_per_call(self):
        guard = StepBudgetGuard(budget=2_000)
        for _ in range(5):
            guard(finite_work, 100)  # each call gets a fresh budget
        assert guard.timeouts == 0

    def test_deterministic_cutoff(self):
        # Two identical runs must hit the budget identically (scores are
        # exactly reproducible, unlike wall-clock timeouts).
        def run_once():
            guard = StepBudgetGuard(budget=1_000)
            try:
                guard(finite_work, 10_000)
                return "finished"
            except SandboxTimeout:
                return "cut"

        assert run_once() == run_once() == "cut"

    def test_exceptions_propagate(self):
        guard = StepBudgetGuard(budget=10_000)

        def fail():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            guard(fail)

    def test_trace_restored_after_call(self):
        import sys

        previous = sys.gettrace()
        guard = StepBudgetGuard(budget=1_000)
        guard(finite_work, 10)
        assert sys.gettrace() is previous

    def test_trace_restored_after_timeout(self):
        import sys

        previous = sys.gettrace()
        guard = StepBudgetGuard(budget=500)
        with pytest.raises(SandboxTimeout):
            guard(infinite_loop)
        assert sys.gettrace() is previous

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            StepBudgetGuard(budget=0)


def line_events(function, *args):
    """How many line events one call of ``function`` fires."""
    count = 0

    def counter(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return counter

    previous = sys.gettrace()
    sys.settrace(counter)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return count


class TestBudgetSemantics:
    """What the budget counts; the goldens pin what it decides."""

    def test_exact_boundary(self):
        events = line_events(finite_work, 20)
        assert events > 20
        assert StepBudgetGuard(budget=events + 1)(finite_work, 20) == 20
        with pytest.raises(SandboxTimeout):
            StepBudgetGuard(budget=events)(finite_work, 20)

    def test_fresh_budget_after_a_timeout(self):
        events = line_events(finite_work, 20)
        guard = StepBudgetGuard(budget=events + 1)
        with pytest.raises(SandboxTimeout):
            guard(infinite_loop)
        assert guard(finite_work, 20) == 20
        assert guard.timeouts == 1

    def test_tracer_installed_again_after_a_timeout(self):
        # CPython drops a trace function that raised; the next call must
        # still be bounded, by the guard's one tracer.
        guard = StepBudgetGuard(budget=1_000)
        tracer = guard(sys.gettrace)
        assert tracer is not None
        with pytest.raises(SandboxTimeout):
            guard(infinite_loop)
        assert guard(sys.gettrace) is tracer
        with pytest.raises(SandboxTimeout):
            guard(finite_work, 10_000)
        assert guard.timeouts == 2

    def test_budget_counts_nested_calls(self):
        def outer():
            return finite_work(20) + finite_work(20)

        events = line_events(outer)
        assert events > 2 * line_events(finite_work, 20)
        assert StepBudgetGuard(budget=events + 1)(outer) == 40
        with pytest.raises(SandboxTimeout):
            StepBudgetGuard(budget=events)(outer)

    def test_timeout_message_names_the_guarded_function(self):
        guard = StepBudgetGuard(budget=50)
        with pytest.raises(
            SandboxTimeout,
            match="step budget of 50 line events exhausted in 'infinite_loop'",
        ):
            guard(infinite_loop)
        with pytest.raises(SandboxTimeout, match="in 'finite_work'"):
            guard(finite_work, 1_000)


class TestCallCountGuard:
    def test_counts_calls(self):
        guard = CallCountGuard()
        guard(finite_work, 1)
        guard(finite_work, 2)
        assert guard.calls == 2


class TestStepTimeoutsSurfacedInRun:
    """The per-mutant guard's ``timeouts`` counter must reach ``MutationRun``."""

    @staticmethod
    def _fixture(body: str):
        from repro.components import CSortableObList
        from repro.mutation.mutant import Mutant, rebuild_compiled_mutant

        record = Mutant(
            ident="L0001",
            operator="IndVarRepReq",
            class_name="CSortableObList",
            method_name="FindMax",
            variable="pos",
            occurrence=0,
            line=1,
            replacement="0",
            description="sandbox fixture mutant",
            mutated_source=body,
        )
        return rebuild_compiled_mutant(record, CSortableObList)

    @staticmethod
    def _findmax_suite():
        from dataclasses import replace

        from repro.components import CSortableObList
        from repro.generator.driver import DriverGenerator

        suite = DriverGenerator(CSortableObList.__tspec__, seed=7).generate()
        cases = tuple(
            case for case in suite.cases
            if any(step.method_name == "FindMax" for step in case.steps)
        )[:5]
        return replace(suite, cases=cases)

    def test_looping_mutant_timeouts_aggregate_into_run(self):
        from repro.components import CSortableObList
        from repro.mutation.analysis import MutationAnalysis

        mutant = self._fixture(
            "def FindMax(self):\n    while True:\n        pass\n"
        )
        run = MutationAnalysis(
            CSortableObList, self._findmax_suite(), step_budget=2_000
        ).analyze([mutant])
        assert run.outcomes[0].killed
        assert run.step_timeouts >= 1

    def test_clean_mutant_reports_zero_timeouts(self):
        from repro.components import CSortableObList
        from repro.mutation.analysis import MutationAnalysis

        mutant = self._fixture("def FindMax(self):\n    return None\n")
        run = MutationAnalysis(
            CSortableObList, self._findmax_suite()
        ).analyze([mutant])
        assert run.outcomes[0].killed
        assert run.step_timeouts == 0


class TestGuardWithExecutor:
    def test_looping_mutant_becomes_timeout_verdict(self):
        from repro.components import CSortableObList
        from repro.generator.testcase import TestCase, TestStep
        from repro.harness.executor import TestExecutor
        from repro.harness.outcomes import Verdict
        from repro.tfm.transactions import Transaction

        class Loopy(CSortableObList):
            def Sort1(self):
                while True:
                    pass

        case = TestCase(
            ident="TC0",
            transaction=Transaction(("n1", "n2")),
            steps=(
                TestStep("m1", "Loopy", (), is_construction=True),
                TestStep("m2", "Sort1", ()),
            ),
            class_name="Loopy",
        )
        executor = TestExecutor(Loopy, step_guard=StepBudgetGuard(budget=2_000))
        result = executor.run_case(case)
        assert result.verdict is Verdict.TIMEOUT

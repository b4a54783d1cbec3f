"""Test execution: running generated test cases against a component.

This is the runtime half of the generated driver of Figure 6: for each test
case it

1. constructs the object with the chosen constructor's argument values,
2. calls each processing method inside a try-block, checking the class
   invariant before and after every call (``CUT->InvariantTest()``),
3. destroys the object (calls its explicit teardown method when the
   component declares one; otherwise lets it go out of scope),
4. logs ``OK`` or the violation + "Method called: …" line, and captures the
   object's reported state,

producing a :class:`~repro.harness.outcomes.TestResult` whose observation is
comparable across runs (the mutation analysis compares a mutant's
observation to the original's).

Execution happens inside :func:`~repro.bit.access.test_mode`, so embedded
contract checks are live exactly as if the component had been compiled in
test mode.
"""

from __future__ import annotations

from typing import Any, Callable, ContextManager, List, Optional

from ..bit import access
from ..bit.reporter import StateReport, snapshot_value
from ..core.errors import ContractViolation, ExecutionError, SandboxTimeout
from ..generator.suite import TestSuite
from ..generator.testcase import TestCase, TestStep
from ..obs import Telemetry, coalesce
from .logfile import ResultLog
from .outcomes import Observation, StepObservation, SuiteResult, TestResult, Verdict

#: Convention: a destructor step calls this method when the component has it.
DESTRUCTOR_METHOD = "dispose"

#: A guard receives the callable + arguments and runs it (possibly bounded).
StepGuard = Callable[..., Any]

#: A case tracer wraps one complete case's execution in a context manager —
#: the seam the coverage recorder (:mod:`repro.mutation.coverage`) hooks to
#: observe which lines of CUT methods a case dynamically runs (it numbers
#: the guarded calls through the step guard seam).  Tracers observe only;
#: results must be identical with or without one.
CaseTracer = Callable[[TestCase], ContextManager[None]]


def _plain_guard(function: Callable, *args, **kwargs) -> Any:
    return function(*args, **kwargs)


class TestExecutor:
    """Runs test cases against one component class."""

    __test__ = False  # library class, not a pytest test

    def __init__(self, component_class: type,
                 check_invariants: bool = True,
                 log: Optional[ResultLog] = None,
                 step_guard: Optional[StepGuard] = None,
                 case_tracer: Optional[CaseTracer] = None,
                 telemetry: Optional[Telemetry] = None):
        if not isinstance(component_class, type):
            raise ExecutionError(
                f"component under test must be a class, got {component_class!r}"
            )
        self._class = component_class
        self._check_invariants = check_invariants
        self._log = log
        self._guard: StepGuard = step_guard or _plain_guard
        self._case_tracer = case_tracer
        # Per-case timing spans; the default null session records nothing
        # and the executor never branches on it (observation only).
        self._obs = coalesce(telemetry)

    @property
    def component_class(self) -> type:
        return self._class

    # ------------------------------------------------------------------
    # Suite / case execution
    # ------------------------------------------------------------------

    def run_suite(self, suite: TestSuite) -> SuiteResult:
        results = tuple(self.run_case(case) for case in suite.cases)
        return SuiteResult(class_name=self._class.__name__, results=results)

    def run_case(self, case: TestCase) -> TestResult:
        if not case.is_complete:
            return TestResult(
                case_ident=case.ident,
                class_name=self._class.__name__,
                verdict=Verdict.INCOMPLETE,
                observation=Observation(steps=()),
                detail="structured parameters not completed",
            )
        with self._obs.span("executor.case", case=case.ident,
                            component=self._class.__name__) as span:
            with access.test_mode():
                if self._case_tracer is None:
                    result = self._run_complete_case(case)
                else:
                    with self._case_tracer(case):
                        result = self._run_complete_case(case)
            span.set("verdict", result.verdict.value)
        if self._log is not None:
            self._log.record(result)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run_complete_case(self, case: TestCase) -> TestResult:
        observations: List[StepObservation] = []
        # The case's hot loop: each call, its snapshot, the append and the
        # invariant check run inline, with the guard, the append and the
        # invariant flag bound once per case.
        append = observations.append
        guard = self._guard
        check_invariants = self._check_invariants
        # The failing-call description is rendered lazily: only the three
        # failure paths below need the repr of the current step's arguments,
        # so the hot (passing) path never pays for building it.
        current_step: Optional[TestStep] = None
        cut: Any = None
        try:
            for index, step in enumerate(case.steps):
                current_step = step
                if index == 0:
                    cut = guard(self._class, *step.arguments)
                    append(StepObservation(step.method_name, "return",
                                           "<constructed>"))
                elif step.is_destruction:
                    self._destroy(cut, observations)
                else:
                    method = getattr(cut, step.method_name, None)
                    if method is None or not callable(method):
                        raise ExecutionError(
                            f"{type(cut).__name__} has no callable method "
                            f"{step.method_name!r}"
                        )
                    result = guard(method, *step.arguments)
                    append(StepObservation(step.method_name, "return",
                                           snapshot_value(result)))
                if check_invariants and cut is not None:
                    checker = getattr(cut, "invariant_test", None)
                    if callable(checker):
                        guard(checker)
        except ContractViolation as violation:
            current_method = self._describe_call(current_step)
            append(Observation.of_raise(current_method, violation))
            return self._result(case, cut, observations,
                                Verdict.CONTRACT_VIOLATION,
                                str(violation), current_method)
        except SandboxTimeout as timeout:
            current_method = self._describe_call(current_step)
            append(Observation.of_raise(current_method, timeout))
            return self._result(case, cut, observations, Verdict.TIMEOUT,
                                str(timeout), current_method)
        except Exception as error:
            current_method = self._describe_call(current_step)
            append(Observation.of_raise(current_method, error))
            return self._result(case, cut, observations, Verdict.CRASH,
                                f"{type(error).__name__}: {error}", current_method)
        return self._result(case, cut, observations, Verdict.PASS, "", "")

    def _destroy(self, cut: Any, observations: List[StepObservation]) -> None:
        teardown = getattr(cut, DESTRUCTOR_METHOD, None)
        if callable(teardown):
            result = self._guard(teardown)
            observations.append(Observation.of_return(DESTRUCTOR_METHOD, result))
        else:
            observations.append(
                StepObservation("<destruction>", "return", "<deleted>")
            )

    def _result(self, case: TestCase, cut: Any,
                observations: List[StepObservation], verdict: Verdict,
                detail: str, failing_method: str) -> TestResult:
        final_state = None
        if cut is not None:
            try:
                # Guarded: a fault-corrupted object may have a pathological
                # state (cyclic structures); the budget bounds the capture.
                final_state = self._guard(StateReport.capture, cut)
            except Exception:
                final_state = None  # a hostile state must not mask the verdict
        return TestResult(
            case_ident=case.ident,
            class_name=self._class.__name__,
            verdict=verdict,
            observation=Observation(steps=tuple(observations),
                                    final_state=final_state),
            detail=detail,
            failing_method=failing_method,
        )

    @staticmethod
    def _describe_call(step: Optional[TestStep]) -> str:
        if step is None:
            return "<none>"
        rendered = ", ".join(repr(argument) for argument in step.arguments)
        return f"{step.method_name}({rendered})"


def run_suite(component_class: type, suite: TestSuite, **options) -> SuiteResult:
    """One-call convenience: execute a suite against a class."""
    return TestExecutor(component_class, **options).run_suite(suite)

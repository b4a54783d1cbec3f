"""Integration tests: the full self-testable component lifecycle.

These cross-module tests exercise the producer and consumer workflows of
sec. 3.1 end to end — construct the t-spec, instrument, generate, execute,
analyse — plus a miniature mutation study, on components small enough to
run in seconds.
"""

from __future__ import annotations

from repro.bit import access
from repro.bit.instrument import compile_component, instrument, tracer_of
from repro.core.domains import RangeDomain
from repro.generator.codegen import generate_driver_source
from repro.generator.driver import DriverGenerator
from repro.harness.executor import TestExecutor
from repro.harness.logfile import ResultLog
from repro.harness.oracles import paper_oracle
from repro.harness.outcomes import Verdict
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.generate import generate_mutants
from repro.tspec.builder import SpecBuilder
from repro.tspec.parser import parse_tspec
from repro.tspec.writer import write_tspec


class Thermostat:
    """A component written by a 'producer' without any repro imports."""

    def __init__(self, target: int = 20):
        self.target = int(target)
        self.heating = False

    def SetTarget(self, degrees: int) -> None:
        bounded = max(5, min(int(degrees), 30))
        self.target = bounded

    def Tick(self, ambient: int) -> bool:
        self.heating = ambient < self.target
        return self.heating

    def GetTarget(self) -> int:
        return self.target

    def IsHeating(self) -> bool:
        return self.heating


def thermostat_spec():
    return (
        SpecBuilder("Thermostat")
        .attribute("target", RangeDomain(5, 30))
        .constructor("Thermostat", [("target", RangeDomain(5, 30))])
        .destructor("~Thermostat")
        .method("SetTarget", [("degrees", RangeDomain(-10, 50))], category="update")
        .method("Tick", [("ambient", RangeDomain(-20, 45))], category="process",
                return_type="bool")
        .method("GetTarget", category="access", return_type="int")
        .method("IsHeating", category="access", return_type="bool")
        .node("birth", ["Thermostat"], start=True)
        .node("set", ["SetTarget"])
        .node("tick", ["Tick"])
        .node("query", ["GetTarget", "IsHeating"])
        .node("death", ["~Thermostat"])
        .chain("birth", "set", "tick", "query", "death")
        .edge("birth", "tick")
        .edge("tick", "tick")
        .edge("query", "tick")
        .edge("birth", "death")
        .build()
    )


def thermostat_invariant(self) -> bool:
    return 5 <= self.target <= 30


class TestProducerWorkflow:
    """Sec. 3.1: the three producer tasks."""

    def test_spec_construction_and_embedding(self):
        spec = thermostat_spec()
        text = write_tspec(spec)
        assert parse_tspec(text) == spec.normalized()

    def test_instrumentation(self):
        spec = thermostat_spec()
        testable = instrument(Thermostat, spec=spec,
                              invariant=thermostat_invariant)
        assert testable.__tspec__ is spec
        with access.test_mode():
            unit = testable(20)
            unit.invariant_test()
            report = unit.reporter()
            assert report.as_dict()["target"] == 20

    def test_production_build_untouched(self):
        built = compile_component(Thermostat, test_mode=False)
        assert built is Thermostat


class TestConsumerWorkflow:
    """Sec. 3.1: the four consumer tasks."""

    def test_generate_compile_execute_analyze(self):
        spec = thermostat_spec()
        testable = compile_component(
            Thermostat, test_mode=True,
            spec=spec, invariant=thermostat_invariant,
        )
        suite = DriverGenerator(spec, seed=7).generate()
        assert len(suite) >= 5  # one case per transaction, alternatives expanded

        log = ResultLog()
        result = TestExecutor(testable, log=log).run_suite(suite)
        assert result.all_passed
        assert "OK!" in log.text()

        tracer = tracer_of(testable)
        assert tracer is not None and len(tracer) > 0

    def test_faulty_component_detected(self):
        class FaultyThermostat(Thermostat):
            def SetTarget(self, degrees):
                self.target = int(degrees)  # fault: no clamping

        spec = thermostat_spec()
        testable = compile_component(
            FaultyThermostat, test_mode=True,
            spec=spec, invariant=thermostat_invariant,
        )
        suite = DriverGenerator(spec, seed=7).generate()
        result = TestExecutor(testable).run_suite(suite)
        violations = result.by_verdict(Verdict.CONTRACT_VIOLATION)
        assert violations, "the seeded fault must be caught by the invariant"
        assert any("SetTarget" in r.failing_method for r in violations)

    def test_generated_driver_module_runs(self):
        import io

        spec = thermostat_spec()
        suite = DriverGenerator(spec, seed=7).generate()
        from dataclasses import replace
        small = replace(suite, cases=suite.cases[:10])
        source = generate_driver_source(
            small, "tests.integration.test_end_to_end", "Thermostat"
        )
        namespace = {}
        exec(compile(source, "<driver>", "exec"), namespace)  # noqa: S102
        log = io.StringIO()
        with access.test_mode():
            outcomes = [
                function(Thermostat, log)
                for function in namespace["ALL_TEST_CASES"]
            ]
        assert all(outcomes)


class TestMiniMutationStudy:
    def test_detects_seeded_interface_faults(self):
        spec = thermostat_spec()
        mutants, report = generate_mutants(Thermostat, ["SetTarget", "Tick"])
        assert report.generated == len(mutants)
        assert mutants

        suite = DriverGenerator(spec, seed=7).generate()
        analysis = MutationAnalysis(Thermostat, suite, oracle=paper_oracle())
        run = analysis.analyze(mutants)
        # The thermostat's behaviour is fully observable: the suite should
        # kill a clear majority of interface mutants.
        assert len(run.killed) > 0.6 * run.total

        from repro.mutation.score import build_score_table
        table = build_score_table(run)
        assert table.total_generated == len(mutants)
        assert 0.0 < table.total_score <= 1.0

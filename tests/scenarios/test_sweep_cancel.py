"""Ctrl-C regression for the sweep runner.

The contract: a SIGINT mid-scenario cancels the sweep cooperatively —
``run()`` returns with the interrupted scenario and every unstarted one
marked cancelled, scenarios already finished keep their real rows, and
the report gate fails.
"""

from __future__ import annotations

from repro.scenarios import SweepRunner, registry_from_mappings

FAST = {
    "component": {"ref": "BankAccount"},
    "operators": ["IndVarRepGlob"],
    "suite": {"max_cases": 6},
    "budgets": {"max_mutants": 8},
}


def _registry(*idents):
    return registry_from_mappings(
        [dict(FAST, ident=ident) for ident in idents]
    )


def test_sequential_sigint_cancels_current_and_rest():
    class ExplodingRunner(SweepRunner):
        def run_scenario(self, scenario):
            if scenario.ident == "boom":
                raise KeyboardInterrupt
            return super().run_scenario(scenario)

    runner = ExplodingRunner(_registry("seq-a", "boom", "seq-b"))
    report = runner.run()
    by_ident = {result.ident: result for result in report.results}
    assert by_ident["seq-a"].error == ""  # completed before the interrupt
    assert by_ident["seq-a"].mutants_total > 0
    assert by_ident["boom"].error.startswith("RunCancelled")
    assert by_ident["seq-b"].error.startswith("RunCancelled")
    assert report.passed is False

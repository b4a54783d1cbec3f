"""Ctrl-C regression for the sweep runner.

The contract: a SIGINT mid-scenario cancels the sweep cooperatively —
``run()`` returns with the interrupted scenario and every unstarted one
marked cancelled, scenarios already finished keep their real rows, and
the report gate fails.  On the worker pool, no worker outlives the
sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.obs import MemorySink, Telemetry
from repro.scenarios import SweepRunner, registry_from_mappings

FAST = {
    "component": {"ref": "BankAccount"},
    "operators": ["IndVarRepGlob"],
    "suite": {"max_cases": 6},
    "budgets": {"max_mutants": 8},
}

CANCELLED = "RunCancelled: sweep cancelled before this scenario ran"


def _registry(*idents, refs=()):
    refs = refs or ("BankAccount",) * len(idents)
    return registry_from_mappings(
        [dict(FAST, ident=ident, component={"ref": ref})
         for ident, ref in zip(idents, refs)]
    )


def test_sequential_sigint_cancels_current_and_rest():
    class ExplodingRunner(SweepRunner):
        def _run(self, scenario):
            if scenario.ident == "boom":
                raise KeyboardInterrupt
            return super()._run(scenario)

    runner = ExplodingRunner(_registry("seq-a", "boom", "seq-b"))
    report = runner.run()
    by_ident = {result.ident: result for result in report.results}
    assert by_ident["seq-a"].error == ""  # completed before the interrupt
    assert by_ident["seq-a"].mutants_total > 0
    assert by_ident["boom"].error.startswith("RunCancelled")
    assert by_ident["seq-b"].error.startswith("RunCancelled")
    assert report.passed is False


def test_pooled_sigint_keeps_finished_rows(tmp_path, monkeypatch):
    # Four components, so four tasks; "boom" is dispatched only once one
    # of the first two has finished, and it sends the parent SIGINT.
    registry = _registry("pool-a", "pool-b", "boom", "pool-c",
                         refs=("BankAccount", "BoundedStack", "Product",
                               "CObList"))
    serial = {result.ident: result.to_dict(timings=False)
              for result in SweepRunner(registry).run().results}
    real_run = SweepRunner._run

    def interrupting_run(self, scenario):
        if scenario.ident == "boom":
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)  # until the parent kills this worker
        return real_run(self, scenario)

    monkeypatch.setattr(SweepRunner, "_run", interrupting_run)
    sink = MemorySink()
    report = SweepRunner(registry, workers=2,
                         telemetry=Telemetry(sink=sink)).run()
    pids = {event["attrs"]["pid"] for event in sink.events
            if event["name"] == "parallel.worker_spawned"}
    assert pids
    assert not pids & {child.pid
                       for child in multiprocessing.active_children()}

    by_ident = {result.ident: result for result in report.results}
    assert list(by_ident) == ["pool-a", "pool-b", "boom", "pool-c"]
    assert by_ident["boom"].error == CANCELLED
    finished = [result for result in report.results
                if result.error != CANCELLED]
    assert {"pool-a", "pool-b"} & {result.ident for result in finished}
    for result in finished:
        assert result.to_dict(timings=False) == serial[result.ident]
    assert report.passed is False

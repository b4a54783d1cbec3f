"""Ctrl-C regression for the sweep runner.

The contract: a SIGINT mid-scenario cancels the sweep cooperatively —
``run()`` returns with the interrupted scenario and every unstarted one
marked cancelled, scenarios already finished keep their real rows, and
the report gate fails.  On the worker pool, no worker is left holding a
task afterwards.
"""

from __future__ import annotations

import os
import signal
import time

from repro.mutation.parallel import shared_worker_pool, shutdown_shared_pool
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


def test_pooled_sigint_keeps_finished_rows(tmp_path, monkeypatch):
    # Four components, so four tasks; "boom" is dispatched only once one
    # of the first two has finished, and it sends the parent SIGINT.
    registry = _registry("pool-a", "pool-b", "boom", "pool-c",
                         refs=("BankAccount", "BoundedStack", "Product",
                               "CObList"))
    serial = {result.ident: result.to_dict(timings=False)
              for result in SweepRunner(registry).run().results}
    real_execute = SweepRunner._execute

    def interrupting_execute(self, item, started):
        if item.scenario.ident == "boom":
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)  # until the parent kills this worker
        return real_execute(self, item, started)

    monkeypatch.setattr(SweepRunner, "_execute", interrupting_execute)
    shutdown_shared_pool()  # fork the workers after the patch
    try:
        report = SweepRunner(registry, workers=2).run()
        pool = shared_worker_pool()
        assert not any(worker.assigned for worker in pool.workers)
    finally:
        shutdown_shared_pool()

    by_ident = {result.ident: result for result in report.results}
    assert list(by_ident) == ["pool-a", "pool-b", "boom", "pool-c"]
    assert by_ident["boom"].error == CANCELLED
    finished = [result for result in report.results
                if result.error != CANCELLED]
    assert {"pool-a", "pool-b"} & {result.ident for result in finished}
    for result in finished:
        assert result.to_dict(timings=False) == serial[result.ident]
    assert report.passed is False

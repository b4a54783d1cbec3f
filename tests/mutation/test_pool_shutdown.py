"""Cleanup hardening of a pool run.

A run reaps its workers before it returns or raises, whatever state they
are in by then.  The contract: the run's cleanup tolerates workers that
are already dead and pipes that are already closed, leaves none of the
run's workers in ``multiprocessing.active_children()``, and a second
call is a no-op.
"""

from __future__ import annotations

import multiprocessing

from repro.mutation.parallel import PoolJob, _PoolRun
from repro.obs import NULL_TELEMETRY


class Doubling:
    """A job spec whose runner doubles each task."""

    def runner(self):
        return lambda task: 2 * task


def _finished_run():
    """A two-worker run driven to completion but not yet cleaned up."""
    results = {}
    run = _PoolRun(PoolJob(
        tasks=range(6), spec=Doubling(), deliver=results.__setitem__,
        lost=lambda task, reason, detail: None,
        describe=lambda task: {}, workers=2, obs=NULL_TELEMETRY,
    ))
    run.drive()
    assert results == {index: 2 * index for index in range(6)}
    assert len(run.workers) == 2
    return run


def _live(workers):
    pids = {worker.process.pid for worker in workers}
    return {child.pid for child in multiprocessing.active_children()} & pids


def test_close_is_idempotent_after_workers_killed():
    run = _finished_run()
    workers = list(run.workers)
    # The workers are already gone when the run cleans up.
    for worker in workers:
        worker.process.kill()
        worker.process.join()
    run.close()
    assert run.workers == []
    run.close()  # second close: no-op, no exception
    assert _live(workers) == set()


def test_close_survives_broken_pipes():
    # Kill the workers AND close their pipes first: the cleanup must
    # swallow the resulting OSErrors.
    run = _finished_run()
    workers = list(run.workers)
    for worker in workers:
        worker.process.kill()
        worker.process.join()
        worker.connection.close()
    run.close()
    run.close()
    assert run.workers == []
    assert _live(workers) == set()

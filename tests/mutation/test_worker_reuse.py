"""Worker lifetime tests: every pool run forks its workers and reaps them.

No run needs anything an earlier run left behind, so a pool lives exactly
as long as its run, and its workers are reused across that run's batches
only.  The observable contract: once a run ends — normally, with a
``WORKER_CRASH`` verdict or by ``KeyboardInterrupt`` — none of its
workers is left in ``multiprocessing.active_children()``; a worker killed
mid-battery is respawned and the replacement's verdicts are
serial-identical; a worker that dies while idle is replaced without a
verdict moving; two runs at once on two threads each drive workers of
their own, and one run's crash never reaches the other's verdicts; a
spec that does not pickle still runs under ``fork``; under ``spawn``,
where the spec pickles once per worker, the run is serial-identical too;
and workers that die before they start end the run with an error.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import replace

import pytest

import repro.mutation.parallel as parallel
from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.core.errors import ReproError
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import KillReason, experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.generate import generate_mutants
from repro.mutation.parallel import (
    ParallelMutationAnalysis,
    PoolJob,
    run_pool,
)
from repro.obs import MemorySink, Telemetry

from .test_parallel import CRASH_SOURCE, hostile_mutant

SEEDS = (20010701, 7, 99)
MUTANT_COUNT = 10


def small_suite(seed: int):
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:30]
    return replace(suite, cases=relevant)


def oracle():
    return experiment_oracle(CSortableObList.__tspec__)


@pytest.fixture(scope="module")
def mutants():
    pool, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return pool[:MUTANT_COUNT]


def battery(mutants, seed, *, telemetry=None, workers=2, batch_size=None,
            **options):
    return ParallelMutationAnalysis(
        CSortableObList, small_suite(seed), oracle=oracle(),
        workers=workers, batch_size=batch_size, static_triage=False,
        telemetry=telemetry, **options,
    ).analyze(mutants)


def serial_run(mutants, seed, **options):
    return MutationAnalysis(
        CSortableObList, small_suite(seed), oracle=oracle(),
        static_triage=False, **options,
    ).analyze(mutants)


def first_difference(outcomes, serial) -> str:
    """The first outcome that differs from the serial run's: its ident,
    the fields that differ, and its reason, killing case and detail on
    both sides."""
    for mine, theirs in zip(outcomes, serial):
        if mine != theirs:
            fields = [name for name in mine.__dataclass_fields__
                      if getattr(mine, name) != getattr(theirs, name)]
            return (f"{mine.mutant.ident} differs in {', '.join(fields)}: "
                    f"{describe(mine)}, serially {describe(theirs)}")
    if len(outcomes) != len(serial):
        return f"{len(outcomes)} outcomes, serially {len(serial)}"
    return "every outcome agrees; the step timeouts or the reference differ"


def describe(outcome) -> str:
    return (f"{outcome.reason.value} at {outcome.killing_case or '-'} "
            f"({outcome.detail!r})")


class PoolWatch(Telemetry):
    """Telemetry that keeps the pids of the workers a run forks, and may
    act on the first verdict the run applies: ``on_verdict(pids)`` runs
    right after that ``parallel.task`` event."""

    def __init__(self, on_verdict=None):
        super().__init__(sink=MemorySink())
        self.pids = []
        self._on_verdict = on_verdict

    def event(self, name, **attrs):
        super().event(name, **attrs)
        if name == "parallel.worker_spawned":
            self.pids.append(attrs["pid"])
        elif name == "parallel.task" and self._on_verdict is not None:
            on_verdict, self._on_verdict = self._on_verdict, None
            on_verdict(self.pids)


def live(pids):
    """The pids among ``pids`` of this process's children still alive."""
    alive = {child.pid for child in multiprocessing.active_children()}
    return alive & set(pids)


def interrupt(pids):
    raise KeyboardInterrupt


class TestWorkersExitWithTheirRun:
    """No worker outlives the run that forked it, however the run ends."""

    @pytest.mark.parametrize("ending", ("normal", "crash", "interrupt"))
    def test_no_worker_outlives_its_run(self, ending, mutants):
        tasks = list(mutants)
        if ending == "crash":
            tasks.insert(0, hostile_mutant("X0204", CRASH_SOURCE))
        watch = PoolWatch(interrupt if ending == "interrupt" else None)
        if ending == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                battery(tasks, SEEDS[0], telemetry=watch)
        else:
            run = battery(tasks, SEEDS[0], telemetry=watch)
            reasons = [outcome.reason for outcome in run.outcomes]
            assert (KillReason.WORKER_CRASH in reasons) == (ending == "crash")
        assert watch.pids
        assert live(watch.pids) == set()


class TestCrashRespawn:
    """A mid-battery crash respawns a worker whose verdicts stay serial."""

    def test_respawned_worker_finishes_battery_serial_identically(
            self, mutants):
        # One worker: the six innocent mutants can only run on the
        # replacement for the worker the hostile mutant kills, so the
        # respawn is certain rather than a race against a second worker
        # draining them first.
        hostile = hostile_mutant("X0201", CRASH_SOURCE)
        battery_one = [hostile] + list(mutants[:6])
        telemetry = Telemetry(sink=MemorySink())
        run = battery(battery_one, SEEDS[0], telemetry=telemetry, workers=1)
        counters = telemetry.counters()
        telemetry.close()

        assert run.outcomes[0].reason is KillReason.WORKER_CRASH
        assert counters.get("parallel.respawns", 0) == 1
        assert counters.get("parallel.workers_spawned", 0) == 2
        serial = serial_run(battery_one[1:], SEEDS[0])
        assert run.outcomes[1:] == serial.outcomes

    def test_crash_during_interleave_never_corrupts_the_other_run(
            self, mutants):
        # Run A carries a worker-killing mutant and run B is driven at the
        # same time from a second thread.  Each run forks workers of its
        # own, so A's crash classification and solo re-dispatches stay
        # inside A: B's verdicts are serial-identical and free of boundary
        # kills.  A driver thread's exception is raised again here, and a
        # verdict that differs from the serial run's is named.
        import threading

        hostile = hostile_mutant("X0203", CRASH_SOURCE)
        battery_a = [hostile] + list(mutants[:6])
        watches = {"a": PoolWatch(), "b": PoolWatch()}
        drivers = {
            "a": lambda: battery(battery_a, SEEDS[0],
                                 telemetry=watches["a"]),
            "b": lambda: battery(mutants, SEEDS[1], telemetry=watches["b"]),
        }
        results, errors = {}, {}

        def drive(name):
            try:
                results[name] = drivers[name]()
            except BaseException as error:  # raised again below
                errors[name] = error

        threads = [threading.Thread(target=drive, args=(name,))
                   for name in drivers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), (
            "a driver thread still runs after 120 s")
        for name, error in errors.items():
            raise AssertionError(f"run {name.upper()} raised "
                                 f"{error!r}") from error

        run_a, run_b = results["a"], results["b"]
        assert run_a.outcomes[0].reason is KillReason.WORKER_CRASH, (
            f"run A: {hostile.ident} reads {describe(run_a.outcomes[0])}")
        serial_a = serial_run(battery_a[1:], SEEDS[0])
        assert run_a.outcomes[1:] == serial_a.outcomes, (
            "run A: " + first_difference(run_a.outcomes[1:],
                                         serial_a.outcomes))
        serial_b = serial_run(mutants, SEEDS[1])
        assert run_b.same_results(serial_b), "run B: " + first_difference(
            [outcome.comparable() for outcome in run_b.outcomes],
            [outcome.comparable() for outcome in serial_b.outcomes],
        )
        assert not any(
            outcome.reason in (KillReason.WORKER_CRASH,
                               KillReason.WALL_TIMEOUT)
            for outcome in run_b.outcomes
        )
        pids = watches["a"].pids + watches["b"].pids
        assert len(set(pids)) == len(pids)  # no worker served both runs
        assert live(pids) == set()


def kill_last_worker(pids):
    """Kill and reap the newest worker: it has just reported its only
    task, so it dies idle."""
    [worker] = [child for child in multiprocessing.active_children()
                if child.pid == pids[-1]]
    worker.kill()
    worker.join()


class TestPoolHygiene:
    """A worker that dies idle is pruned and replaced, not classified."""

    def test_worker_killed_between_batches_is_replaced(self, mutants):
        watch = PoolWatch(kill_last_worker)
        run = battery(mutants, SEEDS[0], telemetry=watch, workers=1,
                      batch_size=1)
        counters = watch.counters()
        watch.close()

        assert run.same_results(serial_run(mutants, SEEDS[0]))
        assert counters.get("parallel.workers_spawned", 0) == 2
        assert counters.get("parallel.respawns", 0) == 0
        assert counters.get("parallel.worker_crashes", 0) == 0


class Unpicklable:
    """A setup hook that refuses to pickle."""

    def __call__(self) -> None:
        pass

    def __reduce__(self):
        raise pickle.PicklingError("this setup hook does not pickle")


class ExitsWhileUnpickling:
    """A spec whose unpickling ends the worker, as a spawned worker ends
    that re-runs a script without a ``__main__`` guard."""

    def runner(self):
        return lambda task: task

    def __reduce__(self):
        return os._exit, (3,)


class TestSpecReachesWorkers:
    """A forked worker inherits its run's spec; a spawned one unpickles
    it."""

    def test_unpicklable_spec_runs_under_fork(self, mutants):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork is not available on this platform")
        hook = Unpicklable()
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(hook)
        run = battery(mutants, SEEDS[0], setup=hook)
        assert run.same_results(serial_run(mutants, SEEDS[0], setup=hook))

    def test_spawned_workers_match_serial(self, mutants, monkeypatch):
        monkeypatch.setattr(parallel, "_mp_context",
                            lambda: multiprocessing.get_context("spawn"))
        watch = PoolWatch()
        run = battery(mutants[:6], SEEDS[0], telemetry=watch)
        assert run.same_results(serial_run(mutants[:6], SEEDS[0]))
        assert len(watch.pids) == 2
        assert live(watch.pids) == set()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_dying_while_starting_end_the_run(self, monkeypatch,
                                                      workers):
        # Each death used to be taken for a batch crash, and each lost
        # task spawned another worker that died the same way.  Now the
        # run ends after its first round of spawns, or after a second
        # spawn when it has one worker.
        monkeypatch.setattr(parallel, "_mp_context",
                            lambda: multiprocessing.get_context("spawn"))
        watch = PoolWatch()
        delivered = []
        job = PoolJob(
            tasks=range(8), spec=ExitsWhileUnpickling(),
            deliver=lambda index, result: delivered.append(index),
            lost=lambda task, reason, detail: reason,
            describe=lambda task: {"task": task}, workers=workers,
            obs=watch,
        )
        started = time.perf_counter()
        with pytest.raises(ReproError,
                           match=r"exit code 3, start method 'spawn'"):
            run_pool(job)
        assert time.perf_counter() - started < 30
        assert delivered == []
        assert len(watch.pids) <= max(workers, 2)
        assert live(watch.pids) == set()


class TestInterrupt:
    """An interrupt inside the run loop propagates, reaps the run's
    workers, and leaves nothing for the next run to trip over."""

    def test_interrupt_while_applying_a_verdict(self, mutants):
        watch = PoolWatch(interrupt)
        with pytest.raises(KeyboardInterrupt):
            battery(mutants, SEEDS[0], telemetry=watch)
        assert live(watch.pids) == set()

        rerun = battery(mutants, SEEDS[0])
        assert rerun.same_results(serial_run(mutants, SEEDS[0]))
        assert not any(
            outcome.reason in (KillReason.WORKER_CRASH,
                               KillReason.WALL_TIMEOUT)
            for outcome in rerun.outcomes
        )

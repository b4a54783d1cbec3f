"""Persistent-pool tests: warm workers survive mutants AND batteries.

The throughput claim is that back-to-back batteries (a table2/table3-style
slice) pay fork + battery-spec shipping once, not once per battery.  The
observable contract: worker-spawn counts are flat after the first battery,
an identical battery rerun ships no spec at all (each worker keeps the
battery it last ran), a worker killed mid-battery is respawned and the
replacement's verdicts are serial-identical, an interrupt mid-run leaves
no worker holding a batch, and pools never leak state across battery
boundaries (run ids fence stale messages).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import KillReason, experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.mutation.parallel import (
    ParallelMutationAnalysis,
    WorkerPool,
    shared_worker_pool,
    shutdown_shared_pool,
)
from repro.obs import MemorySink, Telemetry

from .test_parallel import CRASH_SOURCE, hostile_mutant

SEEDS = (20010701, 7, 99)  # three batteries = a table2-style slice
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


def battery(mutants, seed, pool, *, telemetry=None, workers=2,
            batch_size=None):
    return ParallelMutationAnalysis(
        CSortableObList, small_suite(seed), oracle=oracle(),
        workers=workers, batch_size=batch_size, pool=pool,
        static_triage=False, telemetry=telemetry,
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


class TestPoolPersistence:
    """Spawn counts are flat after battery one."""

    def test_three_battery_slice_spawns_once(self, mutants):
        with WorkerPool() as pool:
            spawn_counts = []
            runs = []
            for seed in SEEDS:
                telemetry = Telemetry(sink=MemorySink())
                runs.append(battery(mutants, seed, pool,
                                    telemetry=telemetry))
                counters = telemetry.counters()
                spawn_counts.append(
                    counters.get("parallel.workers_spawned", 0)
                    + counters.get("parallel.respawns", 0)
                )
                telemetry.close()
            assert spawn_counts[0] == 2          # the pool is built once …
            assert spawn_counts[1:] == [0, 0]    # … and only once
            assert pool.size == 2                # workers alive at the end

            for seed, run in zip(SEEDS, runs):
                serial = MutationAnalysis(
                    CSortableObList, small_suite(seed), oracle=oracle(),
                    static_triage=False,
                ).analyze(mutants)
                assert run.same_results(serial)

    def test_identical_battery_rerun_ships_no_spec(self, mutants):
        with WorkerPool() as pool:
            first_telemetry = Telemetry(sink=MemorySink())
            first = battery(mutants, SEEDS[0], pool,
                            telemetry=first_telemetry)
            shipped = first_telemetry.counters().get(
                "parallel.battery_shipped", 0
            )
            first_telemetry.close()
            assert shipped == 2  # one battery spec per worker

            rerun_telemetry = Telemetry(sink=MemorySink())
            rerun = battery(mutants, SEEDS[0], pool,
                            telemetry=rerun_telemetry)
            reshipped = rerun_telemetry.counters().get(
                "parallel.battery_shipped", 0
            )
            rerun_telemetry.close()
            # Each worker still held the identical spec's battery.
            assert reshipped == 0
            assert rerun.same_results(first)

    def test_changed_battery_reconfigures_workers(self, mutants):
        with WorkerPool() as pool:
            battery(mutants, SEEDS[0], pool)
            telemetry = Telemetry(sink=MemorySink())
            battery(mutants, SEEDS[1], pool, telemetry=telemetry)  # new suite
            shipped = telemetry.counters().get("parallel.battery_shipped", 0)
            telemetry.close()
            assert shipped == 2  # different spec: every worker reconfigured


class TestCrashRespawn:
    """A mid-battery crash respawns a worker whose verdicts stay serial."""

    def test_respawned_worker_finishes_battery_serial_identically(
            self, mutants):
        # One worker: the six innocent mutants can only run on the
        # replacement for the worker the hostile mutant kills, so the
        # respawn is certain rather than a race against a second worker
        # draining them first.
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0201", CRASH_SOURCE)
        battery_one = [hostile] + list(mutants[:6])
        with WorkerPool() as pool:
            telemetry = Telemetry(sink=MemorySink())
            run = ParallelMutationAnalysis(
                CSortableObList, suite, oracle=oracle(), workers=1,
                pool=pool, static_triage=False, telemetry=telemetry,
            ).analyze(battery_one)
            counters = telemetry.counters()
            telemetry.close()

            assert run.outcomes[0].reason is KillReason.WORKER_CRASH
            assert counters.get("parallel.respawns", 0) == 1
            serial = MutationAnalysis(
                CSortableObList, suite, oracle=oracle(), static_triage=False,
            ).analyze(battery_one[1:])
            assert run.outcomes[1:] == serial.outcomes

    def test_crash_during_interleave_never_corrupts_the_other_run(
            self, mutants):
        # Run A carries a worker-killing mutant and run B is submitted to
        # the same pool from a second thread.  The pool serves the two
        # runs one after the other, so A's crash classification and solo
        # re-dispatches stay inside A: B's verdicts are serial-identical
        # and free of boundary kills.  A driver thread's exception is
        # raised again here, and a verdict that differs from the serial
        # run's is named.
        import threading

        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0203", CRASH_SOURCE)
        battery_a = [hostile] + list(mutants[:6])
        drivers = {
            "a": lambda pool: ParallelMutationAnalysis(
                CSortableObList, suite, oracle=oracle(), workers=2,
                pool=pool, static_triage=False,
            ).analyze(battery_a),
            "b": lambda pool: battery(mutants, SEEDS[1], pool),
        }
        results, errors = {}, {}

        def drive(name, pool):
            try:
                results[name] = drivers[name](pool)
            except BaseException as error:  # raised again below
                errors[name] = error

        with WorkerPool() as pool:
            threads = [threading.Thread(target=drive, args=(name, pool))
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
        serial_a = MutationAnalysis(
            CSortableObList, suite, oracle=oracle(), static_triage=False,
        ).analyze(battery_a[1:])
        assert run_a.outcomes[1:] == serial_a.outcomes, (
            "run A: " + first_difference(run_a.outcomes[1:],
                                         serial_a.outcomes))
        serial_b = MutationAnalysis(
            CSortableObList, small_suite(SEEDS[1]), oracle=oracle(),
            static_triage=False,
        ).analyze(mutants)
        assert run_b.same_results(serial_b), "run B: " + first_difference(
            [outcome.comparable() for outcome in run_b.outcomes],
            [outcome.comparable() for outcome in serial_b.outcomes],
        )
        assert not any(
            outcome.reason in (KillReason.WORKER_CRASH,
                               KillReason.WALL_TIMEOUT)
            for outcome in run_b.outcomes
        )

    def test_next_battery_reuses_the_respawned_pool(self, mutants):
        # One worker, as above: with two, the survivor can drain the
        # battery before the crash is seen, and the pool ends it one
        # worker short with nothing left to respawn for.
        suite = small_suite(SEEDS[0])
        hostile = hostile_mutant("X0202", CRASH_SOURCE)
        with WorkerPool() as pool:
            first = Telemetry(sink=MemorySink())
            ParallelMutationAnalysis(
                CSortableObList, suite, oracle=oracle(), workers=1,
                pool=pool, static_triage=False, telemetry=first,
            ).analyze([hostile] + list(mutants[:6]))
            assert first.counters().get("parallel.respawns", 0) == 1
            first.close()

            # Battery two on the same pool: no new spawns, clean verdicts.
            telemetry = Telemetry(sink=MemorySink())
            rerun = battery(mutants, SEEDS[1], pool, telemetry=telemetry,
                            workers=1)
            counters = telemetry.counters()
            telemetry.close()
            assert counters.get("parallel.workers_spawned", 0) == 0
            assert counters.get("parallel.respawns", 0) == 0
            serial = MutationAnalysis(
                CSortableObList, small_suite(SEEDS[1]), oracle=oracle(),
                static_triage=False,
            ).analyze(mutants)
            assert rerun.same_results(serial)


class TestSharedPool:
    """Engines without an explicit pool share one process-wide pool."""

    def test_default_engines_share_the_module_pool(self, mutants):
        shutdown_shared_pool()
        try:
            first = battery(mutants, SEEDS[0], None)
            pool = shared_worker_pool()
            assert pool.size >= 2  # left warm by the first engine
            workers_before = list(pool.workers)
            second = battery(mutants, SEEDS[0], None)
            assert shared_worker_pool() is pool
            assert pool.workers[:2] == workers_before[:2]  # same processes
            assert second.same_results(first)
        finally:
            shutdown_shared_pool()

    def test_shutdown_closes_and_recreates(self, mutants):
        battery(mutants, SEEDS[0], None)
        pool = shared_worker_pool()
        shutdown_shared_pool()
        assert pool.closed
        assert pool.size == 0
        fresh = shared_worker_pool()
        assert fresh is not pool
        shutdown_shared_pool()

    def test_overlapping_analyses_share_one_pool(self, mutants):
        # Two threads driving the same pool take turns on its warm
        # workers instead of one of them falling back to a cold private
        # pool: the pool serves one run after the other, both finish with
        # serial-identical verdicts, and the pool never grows past the
        # largest single request.
        import threading

        with WorkerPool() as pool:
            runs = {}

            def drive(seed):
                runs[seed] = battery(mutants, seed, pool)

            threads = [threading.Thread(target=drive, args=(seed,))
                       for seed in SEEDS[:2]]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)

            assert pool.size <= 2  # shared capacity, not 2 + 2
            for seed in SEEDS[:2]:
                serial = MutationAnalysis(
                    CSortableObList, small_suite(seed), oracle=oracle(),
                    static_triage=False,
                ).analyze(mutants)
                assert runs[seed].same_results(serial)


class TestPoolHygiene:
    """Dead idle workers are pruned, not classified."""

    def test_worker_killed_between_batteries_is_replaced(self, mutants):
        with WorkerPool() as pool:
            first = battery(mutants, SEEDS[0], pool)
            victim = pool.workers[0]
            victim.process.kill()
            victim.process.join()

            rerun = battery(mutants, SEEDS[0], pool)
            assert rerun.same_results(first)
            assert pool.size == 2
            assert all(worker.process.is_alive()
                       for worker in pool.workers)


class InterruptingCache(MutationOutcomeCache):
    """A store whose verdict write-back raises ``KeyboardInterrupt``, as
    Ctrl-C would if it reached the pool while it applied a verdict."""

    def store(self, *args, **kwargs):
        raise KeyboardInterrupt


class TestInterrupt:
    """An interrupt inside the run loop propagates and leaves the pool
    clean for the next run."""

    def test_interrupt_while_applying_a_verdict(self, mutants, tmp_path):
        with WorkerPool() as pool:
            with pytest.raises(KeyboardInterrupt):
                ParallelMutationAnalysis(
                    CSortableObList, small_suite(SEEDS[0]), oracle=oracle(),
                    workers=2, pool=pool, static_triage=False,
                    cache=InterruptingCache(tmp_path),
                ).analyze(mutants)
            assert not any(worker.assigned for worker in pool.workers)

            rerun = battery(mutants, SEEDS[0], pool)
            serial = MutationAnalysis(
                CSortableObList, small_suite(SEEDS[0]), oracle=oracle(),
                static_triage=False,
            ).analyze(mutants)
            assert rerun.same_results(serial)
            assert not any(
                outcome.reason in (KillReason.WORKER_CRASH,
                                   KillReason.WALL_TIMEOUT)
                for outcome in rerun.outcomes
            )

"""Process-pool mutation analysis with serial-equivalent results.

The paper ran every mutant "as a separate class … individually compiled"
(sec. 4) — each mutant execution is an independent program, which is
exactly the independence that makes per-mutant fan-out safe.  This module
exploits it with one override: :class:`ParallelMutationAnalysis` is the
serial :class:`~repro.mutation.analysis.MutationAnalysis`, whose one
analysis loop still looks the run up in the store, triages the battery,
fills the triaged outcomes, assembles the run and stores it.  Only the
step that resolves the untriaged mutants differs: they go to N worker
processes.  Each worker **runs the module code the parent compiled**
(the pickle protocol of :class:`~repro.mutation.mutant.CompiledMutant`
compiles the mutant's splice and ships it marshalled), runs the suite
under a fresh :class:`~repro.mutation.sandbox.StepBudgetGuard`, and
ships the outcome back to the parent.  The pool changes *where* a mutant
runs, never *how*; a run replayed from the store touches no worker.

Mutants ship to workers in batches — by default
``max(1, dispatched // (8 × workers))`` per batch (``batch_size``
overrides) — so the per-task pipe round-trip amortizes over the batch.
Workers still stream one ``done`` message per mutant, in submission
order, so results merge exactly as before.

**One pool per run.**  :func:`run_pool` forks the workers of one
:class:`PoolJob` and reaps every one of them before it returns or raises.
Each worker starts holding the job's spec (the compiled original class,
suite fixtures, reference run and coverage matrix of a mutant job): a
forked worker inherits it, and only where ``spawn`` is the sole start
method is it pickled, once per worker.  No run needs anything an earlier
run left behind (the paper compiled each mutant as a separate class), so
a worker lives exactly one run, and runs on two threads each drive
workers of their own.  Any exception inside the loop, Ctrl-C included,
kills the workers still holding batches before it propagates.

The pool itself knows nothing of mutants.  A :class:`PoolJob` names its
tasks, a spec whose ``runner()`` builds the callable a worker applies to
each task, and the result that stands in for a task that takes its
worker down.  This engine's jobs run mutants; the scenario sweep
(:mod:`repro.scenarios.sweep`) runs whole scenarios through the same
:func:`run_pool`, under the same crash, respawn and interrupt rules:
each of its tasks carries scenario recipes, and its spec only the
workspace, so the worker resolves and runs what the recipes name.

Two contracts, both tested differentially against the serial engine:

* **Determinism.**  Outcomes are merged back *in submission order*, every
  worker judges against the parent's single recorded reference run, and the
  step-budget sandbox makes each mutant's verdict schedule-independent — so
  the parallel :class:`~repro.mutation.analysis.MutationRun` is
  field-for-field identical to the serial one (wall-clock aside; see
  :meth:`~repro.mutation.analysis.MutationRun.same_results`), at every
  batch size and worker count.

* **Robustness.**  The paper's kill rule (i) is "the program crashed while
  running the test cases".  In-process, the step budget already converts
  runaway loops into deterministic ``TIMEOUT`` verdicts; what it cannot
  catch is a mutant that takes the whole process down (``os._exit``, a
  segfaulting extension, an interpreter abort) or blocks without executing
  Python lines.  Those become the *worker boundary*'s problem — with one
  batch-aware refinement so a poisoned mutant can never take out its
  batchmates' verdicts:

  - a **dead worker** whose batch has exactly one unreported mutant marks
    it killed with :attr:`~repro.harness.oracles.KillReason.WORKER_CRASH`
    (the worker executes in order, so that mutant was running);
  - a dead worker with *several* unreported mutants re-dispatches each of
    them as a **solo batch** — the poisoned one crashes alone and is then
    classified, every innocent batchmate re-runs normally and keeps its
    serial-identical verdict;
  - a worker **silent past the wall-clock backstop** has provably hung on
    its first unreported mutant (execution is in-order and every verdict
    streams back immediately), which is killed with
    :attr:`~repro.harness.oracles.KillReason.WALL_TIMEOUT`; the batch's
    remaining never-started mutants are re-queued untouched.

  A replacement worker is spawned whenever work remains, so every mutant
  still runs; the engine never wedges on a hostile mutant.

  A worker reports ready before its first task.  One that dies before
  that never started its batch, which goes back to the queue untouched;
  a second such death in a row ends the run with a
  :class:`~repro.core.errors.ReproError` naming the exit code and the
  start method (under ``spawn``, a script that starts a pool without an
  ``if __name__ == "__main__":`` guard dies this way in every worker).

Per-worker ``StepBudgetGuard.timeouts`` counters are aggregated into
``MutationRun.step_timeouts`` so sandbox activity stays observable across
process boundaries.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..core.errors import ReproError
from ..generator.suite import TestSuite
from ..harness.oracles import CompositeOracle, KillReason
from ..harness.outcomes import SuiteResult
from ..obs import Telemetry
from .analysis import ClassBuilder, MutantOutcome, MutationAnalysis
from .coverage import CoverageMatrix
from .mutant import CompiledMutant

#: Wall-clock backstop per mutant, in seconds.  Generous: the step budget
#: catches ordinary runaway mutants deterministically within milliseconds;
#: the backstop only exists for mutants that block without executing
#: traceable Python lines, where only elapsed time is observable.
DEFAULT_WALL_CLOCK_BACKSTOP = 60.0

#: How long the run loop waits on worker pipes before its next health pass.
_POLL_INTERVAL = 0.05

#: How long a run's cleanup waits for an idle worker to exit when asked.
_EXIT_GRACE = 1.0

#: The adaptive default aims for ~8 batches per worker: small enough that
#: a straggler batch cannot idle the rest of the pool for long, large
#: enough to amortize the pipe round-trip.
DEFAULT_BATCH_DIVISOR = 8


def default_batch_size(dispatched: int, workers: int) -> int:
    """The adaptive chunk size: ``max(1, dispatched // (8 × workers))``."""
    return max(1, dispatched // (DEFAULT_BATCH_DIVISOR * workers))


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the serial analysis (picklable)."""

    original_class: type
    suite: TestSuite
    oracle: Optional[CompositeOracle]
    class_builder: Optional[ClassBuilder]
    step_budget: int
    stop_on_first_kill: bool
    setup: Optional[Callable[[], None]]
    reference: SuiteResult
    #: Coverage-guided pruning: the matrix is recorded once in the parent
    #: (alongside the reference) and handed over verbatim, so every worker
    #: skips exactly the (mutant, case) pairs the serial engine would.
    prune: bool = True
    coverage: Optional[CoverageMatrix] = None

    def runner(self) -> Callable[[CompiledMutant], Tuple[MutantOutcome, int]]:
        """The plain serial analysis a worker judges every mutant with."""
        return MutationAnalysis(
            self.original_class,
            self.suite,
            oracle=self.oracle,
            class_builder=self.class_builder,
            step_budget=self.step_budget,
            stop_on_first_kill=self.stop_on_first_kill,
            setup=self.setup,
            reference=self.reference,
            prune=self.prune,
            coverage=self.coverage,
        ).analyze_single


@dataclass(frozen=True)
class PoolJob:
    """One run of :func:`run_pool`, as its caller describes it.

    Every worker of the run starts holding ``spec``: a forked worker
    inherits it, and only under the ``spawn`` start method must it
    pickle.  Before its first task the worker calls ``spec.runner()``, and
    it applies the returned callable to each task, in order, sending each
    result back (tasks and results always pickle).
    The parent hands every task's result to ``deliver(index, result)``,
    where ``index`` is the task's position in ``tasks``.  A task that took
    its worker down, raised out of the runner, or outlived ``backstop``
    seconds of silence gets the result ``lost(task, reason, detail)``
    builds in the parent.
    ``describe(task)`` gives the telemetry attributes naming a task.
    """

    tasks: Sequence[Any]
    spec: Any
    deliver: Callable[[int, Any], None]
    lost: Callable[[Any, KillReason, str], Any]
    describe: Callable[[Any], Dict[str, Any]]
    #: Most batches in flight at once, and the most workers alive at once.
    workers: int
    obs: Telemetry
    batch_size: int = 1
    backstop: float = math.inf


def _worker_main(connection: Connection, spec: Any) -> None:
    """Worker loop: task batches in, results out.

    The worker first sends ``("ready",)``: it runs, holding its spec.
    Each message is a batch ``((index, task), …)``: the worker applies
    ``spec.runner()`` (built before its first task) to each task in
    order, streaming one ``("done", index, result)`` per task (or
    ``("error", index, message)`` for a harness-level failure); ``None``
    exits.  For a mutant job the runner is a plain serial
    :class:`MutationAnalysis` seeded with the parent's reference run;
    parallelism changes *where* a task runs, never *how*.
    """
    runner: Optional[Callable[[Any], Any]] = None
    try:
        connection.send(("ready",))
        while True:
            batch = connection.recv()
            if batch is None:
                break
            for index, task in batch:
                try:
                    if runner is None:
                        runner = spec.runner()
                    connection.send(("done", index, runner(task)))
                except KeyboardInterrupt:
                    raise
                except BaseException as error:  # noqa: BLE001 — must not die
                    # A harness-level failure (builder blew up, SystemExit
                    # from mutated code, …).  Report it instead of taking
                    # the worker down; the parent classifies it as a
                    # worker-boundary failure.
                    connection.send(
                        ("error", index, f"{type(error).__name__}: {error}")
                    )
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away or shut us down; nothing to clean up
    finally:
        connection.close()


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "connection", "ready", "assigned", "batch_len",
                 "batch_started", "last_heard")

    def __init__(self, process, connection: Connection):
        self.process = process
        self.connection = connection
        #: The worker sent ``("ready",)``: a death from here on is a
        #: task's.
        self.ready = False
        #: Batch tasks not yet resolved, in execution order; the worker
        #: holds a batch exactly while this is non-empty.
        self.assigned: Deque[Tuple[int, Any]] = deque()
        self.batch_len = 0
        self.batch_started = 0.0
        self.last_heard = 0.0


def run_pool(job: PoolJob) -> None:
    """Drive ``job`` on workers of its own until every task's result is
    delivered.

    Up to ``job.workers`` workers are forked for the run, each holding
    ``job.spec``, and every one of them is reaped before this returns or
    raises.  An exception raised meanwhile (a ``KeyboardInterrupt``
    reaching this thread, a failing ``deliver``) kills the workers still
    holding batches before it propagates.
    """
    run = _PoolRun(job)
    try:
        run.drive()
    finally:
        run.close()


class _PoolRun:
    """One job's workers and bookkeeping, from its first fork to its last
    reap."""

    def __init__(self, job: PoolJob):
        self.job = job
        self.context = _mp_context()
        self.workers: List[_Worker] = []
        #: ``(index, task)`` pairs not yet dispatched.
        self.pending: Deque[Tuple[int, Any]] = deque(enumerate(job.tasks))
        self.remaining = len(job.tasks)
        #: When the pending queue was filled — dispatch events report each
        #: task's queue wait relative to this instant.
        self.enqueued_at = time.perf_counter()
        #: Workers lost mid-batch and not yet replaced; each replacement
        #: spawn consumes one and counts as a respawn.
        self.casualties = 0
        #: Indices that must be dispatched as singleton batches: survivors
        #: of a crashed multi-task batch, re-run alone so a poisoned
        #: batchmate cannot contaminate their results (and so the poisoned
        #: one, alone in its batch, is attributable when it kills its
        #: worker again).
        self.solo: Set[int] = set()
        #: Indices whose result has been delivered.
        self.reported: Set[int] = set()
        #: Workers that died before they reported ready since a worker
        #: last did.
        self.start_deaths = 0

    def drive(self) -> None:
        """Health pass → sizing → dispatch → wait, until the run is done.

        The run grows to ``min(workers, in flight + pending)`` workers and
        never holds more than ``workers`` batches at once.  A replacement
        for a worker lost mid-batch counts as a respawn.  A worker that
        died while starting is replaced only once no other is starting,
        so when every worker dies that way the run ends after its first
        round of spawns: ``max(workers, 2)`` at most.
        """
        job = self.job
        while True:
            now = time.perf_counter()
            for worker in list(self.workers):
                if not worker.process.is_alive():
                    self._retire_dead(worker)
                elif (worker.assigned
                        and now - worker.last_heard > job.backstop):
                    self._retire_hung(worker)
            if self.remaining <= 0:
                return
            busy = sum(1 for worker in self.workers if worker.assigned)
            # After a worker died while starting, the next one starts only
            # once no other is still starting.
            starting = self.start_deaths and not all(
                worker.ready for worker in self.workers)
            while not starting and len(self.workers) < min(
                    job.workers, busy + len(self.pending)):
                self._spawn()
                if self.casualties > 0:
                    self.casualties -= 1
                    job.obs.count("parallel.respawns")
            for worker in list(self.workers):
                if not self.pending or busy >= job.workers:
                    break
                if not worker.assigned:
                    self._dispatch(worker)
                    busy += 1
            watched = [worker.connection for worker in self.workers
                       if worker.assigned]
            try:
                ready = connection_wait(watched, timeout=_POLL_INTERVAL)
            except OSError:
                ready = []  # a pipe vanished; the next health pass classifies
            for worker in list(self.workers):
                if worker.connection in ready:
                    self._drain_worker(worker)

    def record(self, index: int, result: Any) -> None:
        """Deliver one result exactly once (duplicates are dropped)."""
        if index not in self.reported:
            self.reported.add(index)
            self.remaining -= 1
            self.job.deliver(index, result)

    def lose(self, task: Tuple[int, Any], reason: KillReason,
             detail: str) -> None:
        """Deliver the job's stand-in result for a task its worker lost."""
        self.record(task[0], self.job.lost(task[1], reason, detail))

    # -- message handling ------------------------------------------------

    def _drain_worker(self, worker: _Worker) -> None:
        """Apply every message currently sitting in one worker's pipe."""
        try:
            while worker.connection.poll(0):
                self._apply_message(worker, worker.connection.recv())
        except (EOFError, OSError):
            pass  # pipe closed mid-batch: the next health pass classifies it

    def _apply_message(self, worker: _Worker, message: Tuple) -> None:
        if message[0] == "ready":
            worker.ready = True
            self.start_deaths = 0
            return
        kind, index = message[0], message[1]
        previously_heard = worker.last_heard
        worker.last_heard = time.perf_counter()
        obs = self.job.obs
        task = next((assigned for assigned in worker.assigned
                     if assigned[0] == index), None)
        if task is None:
            return  # only this worker's batch can report to it
        worker.assigned.remove(task)
        if kind == "done":
            obs.event(
                "parallel.task", index=index, **self.job.describe(task[1]),
                seconds=round(worker.last_heard - previously_heard, 6),
            )
            self.record(index, message[2])
        else:
            obs.count("parallel.worker_errors")
            self.lose(task, KillReason.WORKER_CRASH,
                      f"worker failed to run the task: {message[2]}")
        if not worker.assigned and worker.batch_len:
            obs.event(
                "parallel.batch", size=worker.batch_len,
                seconds=round(worker.last_heard - worker.batch_started, 6),
            )
            worker.batch_len = 0

    # -- health ----------------------------------------------------------

    def _retire_dead(self, worker: _Worker) -> None:
        # Salvage what the worker sent before dying.  A worker that never
        # reported ready never started its batch.  Otherwise apply the
        # batch crash rule: a single unreported task was provably
        # executing and is handed to the job's ``lost`` as a
        # process-boundary crash; a multi-task remainder is re-dispatched
        # solo so one poisoned task cannot take out its batchmates'
        # results.  An idle dead worker carries no state and is simply
        # pruned.
        worker.process.join()
        self._drain_worker(worker)
        if not worker.ready:
            self._retire_unstarted(worker)
            return
        if worker.assigned:  # salvage may have completed the batch
            obs = self.job.obs
            unreported = [task for task in worker.assigned
                          if task[0] not in self.reported]
            worker.assigned.clear()
            worker.batch_len = 0
            self.casualties += 1
            if len(unreported) == 1:
                index, task = unreported[0]
                obs.event("parallel.worker_crash", index=index,
                          **self.job.describe(task),
                          exitcode=worker.process.exitcode)
                obs.count("parallel.worker_crashes")
                self.lose(unreported[0], KillReason.WORKER_CRASH,
                          f"worker process died (exitcode "
                          f"{worker.process.exitcode}) while running the "
                          f"suite")
            elif unreported:
                obs.event("parallel.batch_failed", size=len(unreported),
                          reason="crash",
                          exitcode=worker.process.exitcode)
                obs.count("parallel.batch_redispatches")
                for task in reversed(unreported):
                    self.solo.add(task[0])
                    self.pending.appendleft(task)
        self._discard(worker)

    def _retire_unstarted(self, worker: _Worker) -> None:
        """Put back the batch of a worker that died before it reported
        ready, untouched; the second such death in a row ends the run."""
        self.pending.extendleft(reversed(worker.assigned))
        worker.assigned.clear()
        self._discard(worker)
        self.start_deaths += 1
        if self.start_deaths >= 2:
            raise ReproError(
                f"pool workers died while starting, twice in a row (exit "
                f"code {worker.process.exitcode}, start method "
                f"{self.context.get_start_method()!r}); under 'spawn', a "
                f"script that starts a pool needs an "
                f"`if __name__ == \"__main__\":` guard"
            )

    def _retire_hung(self, worker: _Worker) -> None:
        # The result may have landed in the pipe while we were not
        # looking; salvage it first — only a genuinely silent worker is a
        # hang.
        self._drain_worker(worker)
        if not worker.assigned:
            return  # salvage completed the batch; the worker is fine
        unreported = [task for task in worker.assigned
                      if task[0] not in self.reported]
        worker.assigned.clear()
        worker.batch_len = 0
        if not unreported:
            return
        # Execution is in-order and every result streams back the moment
        # it exists, so a silent worker is provably stuck on its *first*
        # unreported task; the rest of the batch never started and is
        # re-queued untouched.
        obs = self.job.obs
        backstop = self.job.backstop
        self.casualties += 1
        index, task = unreported[0]
        self._kill(worker)
        obs.event("parallel.wall_timeout", index=index,
                  **self.job.describe(task), backstop=backstop)
        obs.count("parallel.wall_timeouts")
        self.lose(unreported[0], KillReason.WALL_TIMEOUT,
                  f"no verdict within the {backstop:.1f}s wall-clock "
                  f"backstop; worker killed")
        rest = unreported[1:]
        if rest:
            obs.event("parallel.batch_failed", size=len(rest),
                      reason="hang")
            obs.count("parallel.batch_redispatches")
            for task in reversed(rest):
                self.pending.appendleft(task)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, worker: _Worker) -> None:
        """Hand an idle worker the run's next batch."""
        job = self.job
        obs = job.obs
        now = time.perf_counter()
        batch: List[Tuple[int, Any]] = []
        while self.pending and len(batch) < job.batch_size:
            index = self.pending[0][0]
            if index in self.solo and batch:
                break  # a solo task never joins a batch already in hand
            batch.append(self.pending.popleft())
            if index in self.solo:
                break  # …and never takes batchmates of its own
        # Busy from here on: an exception during the send kills the
        # worker instead of leaving a half-written message in its pipe.
        worker.assigned = deque(batch)
        worker.batch_len = len(batch)
        worker.batch_started = worker.last_heard = now
        try:
            worker.connection.send(tuple(batch))
        except OSError:
            # The worker died while idle or starting: the batch never
            # started, so it goes back to the front of the queue untouched.
            self._drain_worker(worker)
            self._kill(worker)
            if worker.ready:
                self.pending.extendleft(reversed(batch))
            else:
                self._retire_unstarted(worker)
            return
        depth = len(self.pending)
        for index, task in batch:
            obs.event(
                "parallel.dispatch", index=index, **job.describe(task),
                waited=round(now - self.enqueued_at, 6),
                batch=len(batch),
                depth=depth,
            )
        obs.count("parallel.batches")

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> None:
        parent_connection, child_connection = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_worker_main, args=(child_connection, self.job.spec),
            daemon=True,
        )
        process.start()
        self.workers.append(_Worker(process, parent_connection))
        child_connection.close()
        self.job.obs.event("parallel.worker_spawned", pid=process.pid)
        self.job.obs.count("parallel.workers_spawned")

    def _discard(self, worker: _Worker) -> None:
        """Forget one (already killed or dead) worker."""
        try:
            worker.connection.close()
        except OSError:
            pass
        if worker in self.workers:
            self.workers.remove(worker)

    def _kill(self, worker: _Worker) -> None:
        """Stop one worker, whatever state it is in, and forget it."""
        try:
            worker.process.kill()
            worker.process.join()
        except OSError:
            pass  # already gone
        self._discard(worker)

    def close(self) -> None:
        """Reap every worker of the run; a second call does nothing.

        A worker still holding a batch (the run is being abandoned) is
        killed; an idle one is asked to exit, and killed if it has not
        within :data:`_EXIT_GRACE` seconds.  Every step tolerates workers
        that are already dead and pipes that are already closed.
        """
        for worker in self.workers:
            try:
                if worker.assigned:
                    worker.process.kill()
                else:
                    worker.connection.send(None)
            except OSError:
                pass  # dead worker or closed pipe: the join below reaps it
        for worker in self.workers:
            try:
                worker.process.join(timeout=_EXIT_GRACE)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
            except OSError:
                pass  # already reaped
            try:
                worker.connection.close()
            except OSError:
                pass
        self.workers.clear()


def shutdown_shared_pool() -> None:
    """Does nothing: :func:`run_pool` reaps a run's workers before it
    returns, and no pool outlives a run.

    Kept for its one caller, the traced mode of ``benchmarks/e2e/child.py``
    (``layer_metrics``), which calls it before it reads the workers' CPU
    time and peak RSS from ``RUSAGE_CHILDREN``.
    """


def _mp_context():
    # fork keeps worker start cheap and hands each worker its job's spec
    # without pickling it; fall back to the platform default where fork
    # is unavailable.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _boundary_result(mutant: CompiledMutant, reason: KillReason,
                     detail: str) -> Tuple[MutantOutcome, int]:
    """The paper's "program crashed" clause, applied at the process
    boundary: the mutant is killed, but no in-process case verdict
    exists, so ``killing_case`` stays empty, ``cases_run`` is 0 and no
    step timeout is counted."""
    return MutantOutcome(
        mutant=mutant.record,
        killed=True,
        reason=reason,
        killing_case="",
        cases_run=0,
        killing_cases=(),
        detail=detail,
    ), 0


class ParallelMutationAnalysis(MutationAnalysis):
    """The serial engine with its mutants run on worker processes.

    Accepts the configuration of :class:`MutationAnalysis` plus the pool
    shape, by keyword: ``workers`` (the most batches this run keeps in
    flight, and the most workers it forks; at least 1, default the CPU
    count) and ``batch_size`` (mutants per dispatch chunk; default
    adaptive).  A worker silent on one mutant for
    :data:`DEFAULT_WALL_CLOCK_BACKSTOP` seconds is killed.
    Workers are forked for each run and inherit its configuration; only
    where ``spawn`` is the sole start method must every configuration
    object (suite, oracle, class builder, setup hook) pickle, and all
    shipped configurations in :mod:`repro.experiments.config` do.
    """

    def __init__(self, original_class: type, suite: TestSuite, *args,
                 workers: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 **options):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be at least 1")
        super().__init__(original_class, suite, *args, **options)
        self._workers = (workers if workers is not None
                         else (os.cpu_count() or 1))
        self._batch_size = batch_size

    def _resolve(self, mutants: List[CompiledMutant], indices: List[int],
                 results: List[Optional[Tuple[MutantOutcome, int]]]) -> None:
        """Run the mutants at ``indices`` on a pool of their own.

        Telemetry stays in the parent: workers run un-instrumented, so the
        trace has one writer.
        """
        with self._obs.span("parallel.run", mutants=len(mutants),
                            workers=self._workers) as span:
            if not indices:
                return

            def deliver(position: int,
                        result: Tuple[MutantOutcome, int]) -> None:
                results[indices[position]] = result

            spec = WorkerSpec(
                original_class=self._original,
                suite=self._suite,
                oracle=self._oracle,
                class_builder=self._builder_spec,
                step_budget=self._budget,
                stop_on_first_kill=self._stop_on_first_kill,
                setup=self._setup,
                reference=self.reference_results(),
                prune=self._prune,
                coverage=self.coverage_matrix(),
            )
            job = PoolJob(
                tasks=[mutants[index] for index in indices],
                spec=spec,
                deliver=deliver,
                lost=_boundary_result,
                describe=lambda mutant: {"mutant": mutant.record.ident},
                workers=self._workers,
                obs=self._obs,
                batch_size=(self._batch_size if self._batch_size is not None
                            else default_batch_size(len(indices),
                                                    self._workers)),
                backstop=DEFAULT_WALL_CLOCK_BACKSTOP,
            )
            span.set("batch_size", job.batch_size)
            run_pool(job)

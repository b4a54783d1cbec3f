"""Process-pool mutation analysis with serial-equivalent results.

The paper ran every mutant "as a separate class … individually compiled"
(sec. 4) — each mutant execution is an independent program, which is
exactly the independence that makes per-mutant fan-out safe.  This module
exploits it with one override: :class:`ParallelMutationAnalysis` is the
serial :class:`~repro.mutation.analysis.MutationAnalysis`, whose one
analysis loop still looks the run up in the store, triages the battery,
fills the triaged outcomes, assembles the run and stores it.  Only the
step that resolves the untriaged mutants differs: they go to N worker
processes.  Each worker **runs the module code the generator compiled**
(the pickle protocol of :class:`~repro.mutation.mutant.CompiledMutant`
ships it marshalled), runs the suite under a fresh
:class:`~repro.mutation.sandbox.StepBudgetGuard`, and ships the outcome
back to the parent.  The pool changes *where* a mutant runs, never
*how*; a run replayed from the store touches no worker.

Two throughput mechanisms keep orchestration from swamping the win:

* **Batched dispatch.**  Mutants ship to workers in chunks — by default
  ``max(1, dispatched // (8 × workers))`` per batch (``batch_size``
  overrides) — so the per-task pipe round-trip amortizes over the batch.
  Workers still stream one ``done`` message per mutant, in submission
  order, so results merge exactly as before.

* **Persistent warm workers.**  The pool outlives a single ``analyze``
  call: a process-wide shared :class:`WorkerPool` (or an explicit one
  passed as ``pool=``) keeps workers alive across mutants *and* across
  batteries (table2/table3 run several back-to-back).  Each battery ships
  its :class:`WorkerSpec` once per worker under a spec token — the
  compiled original class, suite fixtures, reference run and coverage
  matrix stay cached worker-side until a different battery replaces
  them.  Stale messages from a previous battery are discarded by run id.

The pool runs one run at a time, on the caller's thread:
:meth:`WorkerPool.run` owns every worker pipe until the run's results
are complete, and a second thread sharing the pool waits for the first
to finish.  Any exception inside the loop, Ctrl-C included, kills the
workers still holding the run's batches before it propagates, so the
next run starts on a clean pool.

The pool itself knows nothing of mutants.  A :class:`PoolJob` names its
tasks, a picklable spec whose ``runner()`` builds the callable a worker
applies to each task, and the result that stands in for a task that
takes its worker down.  This engine's jobs run mutants; the scenario
sweep (:mod:`repro.scenarios.sweep`) runs whole scenarios on the same
pool, under the same crash, respawn and interrupt rules.

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

Per-worker ``StepBudgetGuard.timeouts`` counters are aggregated into
``MutationRun.step_timeouts`` so sandbox activity stays observable across
process boundaries.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import math
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..generator.suite import TestSuite
from ..harness.oracles import CompositeOracle, KillReason
from ..harness.outcomes import SuiteResult
from ..obs import Telemetry
from .analysis import ClassBuilder, MutantOutcome, MutationAnalysis
from .coverage import CoverageMatrix
from .mutant import CompiledMutant

#: Default wall-clock backstop per mutant, in seconds.  Generous: the step
#: budget catches ordinary runaway mutants deterministically within
#: milliseconds; the backstop only exists for mutants that block without
#: executing traceable Python lines, where only elapsed time is observable.
DEFAULT_WALL_CLOCK_BACKSTOP = 60.0

#: How long the run loop waits on worker pipes before its next health pass.
_POLL_INTERVAL = 0.05

#: The adaptive default aims for ~8 batches per worker: small enough that
#: a straggler batch cannot idle the rest of the pool for long, large
#: enough to amortize the pipe round-trip.
DEFAULT_BATCH_DIVISOR = 8

#: Run ids distinguish runs sharing one (persistent) pool, so a stale
#: message from a previous battery can never fill another run's slot.
_RUN_IDS = itertools.count(1)


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
    #: (alongside the reference) and shipped verbatim, so every worker
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
    """One run on a :class:`WorkerPool`, as its caller describes it.

    ``spec`` ships once to every worker that takes a task of the job (it
    must pickle); the worker calls ``spec.runner()`` once and applies the
    returned callable to each task, in order, sending each result back.
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
    #: Most batches in flight at once, and the width the pool may grow to.
    workers: int
    obs: Telemetry
    batch_size: int = 1
    backstop: float = math.inf


def _worker_main(connection: Connection) -> None:
    """Worker loop: job specs and task batches in, results out.

    Messages: ``("spec", token, spec)`` installs ``spec.runner()`` in
    place of the previous runner, so a rerun of the same job spec (the
    same battery, say) ships no spec at all;
    ``("batch", run_id, token, ((index, task), …))`` applies the runner
    to each task in order, streaming one ``("done", run_id, index,
    result)`` per task (or ``("error", run_id, index, message)`` for a
    harness-level failure); ``None`` exits.  For a mutant job the runner
    is a plain serial :class:`MutationAnalysis` seeded with the parent's
    reference run; parallelism changes *where* a task runs, never *how*.
    """
    token: Optional[str] = None
    runner: Optional[Callable[[Any], Any]] = None
    try:
        while True:
            message = connection.recv()
            if message is None:
                break
            if message[0] == "spec":
                token, runner = message[1], message[2].runner()
                continue
            run_id, batch_token, tasks = message[1], message[2], message[3]
            for index, task in tasks:
                try:
                    if batch_token != token:
                        raise RuntimeError("batch received before its spec")
                    connection.send(("done", run_id, index, runner(task)))
                except KeyboardInterrupt:
                    raise
                except BaseException as error:  # noqa: BLE001 — must not die
                    # A harness-level failure (builder blew up, SystemExit
                    # from mutated code, …).  Report it instead of taking
                    # the worker down; the parent classifies it as a
                    # worker-boundary failure.
                    connection.send(
                        ("error", run_id, index,
                         f"{type(error).__name__}: {error}")
                    )
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away or shut us down; nothing to clean up
    finally:
        connection.close()


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "connection", "assigned", "batch_len",
                 "batch_started", "last_heard", "token")

    def __init__(self, process, connection: Connection):
        self.process = process
        self.connection = connection
        #: Batch tasks not yet resolved, in execution order; the worker
        #: holds a batch exactly while this is non-empty.
        self.assigned: Deque[Tuple[int, Any]] = deque()
        self.batch_len = 0
        self.batch_started = 0.0
        self.last_heard = 0.0
        #: Token of the job spec the worker holds, ``None`` before the
        #: first one ships.
        self.token: Optional[str] = None


class WorkerPool:
    """A pool of workers persisting across runs.

    Engines draw workers from here instead of spawning their own; a pool
    survives battery boundaries, so table2/table3-style back-to-back runs
    reuse warm processes (and the battery each one holds) instead of
    paying fork + spec shipping every time.  One process-wide shared pool
    (:func:`shared_worker_pool`) is the default; tests and embedders can
    pass a private pool to the engine.

    :meth:`run` executes one :class:`PoolJob` at a time on the calling
    thread, holding a lock for the whole run: two threads sharing a pool
    are served one after the other.
    """

    def __init__(self):
        self._context = _mp_context()
        self.workers: List[_Worker] = []
        self._closed = False
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        return len(self.workers)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- run execution ---------------------------------------------------

    def run(self, job: PoolJob) -> None:
        """Drive one job until every task's result is delivered.

        Any exception raised meanwhile (a ``KeyboardInterrupt`` reaching
        this thread, a failing ``deliver``) kills the workers still
        holding this run's batches before it propagates, so none of them
        carries the abandoned run into the next one.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            state = _PoolState(
                job=job,
                pending=deque(enumerate(job.tasks)),
                remaining=len(job.tasks),
                run_id=next(_RUN_IDS),
                token=_spec_token(job.spec),
                enqueued_at=time.perf_counter(),
            )
            try:
                self._drive(state)
            except BaseException:
                for worker in [w for w in self.workers if w.assigned]:
                    self._kill(worker)
                raise

    def _drive(self, state: "_PoolState") -> None:
        """Health pass → sizing → dispatch → wait, until the run is done.

        The pool grows to ``min(workers, in flight + pending)``; a run
        never holds more than ``workers`` batches at once.  A replacement
        for a worker lost mid-batch counts as a respawn.
        """
        job = state.job
        while True:
            if self._closed:
                raise RuntimeError("worker pool closed mid-run")
            now = time.perf_counter()
            for worker in list(self.workers):
                if not worker.process.is_alive():
                    self._retire_dead(worker, state)
                elif (worker.assigned
                        and now - worker.last_heard > job.backstop):
                    self._retire_hung(worker, state)
            if state.remaining <= 0:
                return
            busy = sum(1 for worker in self.workers if worker.assigned)
            while len(self.workers) < min(job.workers,
                                          busy + len(state.pending)):
                self._spawn(job.obs)
                if state.casualties > 0:
                    state.casualties -= 1
                    job.obs.count("parallel.respawns")
            for worker in list(self.workers):
                if not state.pending or busy >= job.workers:
                    break
                if not worker.assigned:
                    self._dispatch(worker, state)
                    busy += 1
            watched = [worker.connection for worker in self.workers
                       if worker.assigned]
            try:
                ready = connection_wait(watched, timeout=_POLL_INTERVAL)
            except OSError:
                ready = []  # a pipe vanished; the next health pass classifies
            for worker in list(self.workers):
                if worker.connection in ready:
                    self._drain_worker(worker, state)

    # -- message handling ------------------------------------------------

    def _drain_worker(self, worker: _Worker, state: "_PoolState") -> None:
        """Apply every message currently sitting in one worker's pipe."""
        try:
            while worker.connection.poll(0):
                self._apply_message(worker, worker.connection.recv(), state)
        except (EOFError, OSError):
            pass  # pipe closed mid-batch: the next health pass classifies it

    def _apply_message(self, worker: _Worker, message: Tuple,
                       state: "_PoolState") -> None:
        kind = message[0]
        if kind not in ("done", "error"):
            return
        run_id, index = message[1], message[2]
        previously_heard = worker.last_heard
        worker.last_heard = time.perf_counter()
        if run_id != state.run_id:
            return  # residue of a previous run on this persistent worker
        obs = state.job.obs
        task = next((assigned for assigned in worker.assigned
                     if assigned[0] == index), None)
        if task is None:
            return  # only this worker's batch can report to it
        worker.assigned.remove(task)
        if kind == "done":
            obs.event(
                "parallel.task", index=index, **state.job.describe(task[1]),
                seconds=round(worker.last_heard - previously_heard, 6),
            )
            state.record(index, message[3])
        else:
            obs.count("parallel.worker_errors")
            state.lose(task, KillReason.WORKER_CRASH,
                       f"worker failed to run the task: {message[3]}")
        if not worker.assigned and worker.batch_len:
            obs.event(
                "parallel.batch", size=worker.batch_len,
                seconds=round(worker.last_heard - worker.batch_started, 6),
            )
            worker.batch_len = 0

    # -- health ----------------------------------------------------------

    def _retire_dead(self, worker: _Worker, state: "_PoolState") -> None:
        # Salvage results the worker sent before dying, then apply the
        # batch crash rule: a single unreported task was provably
        # executing and is handed to the job's ``lost`` as a
        # process-boundary crash; a multi-task remainder is re-dispatched
        # solo so one poisoned task cannot take out its batchmates'
        # results.  An idle dead worker carries no state and is simply
        # pruned.
        worker.process.join()
        if worker.assigned:
            self._drain_worker(worker, state)
        if worker.assigned:  # salvage may have completed the batch
            obs = state.job.obs
            unreported = [task for task in worker.assigned
                          if task[0] not in state.reported]
            worker.assigned.clear()
            worker.batch_len = 0
            state.casualties += 1
            if len(unreported) == 1:
                index, task = unreported[0]
                obs.event("parallel.worker_crash", index=index,
                          **state.job.describe(task),
                          exitcode=worker.process.exitcode)
                obs.count("parallel.worker_crashes")
                state.lose(unreported[0], KillReason.WORKER_CRASH,
                           f"worker process died (exitcode "
                           f"{worker.process.exitcode}) while running the "
                           f"suite")
            elif unreported:
                obs.event("parallel.batch_failed", size=len(unreported),
                          reason="crash",
                          exitcode=worker.process.exitcode)
                obs.count("parallel.batch_redispatches")
                for task in reversed(unreported):
                    state.solo.add(task[0])
                    state.pending.appendleft(task)
        self._discard(worker)

    def _retire_hung(self, worker: _Worker, state: "_PoolState") -> None:
        # The result may have landed in the pipe while we were not
        # looking; salvage it first — only a genuinely silent worker is a
        # hang.
        self._drain_worker(worker, state)
        if not worker.assigned:
            return  # salvage completed the batch; the worker is fine
        unreported = [task for task in worker.assigned
                      if task[0] not in state.reported]
        worker.assigned.clear()
        worker.batch_len = 0
        if not unreported:
            return
        # Execution is in-order and every result streams back the moment
        # it exists, so a silent worker is provably stuck on its *first*
        # unreported task; the rest of the batch never started and is
        # re-queued untouched.
        obs = state.job.obs
        backstop = state.job.backstop
        state.casualties += 1
        index, task = unreported[0]
        self._kill(worker)
        obs.event("parallel.wall_timeout", index=index,
                  **state.job.describe(task), backstop=backstop)
        obs.count("parallel.wall_timeouts")
        state.lose(unreported[0], KillReason.WALL_TIMEOUT,
                   f"no verdict within the {backstop:.1f}s wall-clock "
                   f"backstop; worker killed")
        rest = unreported[1:]
        if rest:
            obs.event("parallel.batch_failed", size=len(rest),
                      reason="hang")
            obs.count("parallel.batch_redispatches")
            for task in reversed(rest):
                state.pending.appendleft(task)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, worker: _Worker, state: "_PoolState") -> None:
        """Hand an idle worker the run's next batch, shipping the job's
        spec first unless the worker already holds it."""
        job = state.job
        obs = job.obs
        now = time.perf_counter()
        batch: List[Tuple[int, Any]] = []
        while state.pending and len(batch) < job.batch_size:
            index = state.pending[0][0]
            if index in state.solo and batch:
                break  # a solo task never joins a batch already in hand
            batch.append(state.pending.popleft())
            if index in state.solo:
                break  # …and never takes batchmates of its own
        # Busy from here on: an exception during either send kills the
        # worker instead of leaving a half-written message in its pipe.
        worker.assigned = deque(batch)
        worker.batch_len = len(batch)
        worker.batch_started = worker.last_heard = now
        try:
            if worker.token != state.token:
                worker.connection.send(("spec", state.token, job.spec))
                worker.token = state.token
                obs.count("parallel.battery_shipped")
            worker.connection.send(("batch", state.run_id, state.token,
                                    tuple(batch)))
        except OSError:
            # The worker died while idle: the batch never started, so it
            # goes back to the front of the queue untouched.
            state.pending.extendleft(reversed(batch))
            self._kill(worker)
            return
        depth = len(state.pending)
        for index, task in batch:
            obs.event(
                "parallel.dispatch", index=index, **job.describe(task),
                waited=round(now - state.enqueued_at, 6),
                batch=len(batch),
                depth=depth,
            )
        obs.count("parallel.batches")

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, obs: Telemetry) -> None:
        parent_connection, child_connection = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main, args=(child_connection,), daemon=True,
        )
        process.start()
        child_connection.close()
        obs.event("parallel.worker_spawned", pid=process.pid)
        obs.count("parallel.workers_spawned")
        self.workers.append(_Worker(process, parent_connection))

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
        except (OSError, AssertionError):
            pass  # already gone
        self._discard(worker)

    def close(self) -> None:
        """Shut every worker down; the pool is unusable afterwards.

        A run in progress on another thread stops at its next health pass
        with ``RuntimeError("worker pool closed mid-run")``; close waits
        for it to let go of the pool.  Idempotent and exception-silent by
        contract: the ``atexit`` hook (:func:`shutdown_shared_pool`) may
        run after the interpreter has already reaped worker processes or
        closed their pipes — every step here tolerates workers and pipes
        that are already gone, and a second call is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for worker in self.workers:
                try:
                    worker.connection.send(None)
                except Exception:  # noqa: BLE001 — dead worker / closed pipe
                    pass
            for worker in self.workers:
                try:
                    worker.process.join(timeout=1.0)
                    if worker.process.is_alive():
                        worker.process.kill()
                        worker.process.join()
                except Exception:  # noqa: BLE001 — already reaped
                    pass
                try:
                    worker.connection.close()
                except Exception:  # noqa: BLE001
                    pass
            self.workers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_SHARED_POOL: Optional[WorkerPool] = None
_SHARED_POOL_LOCK = threading.Lock()


def shared_worker_pool() -> WorkerPool:
    """The process-wide pool engines share by default.

    Created on first use and kept warm until :func:`shutdown_shared_pool`
    (registered ``atexit``) — this is what carries worker processes across
    batteries within one experiment process.  Engines on several threads
    take turns on it, one run at a time.
    """
    global _SHARED_POOL
    with _SHARED_POOL_LOCK:
        if _SHARED_POOL is None or _SHARED_POOL.closed:
            _SHARED_POOL = WorkerPool()
        return _SHARED_POOL


def shutdown_shared_pool() -> None:
    """Close the shared pool (safe to call when none exists).

    Registered ``atexit``, so it can run after the interpreter has begun
    tearing the process down — after worker processes have been reaped
    and pipes closed.  It must therefore be idempotent and never raise: a
    shutdown race at exit is cosmetic, and an exception here would mask
    the program's real outcome.
    """
    global _SHARED_POOL
    with _SHARED_POOL_LOCK:
        pool, _SHARED_POOL = _SHARED_POOL, None
    if pool is not None:
        try:
            pool.close()
        except Exception:  # noqa: BLE001 — exit-time race; stay silent
            pass


atexit.register(shutdown_shared_pool)


def _mp_context():
    # fork keeps worker start cheap and inherits loaded modules; fall
    # back to the platform default where fork is unavailable.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _spec_token(spec: Any) -> str:
    """The job's spec token: content hash of the pickled spec.

    Each worker remembers the token of the spec it holds, so re-running
    a battery (same class, suite, reference, coverage, flags) ships no
    spec at all; any other token configures the worker on its next
    dispatch.
    """
    payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


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


@dataclass
class _PoolState:
    """Mutable bookkeeping for one pool run."""

    job: PoolJob
    #: ``(index, task)`` pairs not yet dispatched.
    pending: Deque[Tuple[int, Any]]
    remaining: int
    run_id: int
    token: str
    #: When the pending queue was filled — dispatch events report each
    #: task's queue wait relative to this instant.
    enqueued_at: float
    #: Workers lost mid-batch and not yet replaced; each replacement
    #: spawn consumes one and counts as a respawn.
    casualties: int = 0
    #: Indices that must be dispatched as singleton batches: survivors of
    #: a crashed multi-task batch, re-run alone so a poisoned batchmate
    #: cannot contaminate their results (and so the poisoned one, alone
    #: in its batch, is attributable when it kills its worker again).
    solo: Set[int] = field(default_factory=set)
    #: Indices whose result has been delivered.
    reported: Set[int] = field(default_factory=set)

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


class ParallelMutationAnalysis(MutationAnalysis):
    """The serial engine with its mutants run on worker processes.

    Accepts the configuration of :class:`MutationAnalysis` plus the pool
    shape, by keyword: ``workers`` (the most batches this run keeps in
    flight, and the width it may grow the pool to; at least 1, default
    the CPU count), ``wall_clock_backstop`` (seconds a worker may stay
    silent on a mutant), ``batch_size`` (mutants per dispatch chunk;
    default adaptive) and ``pool`` (an explicit :class:`WorkerPool`;
    default the process-wide shared pool, which keeps workers warm across
    batteries).
    Every configuration object (suite, oracle, class builder, setup hook)
    must be picklable because workers are rebuilt from them; all shipped
    configurations in :mod:`repro.experiments.config` are.
    """

    def __init__(self, original_class: type, suite: TestSuite, *args,
                 workers: Optional[int] = None,
                 wall_clock_backstop: float = DEFAULT_WALL_CLOCK_BACKSTOP,
                 batch_size: Optional[int] = None,
                 pool: Optional[WorkerPool] = None,
                 **options):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if wall_clock_backstop <= 0:
            raise ValueError("wall-clock backstop must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be at least 1")
        super().__init__(original_class, suite, *args, **options)
        self._workers = (workers if workers is not None
                         else (os.cpu_count() or 1))
        self._backstop = wall_clock_backstop
        self._batch_size = batch_size
        self._pool = pool

    def _resolve(self, mutants: List[CompiledMutant], indices: List[int],
                 results: List[Optional[Tuple[MutantOutcome, int]]]) -> None:
        """Run the mutants at ``indices`` on the worker pool.

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
                backstop=self._backstop,
            )
            span.set("batch_size", job.batch_size)
            pool = (self._pool if self._pool is not None
                    else shared_worker_pool())
            pool.run(job)

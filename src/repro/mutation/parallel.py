"""Process-pool mutation analysis with serial-equivalent results.

The paper ran every mutant "as a separate class … individually compiled"
(sec. 4) — each mutant execution is an independent program, which is
exactly the independence that makes per-mutant fan-out safe.  This module
exploits it: mutants are distributed over N worker processes, each worker
**recompiles the mutant from its source payload** (the pickle protocol of
:class:`~repro.mutation.mutant.CompiledMutant`), runs the suite under a
fresh :class:`~repro.mutation.sandbox.StepBudgetGuard`, and ships the
outcome back to the parent.

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

The pool runs one analysis at a time, on the caller's thread:
:meth:`WorkerPool.run` owns every worker pipe until the run's verdicts
are complete, and a second thread sharing the pool waits for the first
to finish.  Any exception inside the loop, Ctrl-C included, kills the
workers still holding the run's batches before it propagates, so the
next run starts on a clean pool.

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
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..generator.suite import TestSuite
from ..harness.oracles import CompositeOracle, KillReason
from ..harness.outcomes import SuiteResult
from ..obs import NULL_TELEMETRY, Telemetry, coalesce
from .analysis import (
    ClassBuilder,
    MutantOutcome,
    MutationAnalysis,
    MutationRun,
    triaged_outcome,
)
from .cache import CacheKey, MutationOutcomeCache
from .coverage import CoverageMatrix
from .mutant import CompiledMutant
from .sandbox import DEFAULT_STEP_BUDGET
from .triage import StaticTriage, triage_mutants
from .typemodel import TypeModel

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
    return max(1, dispatched // (DEFAULT_BATCH_DIVISOR * max(1, workers)))


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the serial analysis (picklable)."""

    original_class: type
    suite: TestSuite
    oracle: Optional[CompositeOracle]
    class_builder: Optional[ClassBuilder]
    step_budget: int
    stop_on_first_kill: bool
    check_invariants: bool
    setup: Optional[Callable[[], None]]
    reference: SuiteResult
    #: Coverage-guided pruning: the matrix is recorded once in the parent
    #: (alongside the reference) and shipped verbatim, so every worker
    #: skips exactly the (mutant, case) pairs the serial engine would.
    prune: bool = True
    coverage: Optional[CoverageMatrix] = None


def _analysis_from_spec(spec: WorkerSpec) -> MutationAnalysis:
    """The plain serial analysis a worker judges every mutant with."""
    return MutationAnalysis(
        spec.original_class,
        spec.suite,
        oracle=spec.oracle,
        class_builder=spec.class_builder,
        step_budget=spec.step_budget,
        stop_on_first_kill=spec.stop_on_first_kill,
        check_invariants=spec.check_invariants,
        setup=spec.setup,
        reference=spec.reference,
        prune=spec.prune,
        coverage=spec.coverage,
    )


def _worker_main(connection: Connection) -> None:
    """Worker loop: battery configs and mutant batches in, verdicts out.

    Messages: ``("battery", token, spec)`` installs one analysis — the
    rebuilt serial engine, with its compiled original class, suite
    fixtures and coverage matrix — in place of the previous one, so a
    rerun of the same battery ships no spec at all;
    ``("batch", run_id, token, ((index, mutant), …))`` runs each mutant
    in order under that battery, streaming one
    ``("done", run_id, index, outcome, timeouts)`` per mutant (or
    ``("error", run_id, index, message)`` for a harness-level failure);
    ``None`` exits.  The worker is a plain serial
    :class:`MutationAnalysis` seeded with the parent's reference run;
    parallelism changes *where* a mutant runs, never *how*.
    """
    token: Optional[str] = None
    analysis: Optional[MutationAnalysis] = None
    try:
        while True:
            message = connection.recv()
            if message is None:
                break
            if message[0] == "battery":
                token, analysis = message[1], _analysis_from_spec(message[2])
                continue
            run_id, batch_token, tasks = message[1], message[2], message[3]
            for index, mutant in tasks:
                try:
                    if batch_token != token:
                        raise RuntimeError("batch received before battery")
                    outcome, timeouts = analysis.analyze_single(mutant)
                    connection.send(("done", run_id, index, outcome, timeouts))
                except KeyboardInterrupt:
                    raise
                except BaseException as error:  # noqa: BLE001 — must not die
                    # A harness-level failure (builder blew up, SystemExit
                    # from mutated code, …).  Report it instead of taking
                    # the worker down; the parent classifies it as a
                    # worker-boundary kill.
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
        self.assigned: Deque[Tuple[int, CompiledMutant]] = deque()
        self.batch_len = 0
        self.batch_started = 0.0
        self.last_heard = 0.0
        #: Spec token of the battery the worker holds, ``None`` before the
        #: first one ships.
        self.token: Optional[str] = None


class WorkerPool:
    """A pool of mutation workers persisting across runs.

    Engines draw workers from here instead of spawning their own; a pool
    survives battery boundaries, so table2/table3-style back-to-back runs
    reuse warm processes (and the battery each one holds) instead of
    paying fork + spec shipping every time.  One process-wide shared pool
    (:func:`shared_worker_pool`) is the default; tests and embedders can
    pass a private pool to the engine.

    :meth:`run` executes one analysis at a time on the calling thread,
    holding a lock for the whole run: two threads sharing a pool are
    served one after the other.
    """

    def __init__(self, context=None):
        self._context = context if context is not None else _mp_context()
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

    def run(self, state: "_PoolState") -> None:
        """Drive one run until every verdict is recorded.

        Any exception raised meanwhile (a ``KeyboardInterrupt`` reaching
        this thread, a failing cache write) kills the workers still
        holding this run's batches before it propagates, so none of them
        carries the abandoned run into the next one.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
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
        while True:
            if self._closed:
                raise RuntimeError("worker pool closed mid-run")
            now = time.perf_counter()
            for worker in list(self.workers):
                if not worker.process.is_alive():
                    self._retire_dead(worker, state)
                elif (worker.assigned
                        and now - worker.last_heard > state.backstop):
                    self._retire_hung(worker, state)
            if state.remaining <= 0:
                return
            busy = sum(1 for worker in self.workers if worker.assigned)
            while len(self.workers) < min(state.workers,
                                          busy + len(state.pending)):
                self._spawn(state.obs)
                if state.casualties > 0:
                    state.casualties -= 1
                    state.obs.count("parallel.respawns")
            for worker in list(self.workers):
                if not state.pending or busy >= state.workers:
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
        obs = state.obs
        task: Optional[Tuple[int, CompiledMutant]] = None
        for assigned in worker.assigned:
            if assigned[0] == index:
                task = assigned
                break
        if task is not None:
            worker.assigned.remove(task)
        if kind == "done":
            state.record(index, message[3], message[4])
            obs.event(
                "parallel.task", index=index,
                mutant=state.mutants[index].record.ident,
                seconds=round(worker.last_heard - previously_heard, 6),
            )
            if state.cache is not None and state.keys is not None:
                # Write-back happens in the parent so workers never touch
                # the store; identical keys carry identical payloads, so a
                # duplicate store (e.g. during salvage) is a harmless
                # append the next compaction folds away.
                state.cache.store(state.keys[index], message[3], message[4])
        else:
            obs.count("parallel.worker_errors")
            state.record(index, _boundary_outcome(
                state.mutants[index].record,
                KillReason.WORKER_CRASH,
                f"worker failed to run mutant: {message[3]}",
            ))
        if not worker.assigned and worker.batch_len:
            obs.event(
                "parallel.batch", size=worker.batch_len,
                seconds=round(worker.last_heard - worker.batch_started, 6),
            )
            worker.batch_len = 0

    # -- health ----------------------------------------------------------

    def _retire_dead(self, worker: _Worker, state: "_PoolState") -> None:
        # Salvage results the worker sent before dying, then apply the
        # batch crash rule: a single unreported mutant was provably
        # executing and is classified as a process-boundary crash kill; a
        # multi-mutant remainder is re-dispatched solo so one poisoned
        # mutant cannot take out its batchmates' verdicts.  An idle dead
        # worker carries no state and is simply pruned.
        worker.process.join()
        if worker.assigned:
            self._drain_worker(worker, state)
        if worker.assigned:  # salvage may have completed the batch
            obs = state.obs
            unreported = [task for task in worker.assigned
                          if state.results[task[0]] is None]
            worker.assigned.clear()
            worker.batch_len = 0
            state.casualties += 1
            if len(unreported) == 1:
                index, mutant = unreported[0]
                obs.event("parallel.worker_crash", index=index,
                          mutant=mutant.record.ident,
                          exitcode=worker.process.exitcode)
                obs.count("parallel.worker_crashes")
                state.record(index, _boundary_outcome(
                    mutant.record, KillReason.WORKER_CRASH,
                    f"worker process died (exitcode {worker.process.exitcode}) "
                    f"while running the suite",
                ))
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
        # The verdict may have landed in the pipe while we were not
        # looking; salvage it first — only a genuinely silent worker is a
        # hang.
        self._drain_worker(worker, state)
        if not worker.assigned:
            return  # salvage completed the batch; the worker is fine
        unreported = [task for task in worker.assigned
                      if state.results[task[0]] is None]
        worker.assigned.clear()
        worker.batch_len = 0
        if not unreported:
            return
        # Execution is in-order and every verdict streams back the moment
        # it exists, so a silent worker is provably stuck on its *first*
        # unreported mutant; the rest of the batch never started and is
        # re-queued untouched.
        obs = state.obs
        state.casualties += 1
        index, mutant = unreported[0]
        self._kill(worker)
        obs.event("parallel.wall_timeout", index=index,
                  mutant=mutant.record.ident,
                  backstop=state.backstop)
        obs.count("parallel.wall_timeouts")
        state.record(index, _boundary_outcome(
            mutant.record, KillReason.WALL_TIMEOUT,
            f"no verdict within the {state.backstop:.1f}s wall-clock "
            f"backstop; worker killed",
        ))
        rest = unreported[1:]
        if rest:
            obs.event("parallel.batch_failed", size=len(rest),
                      reason="hang")
            obs.count("parallel.batch_redispatches")
            for task in reversed(rest):
                state.pending.appendleft(task)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, worker: _Worker, state: "_PoolState") -> None:
        """Hand an idle worker the run's next batch, shipping the battery
        first unless the worker already holds it."""
        obs = state.obs
        now = time.perf_counter()
        batch: List[Tuple[int, CompiledMutant]] = []
        while state.pending and len(batch) < state.batch_size:
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
                worker.connection.send(("battery", state.token, state.spec))
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
        for index, mutant in batch:
            obs.event(
                "parallel.dispatch", index=index,
                mutant=mutant.record.ident,
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


def _spec_token(spec: WorkerSpec) -> str:
    """The battery's spec token: content hash of the pickled spec.

    Each worker remembers the token of the battery it holds, so
    re-running that battery (same class, suite, reference, coverage,
    flags) ships no spec at all; any other token configures the worker
    on its next dispatch.
    """
    payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


def _boundary_outcome(record, reason: KillReason,
                      detail: str) -> MutantOutcome:
    """The paper's "program crashed" clause, applied at the process
    boundary: the mutant is killed, but no in-process case verdict
    exists, so ``killing_case`` stays empty and ``cases_run`` is 0."""
    return MutantOutcome(
        mutant=record,
        killed=True,
        reason=reason,
        killing_case="",
        cases_run=0,
        killing_cases=(),
        detail=detail,
    )


@dataclass
class _PoolState:
    """Mutable bookkeeping for one ``analyze`` call."""

    mutants: List[CompiledMutant]
    pending: Deque[Tuple[int, CompiledMutant]]
    results: List[Optional[MutantOutcome]]
    remaining: int
    run_id: int = 0
    token: str = ""
    spec: Optional[WorkerSpec] = None
    batch_size: int = 1
    #: Most batches in flight at once, and the width the pool may grow to.
    workers: int = 1
    backstop: float = DEFAULT_WALL_CLOCK_BACKSTOP
    obs: Telemetry = NULL_TELEMETRY
    #: Workers lost mid-batch and not yet replaced; each replacement
    #: spawn consumes one and counts as a respawn.
    casualties: int = 0
    #: Indices that must be dispatched as singleton batches: survivors of
    #: a crashed multi-mutant batch, re-run alone so a poisoned batchmate
    #: cannot contaminate their verdicts (and so the poisoned one, alone
    #: in its batch, is attributable when it kills its worker again).
    solo: Set[int] = field(default_factory=set)
    step_timeouts: int = 0
    #: When the pending queue was filled — dispatch events report each
    #: task's queue wait relative to this instant.
    enqueued_at: float = 0.0
    #: Outcome cache + per-index entry keys; ``None`` when caching is off.
    #: Only in-process verdicts ("done" messages) are written back — a
    #: worker-boundary kill depends on scheduling, not fingerprinted input.
    cache: Optional[MutationOutcomeCache] = None
    keys: Optional[List[CacheKey]] = None

    def record(self, index: int, outcome: MutantOutcome,
               timeouts: int = 0) -> None:
        """Fill one result slot exactly once (duplicates are dropped)."""
        if self.results[index] is None:
            self.results[index] = outcome
            self.remaining -= 1
            self.step_timeouts += timeouts


class ParallelMutationAnalysis:
    """Fans mutants out to worker processes; merges serial-identical results.

    Accepts the same configuration as :class:`MutationAnalysis` plus the
    pool shape: ``workers`` (the most batches this run keeps in flight,
    and the width it may grow the pool to), ``batch_size`` (mutants per
    dispatch chunk; default adaptive) and ``pool`` (an explicit
    :class:`WorkerPool`; default the process-wide shared pool, which keeps
    workers warm across batteries).
    Every configuration object (suite, oracle, class builder, setup hook)
    must be picklable because workers are rebuilt from them; all shipped
    configurations in :mod:`repro.experiments.config` are.
    """

    def __init__(self, original_class: type, suite: TestSuite,
                 oracle: Optional[CompositeOracle] = None,
                 class_builder: Optional[ClassBuilder] = None,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 stop_on_first_kill: bool = True,
                 check_invariants: bool = True,
                 setup: Optional[Callable[[], None]] = None,
                 reference: Optional[SuiteResult] = None,
                 workers: Optional[int] = None,
                 wall_clock_backstop: float = DEFAULT_WALL_CLOCK_BACKSTOP,
                 cache: Optional[MutationOutcomeCache] = None,
                 prune: bool = True,
                 coverage: Optional[CoverageMatrix] = None,
                 telemetry: Optional[Telemetry] = None,
                 static_triage: bool = True,
                 triage_type_model: Optional[TypeModel] = None,
                 batch_size: Optional[int] = None,
                 pool: Optional[WorkerPool] = None):
        if wall_clock_backstop <= 0:
            raise ValueError("wall-clock backstop must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self._original = original_class
        self._suite = suite
        self._oracle = oracle
        self._class_builder = class_builder
        self._step_budget = step_budget
        self._stop_on_first_kill = stop_on_first_kill
        self._check_invariants = check_invariants
        self._setup = setup
        self._workers = max(1, workers if workers is not None
                            else (os.cpu_count() or 1))
        self._backstop = wall_clock_backstop
        self._batch_size = batch_size
        self._pool_override = pool
        # The cache lives in the parent only: hits are resolved before any
        # worker is scheduled, and write-backs happen as verdicts arrive.
        # Workers stay cache-oblivious, so a worker process never touches
        # the store and the serial-equivalence contract is unaffected.
        self._cache = cache
        self._prune = prune
        # Static triage runs in the parent only, before the pool is sized:
        # a triaged mutant never enters the pending queue, so no worker
        # ever sees it — the zero-dispatch guarantee is structural (batch
        # assembly only ever draws from the pending queue), and the
        # WorkerSpec needs no triage state at all.
        self._static_triage = static_triage
        self._triage_type_model = triage_type_model
        # Telemetry lives in the parent only: worker lifecycle, dispatch
        # waits and task turnarounds are recorded here (by the pool's run
        # loop, onto this run's session), while workers run
        # un-instrumented (the WorkerSpec never carries a session), so the
        # trace stays consistent and workers stay byte-identical to the
        # serial engine.
        self._obs = coalesce(telemetry)
        # The reference run — and, under pruning, the coverage matrix it
        # records in the same instrumented pass — is computed (or seeded)
        # in the parent, once, by a plain serial analysis; workers inherit
        # both verbatim.  The serial helper also owns the experiment
        # fingerprint (it sees the same configuration), but is never given
        # the cache itself.
        self._serial = MutationAnalysis(
            original_class, suite, oracle=oracle, class_builder=class_builder,
            step_budget=step_budget, stop_on_first_kill=stop_on_first_kill,
            check_invariants=check_invariants, setup=setup,
            reference=reference, prune=prune, coverage=coverage,
            telemetry=telemetry, static_triage=static_triage,
            triage_type_model=triage_type_model,
        )

    # ------------------------------------------------------------------

    @property
    def suite(self) -> TestSuite:
        return self._suite

    @property
    def workers(self) -> int:
        return self._workers

    def reference_results(self) -> SuiteResult:
        return self._serial.reference_results()

    def coverage_matrix(self) -> Optional[CoverageMatrix]:
        return self._serial.coverage_matrix()

    # ------------------------------------------------------------------

    def analyze(self, mutants: Sequence[CompiledMutant]) -> MutationRun:
        """Run the suite over every mutant across the worker pool.

        With a cache attached, hits are replayed in the parent before the
        pool is sized: a fully warm run touches no worker and executes
        zero mutant test cases, yet still assembles a ``same_results``-
        identical ``MutationRun``.
        """
        mutants = list(mutants)
        reference = self.reference_results()
        started = time.perf_counter()
        cache = self._cache
        keys: Optional[List[CacheKey]] = None
        prefilled: dict = {}
        #: Redundant mutants: excluded from the pending queue, their slots
        #: are filled *after* the pool drains, from the representative's
        #: now-known verdict.
        deferred: Dict[int, CompiledMutant] = {}
        stats_before = None
        triage: Optional[StaticTriage] = None
        with self._obs.span("parallel.run", mutants=len(mutants),
                            workers=self._workers) as span:
            if self._static_triage:
                triage = triage_mutants(
                    self._original, mutants,
                    type_model=self._triage_type_model,
                    cache=cache,
                    telemetry=self._obs,
                )
                equivalents, deferred = triage.partition(mutants)
                for index, mutant in equivalents.items():
                    prefilled[index] = (triaged_outcome(mutant, triage, {}), 0)
                span.set("triage_skipped", len(prefilled) + len(deferred))
            if cache is not None:
                experiment = self._serial.experiment_fingerprint()
                keys = [cache.key_for(experiment, mutant)
                        for mutant in mutants]
                stats_before = cache.snapshot()
                cache_hits = 0
                for index in range(len(mutants)):
                    if index in prefilled or index in deferred:
                        # Triage already resolved this slot — no store
                        # traffic for mutants that are never executed.
                        continue
                    entry = cache.lookup(keys[index])
                    if entry is not None:
                        prefilled[index] = (entry.outcome,
                                            entry.step_timeouts)
                        cache_hits += 1
                span.set("cache_hits", cache_hits)
            state = self._run_pool(mutants, reference, prefilled, cache,
                                   keys, skip=frozenset(deferred))
            span.set("batch_size", state.batch_size)
            if deferred:
                by_ident = {
                    mutants[index].ident: outcome
                    for index, outcome in enumerate(state.results)
                    if outcome is not None
                }
                for index, mutant in deferred.items():
                    state.results[index] = triaged_outcome(
                        mutant, triage, by_ident
                    )
        elapsed = time.perf_counter() - started
        outcomes = tuple(
            outcome for outcome in state.results if outcome is not None
        )
        return MutationRun(
            class_name=self._original.__name__,
            suite_size=len(self._suite),
            outcomes=outcomes,
            reference=reference,
            elapsed_seconds=elapsed,
            step_timeouts=state.step_timeouts,
            cache_stats=(cache.snapshot().since(stats_before)
                         if cache is not None else None),
            triage=triage,
        )

    # ------------------------------------------------------------------
    # Pool mechanics
    # ------------------------------------------------------------------

    def _run_pool(self, mutants: List[CompiledMutant],
                  reference: SuiteResult,
                  prefilled: Optional[dict] = None,
                  cache: Optional[MutationOutcomeCache] = None,
                  keys: Optional[List[CacheKey]] = None,
                  skip: FrozenSet[int] = frozenset()) -> _PoolState:
        prefilled = prefilled or {}
        state = _PoolState(
            mutants=mutants,
            pending=deque(
                (index, mutant) for index, mutant in enumerate(mutants)
                if index not in prefilled and index not in skip
            ),
            # ``skip`` slots (statically-redundant mutants) stay ``None``
            # through the pool loop; the caller fills them afterwards from
            # their representative's verdict, so they never count towards
            # ``remaining`` and no worker ever sees them.
            results=[None] * len(mutants),
            remaining=len(mutants) - len(skip),
            workers=self._workers,
            backstop=self._backstop,
            obs=self._obs,
            cache=cache,
            keys=keys,
            enqueued_at=time.perf_counter(),
        )
        for index, (outcome, timeouts) in prefilled.items():
            state.record(index, outcome, timeouts)
        if not state.pending:
            return state
        state.spec = WorkerSpec(
            original_class=self._original,
            suite=self._suite,
            oracle=self._oracle,
            class_builder=self._class_builder,
            step_budget=self._step_budget,
            stop_on_first_kill=self._stop_on_first_kill,
            check_invariants=self._check_invariants,
            setup=self._setup,
            reference=reference,
            prune=self._prune,
            coverage=self._serial.coverage_matrix(),
        )
        state.token = _spec_token(state.spec)
        state.run_id = next(_RUN_IDS)
        state.batch_size = (self._batch_size
                            if self._batch_size is not None
                            else default_batch_size(len(state.pending),
                                                    self._workers))
        pool = (self._pool_override if self._pool_override is not None
                else shared_worker_pool())
        pool.run(state)
        return state


def analyze_mutants_parallel(original_class: type, suite: TestSuite,
                             mutants: Sequence[CompiledMutant],
                             workers: Optional[int] = None,
                             **options) -> MutationRun:
    """One-call convenience over :class:`ParallelMutationAnalysis`."""
    return ParallelMutationAnalysis(
        original_class, suite, workers=workers, **options
    ).analyze(mutants)

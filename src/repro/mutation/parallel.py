"""Process-pool mutation analysis with serial-equivalent results.

The paper ran every mutant "as a separate class … individually compiled"
(sec. 4) — each mutant execution is an independent program, which is
exactly the independence that makes per-mutant fan-out safe.  This module
exploits it: mutants are distributed over N worker processes, each worker
**recompiles the mutant from its source payload** (the pickle protocol of
:class:`~repro.mutation.mutant.CompiledMutant`), runs the suite under a
fresh :class:`~repro.mutation.sandbox.StepBudgetGuard`, and ships the
outcome back to the parent.

Three throughput mechanisms keep orchestration from swamping the win:

* **Batched dispatch.**  Mutants ship to workers in chunks — by default
  ``max(1, dispatched // (8 × workers))`` per batch (``batch_size``
  overrides) — so the per-task pipe round-trip amortizes over the batch.
  Workers still stream one ``done`` message per mutant, in submission
  order, so results merge exactly as before.

* **Persistent warm workers.**  The pool outlives a single ``analyze``
  call: a process-wide shared :class:`WorkerPool` (or an explicit one
  passed as ``pool=``) keeps workers alive across mutants *and* across
  batteries (table2/table3 run several back-to-back).  Each battery ships
  its :class:`WorkerSpec` once per worker under an epoch token — the
  compiled original class, suite fixtures, reference run and coverage
  matrix are cached worker-side until the token ages out of a small
  per-worker battery LRU (:data:`WORKER_BATTERY_LRU` entries).  Stale
  messages from a previous battery are discarded by run id.

* **Multi-tenant dispatch.**  The pool is a resident executor: a single
  dispatcher thread owns every worker pipe and interleaves batches from
  however many runs are registered at once (engines called from several
  threads share it).  Each ``analyze`` call registers a run-id-fenced
  :class:`_RunHandle` and blocks until its verdicts are complete; the
  dispatcher round-robins ready batches across runs, enforcing a per-run
  **in-flight batch budget** equal to the run's ``workers`` request
  (back-pressure: a run at budget yields the pool to its neighbours),
  and the battery LRU keeps interleaving from thrashing spec re-ships.
  Because every run's batch carries its own run id and epoch token, one
  run's crashes, hangs and re-dispatches never touch another run's
  verdicts.

Two contracts, both tested differentially against the serial engine:

* **Determinism.**  Outcomes are merged back *in submission order*, every
  worker judges against the parent's single recorded reference run, and the
  step-budget sandbox makes each mutant's verdict schedule-independent — so
  the parallel :class:`~repro.mutation.analysis.MutationRun` is
  field-for-field identical to the serial one (wall-clock aside; see
  :meth:`~repro.mutation.analysis.MutationRun.same_results`), at every
  batch size, worker count, and degree of cross-run interleaving.

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
  still runs; the engine never wedges on a hostile mutant.  All of this
  is applied per run: a worker death inside run A's batch classifies and
  re-queues only run A's mutants.

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
from collections import OrderedDict, deque
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

from ..core.errors import RunCancelled
from ..generator.suite import TestSuite
from ..harness.oracles import CompositeOracle, KillReason
from ..harness.outcomes import SuiteResult
from ..obs import Telemetry, coalesce
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

#: How long the dispatcher waits on worker pipes before running a health
#: pass while runs are active.
_POLL_INTERVAL = 0.05

#: The adaptive default aims for ~8 batches per worker: small enough that
#: a straggler batch cannot idle the rest of the pool for long, large
#: enough to amortize the pipe round-trip.
DEFAULT_BATCH_DIVISOR = 8

#: How many battery configurations each worker keeps warm at once.  One
#: was enough when a pool served one run at a time; interleaved runs
#: would thrash a single slot (A, B, A, B … re-ships every batch), so the
#: slot became a small keyed LRU, mirrored exactly on the parent side.
WORKER_BATTERY_LRU = 4

#: Run ids distinguish runs sharing one (persistent) pool, so a stale
#: message from a previous battery — or a *concurrent* one — can never
#: fill another run's slot.
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

    Messages: ``("battery", token, spec)`` installs one analysis in the
    worker's battery LRU — the rebuilt serial engine, with its compiled
    original class, suite fixtures and coverage matrix, is cached under
    the token until :data:`WORKER_BATTERY_LRU` fresher batteries evict
    it, so a rerun of a recent battery ships no spec at all;
    ``("batch", run_id, token, ((index, mutant), …))`` runs each mutant
    in order under the named battery, streaming one
    ``("done", run_id, index, outcome, timeouts)`` per mutant (or
    ``("error", run_id, index, message)`` for a harness-level failure);
    ``None`` exits.  The parent mirrors the LRU's insert/touch/evict
    sequence over the same FIFO pipe, so it always knows which batteries
    a worker still holds.  The worker is a plain serial
    :class:`MutationAnalysis` seeded with the parent's reference run;
    parallelism changes *where* a mutant runs, never *how*.
    """
    analyses: "OrderedDict[str, MutationAnalysis]" = OrderedDict()
    try:
        while True:
            message = connection.recv()
            if message is None:
                break
            kind = message[0]
            if kind == "battery":
                token, spec = message[1], message[2]
                if token in analyses:
                    analyses.move_to_end(token)
                else:
                    analyses[token] = _analysis_from_spec(spec)
                    while len(analyses) > WORKER_BATTERY_LRU:
                        analyses.popitem(last=False)
                continue
            run_id, token, tasks = message[1], message[2], message[3]
            analysis = analyses.get(token)
            if analysis is not None:
                analyses.move_to_end(token)
            for index, mutant in tasks:
                try:
                    if analysis is None:
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
                 "batch_started", "last_heard", "epochs", "run")

    def __init__(self, process, connection: Connection):
        self.process = process
        self.connection = connection
        #: Batch tasks not yet resolved, in execution order.
        self.assigned: Deque[Tuple[int, CompiledMutant]] = deque()
        self.batch_len = 0
        self.batch_started = 0.0
        self.last_heard = 0.0
        #: Parent-side mirror of the worker's battery LRU (token →
        #: None, insertion-ordered).  Updated with exactly the same
        #: insert/touch/evict sequence the worker applies, over the same
        #: FIFO pipe, so membership here is authoritative.
        self.epochs: "OrderedDict[str, None]" = OrderedDict()
        #: The run whose batch this worker is currently executing.
        self.run: Optional["_RunHandle"] = None


class _Wakeup:
    """A self-pipe the dispatcher waits on alongside worker connections,
    so a newly registered run (or a close) is noticed immediately rather
    than at the next poll tick."""

    __slots__ = ("_reader", "_writer", "_closed")

    def __init__(self):
        self._reader, self._writer = os.pipe()
        os.set_blocking(self._reader, False)
        os.set_blocking(self._writer, False)
        self._closed = False

    def fileno(self) -> int:
        return self._reader

    def set(self) -> None:
        try:
            os.write(self._writer, b"x")
        except (BlockingIOError, OSError):
            pass  # already signalled (pipe full) or closed

    def drain(self) -> None:
        try:
            while os.read(self._reader, 4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            os.close(self._reader)
            os.close(self._writer)


@dataclass
class _RunHandle:
    """One registered ``analyze`` call, as the dispatcher sees it.

    The submitting thread blocks on ``done``; the dispatcher fills
    ``state`` and records telemetry on the run's own session.  The
    in-flight budget (``workers``) is the back-pressure knob: a run never
    holds more concurrent batches than workers it asked for, so K
    interleaved runs share the pool instead of one monopolizing it.
    """

    state: "_PoolState"
    obs: Telemetry
    workers: int
    backstop: float
    #: Cooperative cancellation: set by the submitter (sweep Ctrl-C);
    #: the dispatcher notices within one poll interval, kills the run's
    #: assigned workers, abandons its pending queue, and fails the run
    #: with :class:`RunCancelled`.
    cancel: Optional[threading.Event] = None
    inflight: int = 0
    submitted_at: float = 0.0
    first_dispatch_at: Optional[float] = None
    depth_peak: int = 0
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def cancelled(self) -> bool:
        return self.cancel is not None and self.cancel.is_set()


class WorkerPool:
    """A multi-tenant pool of mutation workers persisting across runs.

    Engines draw workers from here instead of spawning their own; a pool
    survives battery boundaries, so table2/table3-style back-to-back runs
    reuse warm processes (and their worker-side battery LRUs) instead of
    paying fork + spec shipping every time.  One process-wide shared pool
    (:func:`shared_worker_pool`) is the default; tests and embedders can
    pass a private pool to the engine.

    Any number of runs may be in flight at once: each ``analyze`` call
    registers a :class:`_RunHandle` via :meth:`execute` and blocks until
    its verdicts are complete, while a single dispatcher thread owns
    every worker pipe, round-robins ready batches across the registered
    runs (respecting each run's in-flight budget), classifies crashes
    and hangs against the owning run only, and sizes the pool to the
    *largest* single run's worker request — concurrent runs share
    capacity, they do not multiply it.
    """

    def __init__(self, context=None):
        self._context = context if context is not None else _mp_context()
        self.workers: List[_Worker] = []
        self._closed = False
        self._lock = threading.RLock()
        #: run_id → handle, for message fencing.
        self._runs: Dict[int, _RunHandle] = {}
        #: Submission order, for round-robin fairness and deterministic
        #: spawn attribution.
        self._order: List[_RunHandle] = []
        self._rr = 0
        #: Workers lost mid-batch and not yet replaced; replacement
        #: spawns consume one casualty each and count as respawns.
        self._casualties = 0
        self._wakeup = _Wakeup()
        self._dispatcher: Optional[threading.Thread] = None

    @property
    def size(self) -> int:
        return len(self.workers)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- run execution ---------------------------------------------------

    def execute(self, handle: _RunHandle) -> None:
        """Register one run and block until every verdict is recorded.

        Thread-safe: concurrent callers interleave on the pool.  Raises
        whatever error the dispatcher attributed to the run.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            handle.submitted_at = time.perf_counter()
            self._runs[handle.state.run_id] = handle
            self._order.append(handle)
            if self._dispatcher is None or not self._dispatcher.is_alive():
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-pool-dispatcher",
                    daemon=True,
                )
                self._dispatcher.start()
        self._wakeup.set()
        handle.done.wait()
        if handle.error is not None:
            raise handle.error

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    self._fail_all(RuntimeError("worker pool closed mid-run"))
                    return
                active = bool(self._runs)
                watched = [worker.connection for worker in self.workers
                           if worker.assigned]
            try:
                ready = connection_wait(
                    [self._wakeup, *watched],
                    timeout=_POLL_INTERVAL if active else None,
                )
            except OSError:
                ready = []  # a pipe vanished mid-wait; the tick classifies
            with self._lock:
                if self._closed:
                    self._fail_all(RuntimeError("worker pool closed mid-run"))
                    return
                try:
                    self._wakeup.drain()
                    for source in ready:
                        if source is self._wakeup:
                            continue
                        worker = self._worker_for(source)
                        if worker is not None:
                            self._drain_worker(worker)
                    if self._runs:
                        self._tick()
                except Exception as error:  # noqa: BLE001 — never die silent
                    # A dispatcher bug must not strand blocked submitters:
                    # fail every active run loudly and keep serving.
                    self._fail_all(error)

    def _tick(self) -> None:
        """One scheduling pass: cancel → health → sizing → dispatch →
        finalize."""
        now = time.perf_counter()
        for handle in [h for h in self._order if h.cancelled]:
            self._cancel_run(handle)
        for worker in list(self.workers):
            if not worker.process.is_alive():
                self._retire_dead(worker)
            elif (worker.run is not None and worker.assigned
                    and now - worker.last_heard > worker.run.backstop):
                self._retire_hung(worker)
        self._resize()
        idle = [worker for worker in self.workers if worker.run is None]
        for worker in idle:
            handle = self._next_runnable()
            if handle is None:
                break
            self._dispatch(worker, handle)
        for handle in [h for h in self._order if h.state.remaining <= 0]:
            self._order.remove(handle)
            self._runs.pop(handle.state.run_id, None)
            handle.obs.count_max("pool.queue_depth", handle.depth_peak)
            handle.done.set()
        if not self._runs:
            self._rr = 0
            self._casualties = 0

    def _cancel_run(self, handle: _RunHandle) -> None:
        """Abandon one run at its submitter's request.

        Workers currently executing the run's batches are killed, not
        detached: a detached-but-busy worker would accept a neighbour's
        batch into its pipe and then look hung on it.  Casualties are
        respawned by the normal resize pass, so the pool itself is never
        recycled and neighbouring runs keep their warm workers.  Verdicts
        already recorded are discarded with the run; the submitter gets
        :class:`RunCancelled`.
        """
        state, obs = handle.state, handle.obs
        for worker in list(self.workers):
            if worker.run is not handle:
                continue
            worker.assigned.clear()
            worker.batch_len = 0
            self._finish_batch(worker)
            self._casualties += 1
            try:
                worker.process.kill()
                worker.process.join()
            except (OSError, AssertionError):
                pass  # already gone
            self.discard(worker)
        abandoned = len(state.pending)
        state.pending.clear()
        obs.event("pool.run_cancelled", run=state.run_id,
                  pending=abandoned, outstanding=state.remaining)
        obs.count("pool.runs_cancelled")
        if handle in self._order:
            self._order.remove(handle)
        self._runs.pop(state.run_id, None)
        handle.error = RunCancelled(
            f"analysis cancelled with {state.remaining} verdict(s) "
            f"outstanding"
        )
        handle.done.set()

    def _next_runnable(self) -> Optional[_RunHandle]:
        """Round-robin over runs with pending work and budget headroom."""
        count = len(self._order)
        for step in range(count):
            handle = self._order[(self._rr + step) % count]
            if handle.state.pending and handle.inflight < handle.workers:
                self._rr = (self._rr + step + 1) % count
                return handle
        return None

    def _resize(self) -> None:
        """Size the pool to the largest single run's usable worker count.

        Capacity is shared, not multiplied: with runs A and B both asking
        for 2 workers, the pool holds 2 and the round-robin interleaves
        their batches.  A replacement for a worker lost mid-batch counts
        as a respawn on the telemetry of the run it is spawned for.
        """
        target = 0
        spawn_for: Optional[_RunHandle] = None
        for handle in self._order:
            usable = min(handle.workers,
                         handle.inflight + len(handle.state.pending))
            if usable > target:
                target = usable
            if (spawn_for is None and handle.state.pending
                    and handle.inflight < handle.workers):
                spawn_for = handle
        while len(self.workers) < target and spawn_for is not None:
            self.spawn_one(spawn_for.obs)
            if self._casualties > 0:
                self._casualties -= 1
                spawn_for.obs.count("parallel.respawns")

    # -- message handling ------------------------------------------------

    def _drain_worker(self, worker: _Worker) -> None:
        """Apply every message currently sitting in one worker's pipe."""
        try:
            while worker.connection.poll(0):
                self._apply_message(worker, worker.connection.recv())
        except (EOFError, OSError):
            pass  # pipe closed mid-batch: the next tick classifies it

    def _apply_message(self, worker: _Worker, message: Tuple) -> None:
        kind = message[0]
        if kind not in ("done", "error"):
            return
        run_id, index = message[1], message[2]
        previously_heard = worker.last_heard
        worker.last_heard = time.perf_counter()
        handle = self._runs.get(run_id)
        if handle is None or handle is not worker.run:
            return  # residue of a previous run on this persistent worker
        state, obs = handle.state, handle.obs
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
            self._finish_batch(worker)

    def _finish_batch(self, worker: _Worker) -> None:
        """Release the worker's batch slot back to its run's budget."""
        if worker.run is not None:
            worker.run.inflight -= 1
            worker.run = None

    # -- health ----------------------------------------------------------

    def _retire_dead(self, worker: _Worker) -> None:
        # Salvage results the worker sent before dying, then apply the
        # batch crash rule *against the owning run only*: a single
        # unreported mutant was provably executing and is classified as a
        # process-boundary crash kill; a multi-mutant remainder is
        # re-dispatched solo so one poisoned mutant cannot take out its
        # batchmates' verdicts.  An idle dead worker carries no state and
        # is simply pruned.
        worker.process.join()
        handle = worker.run
        if handle is not None:
            self._drain_worker(worker)
            handle = worker.run  # salvage may have completed the batch
        if handle is not None:
            state, obs = handle.state, handle.obs
            unreported = [task for task in worker.assigned
                          if state.results[task[0]] is None]
            worker.assigned.clear()
            worker.batch_len = 0
            self._finish_batch(worker)
            self._casualties += 1
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
        self.discard(worker)

    def _retire_hung(self, worker: _Worker) -> None:
        # The verdict may have landed in the pipe while we were not
        # looking; salvage it first — only a genuinely silent worker is a
        # hang.
        handle = worker.run
        if handle is None:
            return
        self._drain_worker(worker)
        if worker.run is None:
            return  # salvage completed the batch; the worker is fine
        state, obs = handle.state, handle.obs
        unreported = [task for task in worker.assigned
                      if state.results[task[0]] is None]
        worker.assigned.clear()
        worker.batch_len = 0
        if not unreported:
            self._finish_batch(worker)
            return
        # Execution is in-order and every verdict streams back the moment
        # it exists, so a silent worker is provably stuck on its *first*
        # unreported mutant; the rest of the batch never started and is
        # re-queued untouched.
        self._finish_batch(worker)
        self._casualties += 1
        index, mutant = unreported[0]
        worker.process.kill()
        worker.process.join()
        self.discard(worker)
        obs.event("parallel.wall_timeout", index=index,
                  mutant=mutant.record.ident,
                  backstop=handle.backstop)
        obs.count("parallel.wall_timeouts")
        state.record(index, _boundary_outcome(
            mutant.record, KillReason.WALL_TIMEOUT,
            f"no verdict within the {handle.backstop:.1f}s wall-clock "
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

    def _dispatch(self, worker: _Worker, handle: _RunHandle) -> None:
        """Hand the worker its next batch for ``handle``'s run."""
        state, obs = handle.state, handle.obs
        if worker.assigned or not state.pending:
            return
        now = time.perf_counter()
        token = state.token
        if token not in worker.epochs:
            try:
                worker.connection.send(("battery", token, state.spec))
            except (BrokenPipeError, OSError):
                return  # dead worker: the next tick prunes and respawns
            worker.epochs[token] = None
            obs.count("parallel.battery_shipped")
            while len(worker.epochs) > WORKER_BATTERY_LRU:
                worker.epochs.popitem(last=False)
                obs.count("pool.battery_evictions")
        else:
            worker.epochs.move_to_end(token)
        batch: List[Tuple[int, CompiledMutant]] = []
        while state.pending and len(batch) < state.batch_size:
            index = state.pending[0][0]
            if index in state.solo and batch:
                break  # a solo task never joins a batch already in hand
            batch.append(state.pending.popleft())
            if index in state.solo:
                break  # …and never takes batchmates of its own
        #: Tasks still queued pool-wide after this batch left — the
        #: executor's backlog, reported per dispatch and peak-tracked.
        depth = sum(len(h.state.pending) for h in self._order)
        if depth > handle.depth_peak:
            handle.depth_peak = depth
        for index, mutant in batch:
            obs.event(
                "parallel.dispatch", index=index,
                mutant=mutant.record.ident,
                waited=round(now - state.enqueued_at, 6),
                batch=len(batch),
                depth=depth,
            )
        obs.count("parallel.batches")
        if handle.first_dispatch_at is None:
            handle.first_dispatch_at = now
            queue_wait = now - handle.submitted_at
            obs.event("pool.queue_wait", run=state.run_id,
                      seconds=round(queue_wait, 6))
            obs.count("pool.queue_wait_ms", int(queue_wait * 1000))
        worker.assigned = deque(batch)
        worker.batch_len = len(batch)
        worker.batch_started = worker.last_heard = now
        worker.run = handle
        handle.inflight += 1
        try:
            worker.connection.send(("batch", state.run_id, token,
                                    tuple(batch)))
        except (BrokenPipeError, OSError):
            # Worker already dead; the next tick applies the batch crash
            # rule to the assigned tasks (classify one, re-dispatch many).
            pass

    # -- worker lifecycle ------------------------------------------------

    def prune_dead(self) -> None:
        """Drop workers that died while idle (no state to classify)."""
        with self._lock:
            for worker in list(self.workers):
                if not worker.process.is_alive() and worker.run is None:
                    self.discard(worker)

    def ensure(self, count: int, telemetry: Optional[Telemetry] = None) -> None:
        """Grow the pool to at least ``count`` live workers."""
        with self._lock:
            while len(self.workers) < count:
                self.spawn_one(telemetry)

    def spawn_one(self, telemetry: Optional[Telemetry] = None) -> _Worker:
        obs = coalesce(telemetry)
        parent_connection, child_connection = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main, args=(child_connection,), daemon=True,
        )
        process.start()
        child_connection.close()
        obs.event("parallel.worker_spawned", pid=process.pid)
        obs.count("parallel.workers_spawned")
        worker = _Worker(process, parent_connection)
        self.workers.append(worker)
        return worker

    def discard(self, worker: _Worker) -> None:
        """Forget one (already killed or dead) worker."""
        try:
            worker.connection.close()
        except OSError:
            pass
        if worker in self.workers:
            self.workers.remove(worker)

    def _worker_for(self, connection) -> Optional[_Worker]:
        for worker in self.workers:
            if worker.connection is connection:
                return worker
        return None

    def _fail_all(self, error: BaseException) -> None:
        for handle in self._order:
            handle.error = error
            handle.done.set()
        self._order.clear()
        self._runs.clear()

    def close(self) -> None:
        """Shut every worker down; the pool is unusable afterwards.

        Idempotent and exception-silent by contract: the ``atexit`` hook
        (:func:`shutdown_shared_pool`) may run after the interpreter has
        already torn down the dispatcher thread, reaped worker processes,
        or closed their pipes — every step here tolerates workers and
        pipes that are already gone, and a second call is a no-op.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dispatcher = self._dispatcher
        try:
            self._wakeup.set()
        except Exception:  # noqa: BLE001 — pipe already closed
            pass
        if (dispatcher is not None and dispatcher.is_alive()
                and dispatcher is not threading.current_thread()):
            try:
                dispatcher.join(timeout=5.0)
            except Exception:  # noqa: BLE001 — interpreter tearing down
                pass
        with self._lock:
            if self._runs:
                self._fail_all(RuntimeError("worker pool closed mid-run"))
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
        try:
            self._wakeup.close()
        except Exception:  # noqa: BLE001
            pass

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
    batteries within one experiment process.  Concurrent engines register
    runs on it and interleave; nothing ever falls back to a private pool.
    """
    global _SHARED_POOL
    with _SHARED_POOL_LOCK:
        if _SHARED_POOL is None or _SHARED_POOL.closed:
            _SHARED_POOL = WorkerPool()
        return _SHARED_POOL


def shutdown_shared_pool() -> None:
    """Close the shared pool (safe to call when none exists).

    Registered ``atexit``, so it can run after the interpreter has begun
    tearing the process down — after daemon threads (including the pool
    dispatcher) have been stopped, worker processes reaped, and pipes
    closed.  It must therefore be idempotent and never raise: a shutdown
    race at exit is cosmetic, and an exception here would mask the
    program's real outcome.
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
    """The battery epoch token: content hash of the pickled spec.

    Workers cache their rebuilt analyses under this token, so re-running
    a recent battery (same class, suite, reference, coverage, flags)
    ships no spec at all; an unseen token configures on the next
    dispatch.
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
    pool shape: ``workers`` (this run's in-flight budget and the pool
    width it may grow the pool to), ``batch_size`` (mutants per dispatch
    chunk; default adaptive) and ``pool`` (an explicit
    :class:`WorkerPool`; default the process-wide shared pool, which keeps
    workers warm across batteries and interleaves concurrent runs).
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
                 pool: Optional[WorkerPool] = None,
                 cancel_event: Optional[threading.Event] = None):
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
        # Cooperative cancellation never influences verdicts, so it does
        # not enter the experiment fingerprint.
        self._cancel_event = cancel_event
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
        # waits and task turnarounds are recorded here (by the pool's
        # dispatcher thread, onto this run's session), while workers run
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
            cancel_event=cancel_event,
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
        if self._cancel_event is not None and self._cancel_event.is_set():
            raise RunCancelled("analysis cancelled before dispatch")
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
        handle = _RunHandle(
            state=state,
            obs=self._obs,
            workers=self._workers,
            backstop=self._backstop,
            cancel=self._cancel_event,
        )
        pool.execute(handle)
        return state


def analyze_mutants_parallel(original_class: type, suite: TestSuite,
                             mutants: Sequence[CompiledMutant],
                             workers: Optional[int] = None,
                             **options) -> MutationRun:
    """One-call convenience over :class:`ParallelMutationAnalysis`."""
    return ParallelMutationAnalysis(
        original_class, suite, workers=workers, **options
    ).analyze(mutants)

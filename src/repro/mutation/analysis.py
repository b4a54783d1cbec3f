"""Mutation analysis: executing suites over mutants and classifying kills.

The paper's procedure (sec. 4): run the Concat-generated test sequence over
each mutant class; the mutant is **killed** when

  (i)  the program crashed while running the test cases;
  (ii) an exception was raised due to assertion violation, given that this
       was not the case with the original program; or
  (iii) the output differs from the (hand-validated) output of the original.

Here the original's suite run is recorded once as the *reference*; each
mutant's run is compared test case by test case through the composite
oracle (:func:`~repro.harness.oracles.paper_oracle`).  By default the
analysis stops at a mutant's first killing test case (what an experimenter
does in practice); ``stop_on_first_kill=False`` measures how many distinct
cases kill each mutant instead.

**Coverage-guided pruning** (on by default, ``prune=False`` for the
exhaustive run): the reference pass additionally records, per test case
and per line of every CUT method, the first guarded call that ran the line
(:mod:`repro.mutation.coverage`).  A mutant runs the original's code until
the original first runs the line its splice rewrote.  So a case whose
reference never ran that line replays the reference outcome, and the
analysis synthesizes that replay instead of executing it; in the cases it
does execute, the calls before that first call run without the step guard.
Verdicts, kill reasons, killing cases, details and step timeouts are
identical to the unpruned run; only the executed/skipped case counters
differ (which is why :meth:`MutationRun.same_results` compares outcomes
modulo those counters).  A ``setup`` hook declares state shared across
cases, which voids that argument, so with one the analysis runs exhaustively.

**Stored runs** (``cache=``): the analysis looks its whole run up in the
outcome store (:mod:`repro.mutation.cache`) before it runs anything.  A
hit rebuilds the run from the record and runs the suite once, plainly, on
the original for the reference: no coverage, no triage, no mutant.  A miss
records the reference and its coverage, triages, executes and stores one
record for the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import MutationError
from ..core.fingerprint import canonical
from ..generator.suite import TestSuite
from ..harness.executor import TestExecutor
from ..harness.oracles import (
    CompositeOracle,
    KillReason,
    OracleJudgement,
    paper_oracle,
)
from ..harness.outcomes import SuiteResult, TestResult, Verdict
from ..obs import Telemetry, coalesce
from .cache import (
    CacheStats,
    MutationOutcomeCache,
    experiment_fingerprint,
    run_fingerprint,
)
from .coverage import (
    NEVER,
    Column,
    CoverageMatrix,
    mutated_line,
    record_coverage,
)
from .mutant import CompiledMutant, Mutant
from .sandbox import DEFAULT_STEP_BUDGET, StepBudgetGuard
from .triage import (
    EQUIVALENT_STATUSES,
    StaticTriage,
    TriageStatus,
    triage_mutants,
)
from .typemodel import TypeModel

#: Builds the runnable class for a mutant (experiment 2 swaps in a builder
#: that re-derives the subclass over the mutated base).
ClassBuilder = Callable[[CompiledMutant], type]

#: Kill reasons that wall-clock and process scheduling decide, not the
#: fingerprinted inputs: a run holding one is never stored.
_BOUNDARY_KILLS = (KillReason.WORKER_CRASH, KillReason.WALL_TIMEOUT)


@dataclass(frozen=True)
class MutantOutcome:
    """What the suite did to one mutant."""

    mutant: Mutant
    killed: bool
    reason: KillReason
    killing_case: str = ""
    cases_run: int = 0
    killing_cases: Tuple[str, ...] = ()  # populated when not stopping early
    detail: str = ""
    #: Cases skipped by coverage-guided pruning (their reference outcome was
    #: synthesized instead of executed).  Observability only: together with
    #: ``cases_run`` it accounts for every case the analysis considered.
    cases_skipped: int = 0
    #: Static-triage provenance (:mod:`repro.mutation.triage`): ``""`` for a
    #: normally executed mutant, ``"ast_equivalent"``/``"bytecode_equivalent"``
    #: for a proven-equivalent mutant whose survivor outcome was synthesized
    #: without dispatch, and ``"redundant:<ident>"`` for a mutant whose
    #: verdict was propagated from its executed group representative.
    static_status: str = ""

    @property
    def survived(self) -> bool:
        return not self.killed

    @property
    def statically_equivalent(self) -> bool:
        """Proven equivalent by the static triage pass (never executed)."""
        return self.static_status in (
            status.value for status in EQUIVALENT_STATUSES
        )

    @property
    def dispatched(self) -> bool:
        """Whether the suite was actually run over this mutant (in-process
        or in a worker) rather than its outcome being synthesized or
        propagated by the static triage pass."""
        return self.static_status == ""

    def comparable(self) -> "MutantOutcome":
        """This outcome with the executed-case counters zeroed.

        The projection :meth:`MutationRun.same_results` compares on: a
        pruned and an unpruned run agree on every verdict-bearing field
        but legitimately differ in how many cases they physically ran.
        """
        return replace(self, cases_run=0, cases_skipped=0)

    def triage_projected(self) -> "MutantOutcome":
        """The :meth:`comparable` projection with triage provenance erased.

        The projection :meth:`MutationRun.same_verdicts` compares on: a
        triage-on and a triage-off run agree on every verdict (triage is
        *sound*, so a proven-equivalent mutant survives execution too, and
        a redundant mutant's propagated verdict equals what executing it
        would have produced) but differ in which outcomes carry triage
        provenance.
        """
        return replace(self.comparable(), static_status="")


@dataclass(frozen=True)
class MutationRun:
    """The complete result of one mutation-analysis session."""

    class_name: str
    suite_size: int
    outcomes: Tuple[MutantOutcome, ...]
    reference: SuiteResult
    elapsed_seconds: float
    #: Total StepBudgetGuard cuts across every mutant (observability: how
    #: often the sandbox had to bound a runaway mutant).  Aggregated across
    #: workers by the parallel engine.
    step_timeouts: int = 0
    #: Store counters of this run's one lookup (``None`` when the run was
    #: executed without a store).  Excluded from ``same_results``: a warm
    #: run differs from a cold run only here and in wall-clock.
    cache_stats: Optional[CacheStats] = None
    #: The static-triage verdicts this run was executed under (``None``
    #: when triage was disabled).  Excluded from ``same_results``, which
    #: already sees triage through each outcome's ``static_status``.
    triage: Optional[StaticTriage] = None

    def same_results(self, other: "MutationRun") -> bool:
        """Field-for-field equality, wall-clock, cache and executed-case
        counters excluded.

        This is the serial-equivalence contract of the parallel engine, the
        cached≡fresh contract of the outcome cache, *and* the pruned≡
        unpruned contract of coverage-guided pruning: any two runs over the
        same mutants must agree on every verdict-bearing field of every
        outcome (killed, reason, killing case(s), detail), the reference,
        and the aggregated sandbox-timeout count.  Only ``elapsed_seconds``,
        ``cache_stats`` and the per-outcome ``cases_run``/``cases_skipped``
        counters may differ — the last pair because a pruned run executes
        fewer cases while synthesizing identical verdicts.
        """
        return (
            self.class_name == other.class_name
            and self.suite_size == other.suite_size
            and self._comparable_outcomes() == other._comparable_outcomes()
            and self.reference == other.reference
            and self.step_timeouts == other.step_timeouts
        )

    def same_verdicts(self, other: "MutationRun") -> bool:
        """:meth:`same_results` modulo the triage projection.

        The triage-on ≡ triage-off contract: runs over the same mutants
        with static triage enabled and disabled must agree on every
        verdict-bearing field of every outcome — triage only *proves*
        verdicts execution would have produced, it never changes one.
        Beyond ``same_results``' exclusions this also ignores each
        outcome's ``static_status`` (provenance, set only under triage)
        and ``step_timeouts`` (a triage-off run executes the skipped
        mutants and accrues their sandbox timeouts; a triage-on run never
        runs them).
        """
        projected = tuple(
            outcome.triage_projected() for outcome in self.outcomes
        )
        other_projected = tuple(
            outcome.triage_projected() for outcome in other.outcomes
        )
        return (
            self.class_name == other.class_name
            and self.suite_size == other.suite_size
            and projected == other_projected
            and self.reference == other.reference
        )

    def _comparable_outcomes(self) -> Tuple[MutantOutcome, ...]:
        return tuple(outcome.comparable() for outcome in self.outcomes)

    # -- aggregates -----------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def cases_executed(self) -> int:
        """Total test-case executions across the battery (the cost metric
        coverage-guided pruning reduces)."""
        return sum(outcome.cases_run for outcome in self.outcomes)

    @property
    def cases_skipped(self) -> int:
        """Total (mutant, case) pairs skipped by coverage-guided pruning."""
        return sum(outcome.cases_skipped for outcome in self.outcomes)

    @property
    def killed(self) -> Tuple[MutantOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if outcome.killed)

    @property
    def survivors(self) -> Tuple[MutantOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if not outcome.killed)

    @property
    def statically_equivalent(self) -> Tuple[MutantOutcome, ...]:
        """Outcomes proven equivalent by static triage (never dispatched)."""
        return tuple(
            outcome for outcome in self.outcomes
            if outcome.statically_equivalent
        )

    @property
    def dispatched_count(self) -> int:
        """How many mutants were actually run (executions the static
        triage pass did not avoid)."""
        return sum(1 for outcome in self.outcomes if outcome.dispatched)

    def kill_reason_counts(self) -> Dict[str, int]:
        """Kills by detector — the paper's "59 were due to assertion violation"."""
        counts: Dict[str, int] = {reason.value: 0 for reason in KillReason}
        for outcome in self.killed:
            counts[outcome.reason.value] += 1
        counts.pop(KillReason.NONE.value, None)
        return counts

    def outcomes_for_method(self, method_name: str) -> Tuple[MutantOutcome, ...]:
        return tuple(
            outcome for outcome in self.outcomes
            if outcome.mutant.method_name == method_name
        )

    def outcomes_for_operator(self, operator: str) -> Tuple[MutantOutcome, ...]:
        return tuple(
            outcome for outcome in self.outcomes
            if outcome.mutant.operator == operator
        )

    def summary(self) -> str:
        reasons = ", ".join(
            f"{name}={count}" for name, count in self.kill_reason_counts().items()
            if count
        )
        return (
            f"{self.class_name}: {len(self.killed)}/{self.total} mutants killed "
            f"by a {self.suite_size}-case suite in {self.elapsed_seconds:.1f}s "
            f"({reasons})"
        )


def _triaged_outcome(mutant: CompiledMutant, triage: StaticTriage,
                     by_ident: Dict[str, MutantOutcome]) -> MutantOutcome:
    """The outcome of a statically-triaged mutant, without dispatching it.

    A proven-equivalent mutant survives by construction — the suite would
    execute the very same program as the original — so its survivor
    outcome is synthesized with zero executed cases.  A redundant mutant
    behaves identically to its executed group representative under every
    input, so the representative's verdict (kill flag, reason, killing
    case(s), detail) is propagated verbatim; only the provenance marker
    and the per-mutant case counters differ.
    """
    status = triage.status_of(mutant.ident)
    if status is TriageStatus.REDUNDANT:
        representative = triage.representative_of(mutant.ident)
        rep_outcome = by_ident[representative]
        return replace(
            rep_outcome,
            mutant=mutant.record,
            cases_run=0,
            cases_skipped=0,
            static_status=f"redundant:{representative}",
        )
    return MutantOutcome(
        mutant=mutant.record,
        killed=False,
        reason=KillReason.NONE,
        static_status=status.value,
    )


def _stored_verdict(outcome: MutantOutcome, timeouts: int) -> Tuple:
    """What a run record keeps of one mutant's result: every outcome
    field but the mutant record, then its step timeouts."""
    return (outcome.killed, outcome.reason.value, outcome.killing_case,
            outcome.killing_cases, outcome.detail, outcome.cases_run,
            outcome.cases_skipped, outcome.static_status, timeouts)


def _replayed(mutant: CompiledMutant, verdict: Tuple
              ) -> Tuple[MutantOutcome, int]:
    """The ``(outcome, step timeouts)`` a :func:`_stored_verdict` holds."""
    (killed, reason, killing_case, killing_cases, detail, cases_run,
     cases_skipped, static_status, timeouts) = verdict
    return MutantOutcome(
        mutant=mutant.record,
        killed=killed,
        reason=KillReason(reason),
        killing_case=killing_case,
        cases_run=cases_run,
        killing_cases=killing_cases,
        detail=detail,
        cases_skipped=cases_skipped,
        static_status=static_status,
    ), timeouts


def _set_verdict(span, outcome: MutantOutcome) -> None:
    """Copy the verdict-bearing fields of ``outcome`` onto its span."""
    span.set("killed", outcome.killed)
    span.set("reason", outcome.reason.value)
    span.set("cases_run", outcome.cases_run)
    span.set("cases_skipped", outcome.cases_skipped)


class MutationAnalysis:
    """Runs a test suite over a battery of mutants, checking the class
    invariant after every call, as the paper's generated driver does."""

    def __init__(self, original_class: type, suite: TestSuite,
                 oracle: Optional[CompositeOracle] = None,
                 class_builder: Optional[ClassBuilder] = None,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 stop_on_first_kill: bool = True,
                 setup: Optional[Callable[[], None]] = None,
                 reference: Optional[SuiteResult] = None,
                 cache: Optional[MutationOutcomeCache] = None,
                 prune: bool = True,
                 coverage: Optional[CoverageMatrix] = None,
                 telemetry: Optional[Telemetry] = None,
                 static_triage: bool = True,
                 triage_type_model: Optional[TypeModel] = None):
        """``setup`` runs before every suite execution (e.g. resetting an
        ambient database) so runs are independent.  It declares state the
        cases share, so with it the analysis does not prune.

        ``reference`` seeds the original class's run, and ``coverage``
        its coverage matrix; each seed must be the recorder's result
        (:func:`~repro.mutation.coverage.record_coverage`) for this class
        and suite, since neither is part of the store key.  A parallel
        worker receives the parent's seeds instead of re-executing the
        suite, so every worker judges against bit-identical golden
        results.

        ``cache`` replays a whole run stored under the same key (the
        code digest of the original's class hierarchy, mutant sources,
        battery order, suite, oracle, budget, builder, flags, pruning,
        triage setting) and stores each run it executes; see
        :mod:`repro.mutation.cache`.  The lookup comes first: a hit runs
        only the plain reference pass (``setup`` first), or none when
        ``reference`` is seeded.

        ``prune`` enables coverage-guided mutant×case pruning (the
        default): only cases whose reference run reached the mutated line
        are executed, and their calls before the first one that ran it go
        unguarded; the skipped cases provably replay the reference
        outcome, which is synthesized instead.  Pruning raises
        :class:`~repro.core.errors.MutationError` if a reference call
        reaches ``step_budget``.

        ``telemetry`` attaches a run-telemetry session
        (:mod:`repro.obs`): the reference pass and every mutant get
        spans carrying kill reason, case counters and cache hit/miss.
        Purely observational — verdicts are identical with or without
        it; the default null session records nothing.

        ``static_triage`` (the default) runs the static equivalent-mutant
        triage pass (:mod:`repro.mutation.triage`) over the battery
        before execution: proven-equivalent mutants get synthesized
        survivor outcomes without ever being dispatched, and redundant
        mutants (bytecode-identical to an earlier one) get their group
        representative's verdict propagated.  Verdicts are identical
        with triage on or off (see :meth:`MutationRun.same_verdicts`);
        only execution cost changes.  ``triage_type_model`` additionally
        enables the type-gated integral folds (the experiments pass the
        same model the generation gate uses).
        """
        self._original = original_class
        self._suite = suite
        self._oracle = oracle or paper_oracle()
        self._builder: ClassBuilder = class_builder or (
            lambda mutant: mutant.build_class()
        )
        #: The raw ``class_builder`` argument (``None`` = default
        #: ``build_class``) — what the cache fingerprints, since the
        #: per-instance default lambda has no stable identity.
        self._builder_spec = class_builder
        self._budget = step_budget
        self._stop_on_first_kill = stop_on_first_kill
        self._setup = setup
        self._cache = cache
        self._prune = prune and setup is None
        self._static_triage = static_triage
        self._triage_type_model = triage_type_model
        self._obs = coalesce(telemetry)
        self._coverage: Optional[CoverageMatrix] = (
            coverage if self._prune else None
        )
        self._reference: Optional[SuiteResult] = reference
        self._reference_by_ident: Optional[Dict[str, TestResult]] = None
        self._plans: Dict[Optional[Column], bytes] = {}
        #: case ident → ``oracle.judge(reference, reference)``: the
        #: judgement of every observed result equal to the case's reference.
        self._reproduced: Dict[str, OracleJudgement] = {}

    # ------------------------------------------------------------------

    @property
    def suite(self) -> TestSuite:
        return self._suite

    def reference_results(self) -> SuiteResult:
        """The original class's run (computed once, then cached).

        With pruning enabled this is the *one instrumented pass*: the same
        execution that records the golden results also records the
        per-case line-coverage matrix, so pruning never costs an extra
        suite run.
        """
        if self._reference is None:
            self._run_reference(record=self._prune)
        return self._reference

    def _run_reference(self, record: bool) -> SuiteResult:
        """Run the suite over the original: under the coverage recorder,
        or plainly, after ``setup``.  The span's ``recorded`` says which."""
        with self._obs.span("analysis.reference",
                            component=self._original.__name__,
                            cases=len(self._suite),
                            prune=self._prune,
                            recorded=record):
            if record:
                self._reference, recorded = record_coverage(
                    self._original, self._suite, telemetry=self._obs,
                )
                if self._coverage is None:
                    self._coverage = recorded
            else:
                if self._setup is not None:
                    self._setup()
                executor = TestExecutor(self._original, telemetry=self._obs)
                self._reference = executor.run_suite(self._suite)
        return self._reference

    def coverage_matrix(self) -> Optional[CoverageMatrix]:
        """The recorded (or seeded) coverage matrix; ``None`` when pruning
        is off.  Recording happens alongside the reference run; when the
        reference was seeded externally without a matrix, one dedicated
        instrumented pass over the original records it.

        Raises :class:`~repro.core.errors.MutationError` when a reference
        call took at least ``step_budget`` line events: guarded, the same
        call times out on every mutant, so neither an unguarded prefix nor
        a skipped case would give the exhaustive verdict.
        """
        if not self._prune:
            return None
        if self._coverage is None:
            self.reference_results()
        if self._coverage is None:
            _, self._coverage = record_coverage(
                self._original, self._suite, telemetry=self._obs,
            )
        steps, case_ident, call = self._coverage.peak
        if steps >= self._budget:
            raise MutationError(
                f"call {call} of case {case_ident} takes {steps} line events "
                f"on the original {self._original.__name__}, which reaches "
                f"the step budget of {self._budget}: raise the budget or "
                f"run with prune=False"
            )
        return self._coverage

    def _reference_map(self) -> Dict[str, TestResult]:
        if self._reference_by_ident is None:
            self._reference_by_ident = {
                result.case_ident: result
                for result in self.reference_results().results
            }
        return self._reference_by_ident

    # ------------------------------------------------------------------

    def analyze(self, mutants: Iterable[CompiledMutant]) -> MutationRun:
        """Run the suite over every mutant, or replay the stored run.

        The one analysis loop of both engines.  It takes the battery as a
        list once and, with a store, looks the whole run up before it runs
        anything: a stored run is rebuilt without coverage, triage or
        execution, and its reference comes from one plain pass (or the
        seed).  Otherwise it records the reference and its coverage,
        refusing a budget the reference reaches, triages the battery and
        hands the mutants triage does not skip to :meth:`_resolve`, the one
        step the parallel engine overrides.  Triage resolves the rest
        *without dispatch*: a proven equivalent gets a synthesized survivor
        outcome, and a redundant mutant takes the verdict of its group
        representative, which always precedes it in submission order and
        is never itself skipped.  The finished run is stored as one
        record, unless it holds a worker-boundary kill.

        ``elapsed_seconds`` covers the key, the lookup, triage, execution
        and the store, never the reference pass.
        """
        mutants = list(mutants)
        started = time.perf_counter()
        cache, key = self._cache, ""
        entry, corrupt = None, False
        if cache is not None:
            key = self.run_fingerprint(mutants)
            entry, corrupt = cache.lookup(key)
        elapsed = time.perf_counter() - started
        # The reference pass is no part of the run's time.
        if entry is not None:
            reference = (self._reference if self._reference is not None
                         else self._run_reference(record=False))
        else:
            reference = self.reference_results()
            self.coverage_matrix()  # refuses a budget the reference reaches
        started = time.perf_counter()
        if entry is not None:
            triage = entry.triage
            results = [_replayed(mutant, verdict)
                       for mutant, verdict in zip(mutants, entry.verdicts)]
        else:
            triage = self.static_triage_for(mutants)
            results = self._execute(mutants, triage)
            if cache is not None and not any(
                    outcome.reason in _BOUNDARY_KILLS
                    for outcome, _ in results):
                cache.store(key, [_stored_verdict(*result)
                                  for result in results], triage)
        stats = None
        if cache is not None:
            dispatched = sum(outcome.dispatched for outcome, _ in results)
            stats = (CacheStats(hits=dispatched) if entry is not None
                     else CacheStats(misses=dispatched, corrupt=int(corrupt)))
        return self._assemble(results, reference, triage, stats,
                              elapsed + time.perf_counter() - started)

    def _execute(self, mutants: List[CompiledMutant],
                 triage: Optional[StaticTriage]
                 ) -> List[Tuple[MutantOutcome, int]]:
        """Each mutant's ``(outcome, step timeouts)``: executed through
        :meth:`_resolve` unless triage skips it, then synthesized."""
        untriaged = [index for index, mutant in enumerate(mutants)
                     if triage is None or not triage.is_skipped(mutant.ident)]
        results: List[Optional[Tuple[MutantOutcome, int]]] = (
            [None] * len(mutants)
        )
        self._resolve(mutants, untriaged, results)
        by_ident: Dict[str, MutantOutcome] = {}
        for index, mutant in enumerate(mutants):
            if results[index] is None:
                with self._mutant_span(mutant) as span:
                    outcome = _triaged_outcome(mutant, triage, by_ident)
                    span.set("triage", outcome.static_status)
                    _set_verdict(span, outcome)
                results[index] = (outcome, 0)
            by_ident[mutant.ident] = results[index][0]
        return results

    def _resolve(self, mutants: List[CompiledMutant], indices: List[int],
                 results: List[Optional[Tuple[MutantOutcome, int]]]) -> None:
        """Set ``results[i]`` to ``(outcome, step timeouts)`` for each
        index ``i`` in ``indices``, executing the mutant here."""
        for index in indices:
            mutant = mutants[index]
            with self._mutant_span(mutant) as span:
                results[index] = self.analyze_single(mutant)
                _set_verdict(span, results[index][0])

    def _assemble(self, results: List[Tuple[MutantOutcome, int]],
                  reference: SuiteResult, triage: Optional[StaticTriage],
                  cache_stats: Optional[CacheStats],
                  elapsed: float) -> MutationRun:
        """The run of per-mutant ``(outcome, step timeouts)`` results,
        executed or replayed."""
        return MutationRun(
            class_name=self._original.__name__,
            suite_size=len(self._suite),
            outcomes=tuple(outcome for outcome, _ in results),
            reference=reference,
            elapsed_seconds=elapsed,
            step_timeouts=sum(timeouts for _, timeouts in results),
            cache_stats=cache_stats,
            triage=triage,
        )

    def _mutant_span(self, mutant: CompiledMutant):
        return self._obs.span("analysis.mutant",
                              mutant=mutant.record.ident,
                              operator=mutant.record.operator,
                              method=mutant.record.method_name)

    def static_triage_for(self, mutants: Sequence[CompiledMutant]
                          ) -> Optional[StaticTriage]:
        """The battery's static-triage verdicts (``None`` when disabled)."""
        if not self._static_triage:
            return None
        return triage_mutants(
            self._original, mutants,
            type_model=self._triage_type_model,
            telemetry=self._obs,
        )

    def run_fingerprint(self, mutants: Sequence[CompiledMutant]) -> str:
        """The store address of this configuration's run over ``mutants``:
        the experiment, the battery in order and the triage setting."""
        triage = (self._static_triage,
                  self._triage_type_model if self._static_triage else None)
        return run_fingerprint(self.experiment_fingerprint(), mutants,
                               canonical(triage))

    def experiment_fingerprint(self) -> str:
        """The cache fingerprint of this configuration (mutants excluded).

        Names the run's inputs only, so it needs no reference pass: the
        pruning flag keeps pruned and unpruned records apart, and the
        coverage matrix that licenses a pruned run's skips follows from
        the original's source files and the suite, which it already names.
        """
        return experiment_fingerprint(
            self._original,
            self._suite,
            self._oracle,
            self._builder_spec,
            self._budget,
            self._stop_on_first_kill,
            self._setup,
            prune=self._prune,
        )

    def _case_plan(self, mutant: CompiledMutant) -> bytes:
        """Per suite case, how many leading calls the mutant runs
        unguarded, or :data:`~repro.mutation.coverage.NEVER` for a case it
        skips.

        Every mutant rewriting the same line of the same method shares the
        plan, so it is built once per line and analysis.
        """
        coverage = self.coverage_matrix()
        column: Optional[Column] = None
        if coverage is not None:
            column = (mutant.record.method_name, mutated_line(mutant))
        plan = self._plans.get(column)
        if plan is None:
            cases = self._suite.cases
            plan = self._plans[column] = (
                bytes(len(cases)) if coverage is None
                else coverage.first_calls([case.ident for case in cases],
                                          *column)
            )
        return plan

    def analyze_single(self, mutant: CompiledMutant
                       ) -> Tuple[MutantOutcome, int]:
        """Run the suite over one mutant.

        Returns the outcome plus the number of step-budget timeouts the
        sandbox recorded for this mutant (the unit the parallel engine
        aggregates across workers).
        """
        plan = self._case_plan(mutant)
        reference_by_ident = self._reference_map()
        judge = self._oracle.judge
        reproduced = self._reproduced
        mutant_class = self._builder(mutant)
        guard = StepBudgetGuard(self._budget)
        executor = TestExecutor(
            mutant_class,
            step_guard=guard,
            telemetry=self._obs,
        )
        if self._setup is not None:
            self._setup()

        first_reason = KillReason.NONE
        first_case = ""
        first_detail = ""
        killing_cases: List[str] = []
        cases_run = 0
        cases_skipped = 0

        for case, unguarded in zip(self._suite.cases, plan):
            if unguarded == NEVER:
                # The case's reference run never ran the mutated line, so a
                # mutant run executes identical code and replays the
                # reference outcome: that replay (no kill, no detail) is
                # synthesized instead of executed.
                cases_skipped += 1
                continue
            cases_run += 1
            # Before its first call that ran the line, the case runs the
            # original's calls on the original's state.
            guard.let_through(unguarded)
            observed = executor.run_case(case)
            if observed.verdict is Verdict.INCOMPLETE:
                continue
            reference = reference_by_ident.get(case.ident)
            if reference is not None and observed == reference:
                # Judgements depend on the results' values only (the
                # ``Oracle.judge`` contract), so a mutant that reproduces
                # the reference gets the case's one memoised judgement.
                judgement = reproduced.get(case.ident)
                if judgement is None:
                    judgement = reproduced[case.ident] = judge(reference,
                                                               reference)
            else:
                judgement = judge(observed, reference)
            if judgement.detected:
                if first_reason is KillReason.NONE:
                    first_reason = judgement.reason
                    first_case = case.ident
                    first_detail = judgement.detail
                killing_cases.append(case.ident)
                if self._stop_on_first_kill:
                    break

        killed = first_reason is not KillReason.NONE
        outcome = MutantOutcome(
            mutant=mutant.record,
            killed=killed,
            reason=first_reason,
            killing_case=first_case,
            cases_run=cases_run,
            killing_cases=tuple(killing_cases),
            detail=first_detail,
            cases_skipped=cases_skipped,
        )
        return outcome, guard.timeouts


def analyze_mutants(original_class: type, suite: TestSuite,
                    mutants: Iterable[CompiledMutant],
                    workers: int = 1,
                    **options) -> MutationRun:
    """Run ``mutants`` on the engine ``workers`` selects.

    The one place that picks the engine: ``workers > 1`` runs the store
    misses on the process pool
    (:class:`~repro.mutation.parallel.ParallelMutationAnalysis`, at its
    adaptive batch size), whose result is field-for-field identical to
    the serial run.  A count below 1 is a ``ValueError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1:
        from .parallel import ParallelMutationAnalysis

        return ParallelMutationAnalysis(
            original_class, suite, workers=workers, **options
        ).analyze(mutants)
    return MutationAnalysis(original_class, suite, **options).analyze(mutants)

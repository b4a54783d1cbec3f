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
exhaustive run): the reference pass additionally records, per test case,
the set of CUT methods its execution dynamically reaches
(:mod:`repro.mutation.coverage`).  A case whose coverage set does not
contain a mutant's ``method_name`` executes code identical to the original
and deterministically replays the reference outcome, so the analysis skips
it and synthesizes that replay instead of executing it — verdicts, kill
reasons, killing cases and details are bit-identical to the unpruned run;
only the executed/skipped case counters differ (which is why
:meth:`MutationRun.same_results` compares outcomes modulo those counters).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..generator.suite import TestSuite
from ..generator.testcase import TestCase
from ..harness.executor import TestExecutor
from ..harness.oracles import CompositeOracle, KillReason, paper_oracle
from ..harness.outcomes import SuiteResult, TestResult, Verdict
from ..obs import Telemetry, coalesce
from .cache import CacheStats, MutationOutcomeCache, experiment_fingerprint
from .coverage import CoverageMatrix, record_coverage
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

#: One case a mutant executes: the case, its reference result, and how
#: many cases coverage-guided pruning skipped before it.
_PlannedCase = Tuple[TestCase, Optional[TestResult], int]


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
    #: Outcome-cache lookup counters for this run (``None`` when the run
    #: was executed without a cache).  Excluded from ``same_results``: a
    #: warm run differs from a cold run only here and in wall-clock.
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


def triaged_outcome(mutant: CompiledMutant, triage: StaticTriage,
                    by_ident: Dict[str, MutantOutcome]) -> MutantOutcome:
    """The outcome of a statically-triaged mutant, without dispatching it.

    A proven-equivalent mutant survives by construction — the suite would
    execute the very same program as the original — so its survivor
    outcome is synthesized with zero executed cases.  A redundant mutant
    behaves identically to its executed group representative under every
    input, so the representative's verdict (kill flag, reason, killing
    case(s), detail) is propagated verbatim; only the provenance marker
    and the per-mutant case counters differ.  Both engines build skipped
    outcomes through this one helper, which is what keeps them identical.
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


class MutationAnalysis:
    """Runs a test suite over a battery of mutants."""

    def __init__(self, original_class: type, suite: TestSuite,
                 oracle: Optional[CompositeOracle] = None,
                 class_builder: Optional[ClassBuilder] = None,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 stop_on_first_kill: bool = True,
                 check_invariants: bool = True,
                 setup: Optional[Callable[[], None]] = None,
                 reference: Optional[SuiteResult] = None,
                 cache: Optional[MutationOutcomeCache] = None,
                 prune: bool = True,
                 coverage: Optional[CoverageMatrix] = None,
                 telemetry: Optional[Telemetry] = None,
                 static_triage: bool = True,
                 triage_type_model: Optional[TypeModel] = None):
        """``setup`` runs before every suite execution (e.g. resetting an
        ambient database) so runs are independent.

        ``reference`` seeds the original class's recorded run: a parallel
        worker receives the parent's reference instead of re-executing the
        suite, so every worker judges against bit-identical golden results.

        ``cache`` replays previously computed outcomes whose content
        fingerprint (mutant source, suite, oracle, budget, builder, flags)
        is unchanged; see :mod:`repro.mutation.cache`.

        ``prune`` enables coverage-guided mutant×case pruning (the
        default): only cases whose reference-run coverage reaches the
        mutant's method are executed; the rest provably replay the
        reference outcome, which is synthesized instead.  ``coverage``
        seeds the recorded matrix the same way ``reference`` seeds the
        golden run (the parallel engine ships both to its workers).

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
        self._check_invariants = check_invariants
        self._setup = setup
        self._cache = cache
        self._prune = prune
        self._static_triage = static_triage
        self._triage_type_model = triage_type_model
        self._obs = coalesce(telemetry)
        self._coverage: Optional[CoverageMatrix] = coverage if prune else None
        self._reference: Optional[SuiteResult] = reference
        self._reference_by_ident: Optional[Dict[str, TestResult]] = None
        self._case_plans: Dict[
            str, Tuple[Tuple[_PlannedCase, ...], int]
        ] = {}

    # ------------------------------------------------------------------

    @property
    def suite(self) -> TestSuite:
        return self._suite

    def reference_results(self) -> SuiteResult:
        """The original class's run (computed once, then cached).

        With pruning enabled this is the *one instrumented pass*: the same
        execution that records the golden results also records the
        per-case method-coverage matrix, so pruning never costs an extra
        suite run.
        """
        if self._reference is None:
            with self._obs.span("analysis.reference",
                                component=self._original.__name__,
                                cases=len(self._suite),
                                prune=self._prune):
                if self._prune:
                    self._reference, recorded = record_coverage(
                        self._original, self._suite,
                        check_invariants=self._check_invariants,
                        setup=self._setup,
                        telemetry=self._obs,
                    )
                    if self._coverage is None:
                        self._coverage = recorded
                else:
                    if self._setup is not None:
                        self._setup()
                    executor = TestExecutor(
                        self._original,
                        check_invariants=self._check_invariants,
                        telemetry=self._obs,
                    )
                    self._reference = executor.run_suite(self._suite)
        return self._reference

    def coverage_matrix(self) -> Optional[CoverageMatrix]:
        """The recorded (or seeded) coverage matrix; ``None`` when pruning
        is off.  Recording happens alongside the reference run; when the
        reference was seeded externally without a matrix, one dedicated
        instrumented pass over the original records it."""
        if not self._prune:
            return None
        if self._coverage is None:
            self.reference_results()
        if self._coverage is None:
            _, self._coverage = record_coverage(
                self._original, self._suite,
                check_invariants=self._check_invariants,
                setup=self._setup,
                telemetry=self._obs,
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

    def analyze(self, mutants: Sequence[CompiledMutant]) -> MutationRun:
        """Run the suite over every mutant (replaying cached outcomes).

        With static triage enabled (the default), proven-equivalent and
        redundant mutants are resolved *without dispatch*: no suite
        execution, no outcome-cache traffic — their outcomes are
        synthesized (equivalents) or propagated from the executed group
        representative (redundant mutants, whose representative always
        precedes them in submission order).
        """
        reference = self.reference_results()
        started = time.perf_counter()
        cache = self._cache
        triage = self.static_triage_for(mutants)
        keys = None
        stats_before = None
        if cache is not None:
            experiment = self.experiment_fingerprint()
            keys = [cache.key_for(experiment, mutant) for mutant in mutants]
            stats_before = cache.snapshot()
        outcomes: List[MutantOutcome] = []
        by_ident: Dict[str, MutantOutcome] = {}
        step_timeouts = 0
        for index, mutant in enumerate(mutants):
            with self._obs.span("analysis.mutant",
                                mutant=mutant.record.ident,
                                operator=mutant.record.operator,
                                method=mutant.record.method_name) as span:
                if (triage is not None
                        and triage.is_skipped(mutant.ident)):
                    outcome = triaged_outcome(mutant, triage, by_ident)
                    timeouts = 0
                    span.set("triage", outcome.static_status)
                else:
                    entry = (cache.lookup(keys[index])
                             if cache is not None else None)
                    if entry is not None:
                        outcome, timeouts = entry.outcome, entry.step_timeouts
                        span.set("cache", "hit")
                    else:
                        if cache is not None:
                            span.set("cache", "miss")
                        outcome, timeouts = self.analyze_single(mutant)
                        if cache is not None:
                            cache.store(keys[index], outcome, timeouts)
                span.set("killed", outcome.killed)
                span.set("reason", outcome.reason.value)
                span.set("cases_run", outcome.cases_run)
                span.set("cases_skipped", outcome.cases_skipped)
            outcomes.append(outcome)
            by_ident[mutant.ident] = outcome
            step_timeouts += timeouts
        elapsed = time.perf_counter() - started
        return MutationRun(
            class_name=self._original.__name__,
            suite_size=len(self._suite),
            outcomes=tuple(outcomes),
            reference=reference,
            elapsed_seconds=elapsed,
            step_timeouts=step_timeouts,
            cache_stats=(cache.snapshot().since(stats_before)
                         if cache is not None else None),
            triage=triage,
        )

    def static_triage_for(self, mutants: Sequence[CompiledMutant]
                          ) -> Optional[StaticTriage]:
        """The battery's static-triage verdicts (``None`` when disabled)."""
        if not self._static_triage:
            return None
        return triage_mutants(
            self._original, mutants,
            type_model=self._triage_type_model,
            cache=self._cache,
            telemetry=self._obs,
        )

    def experiment_fingerprint(self) -> str:
        """The cache fingerprint of this configuration (mutants excluded).

        Incorporates the pruning flag and the coverage matrix's content
        hash, so outcomes computed under pruning can only be replayed
        under the exact matrix that justified their skips — pruned and
        unpruned cache entries never cross-contaminate.
        """
        coverage = self.coverage_matrix()
        return experiment_fingerprint(
            self._original,
            self._suite,
            self._oracle,
            self._builder_spec,
            self._budget,
            self._stop_on_first_kill,
            self._check_invariants,
            self._setup,
            prune=self._prune,
            coverage_fingerprint=(
                coverage.fingerprint() if coverage is not None else ""
            ),
        )

    def _case_plan(self, method_name: str
                   ) -> Tuple[Tuple[_PlannedCase, ...], int]:
        """The cases a mutant of ``method_name`` executes, and the total
        number pruning skips.

        Each entry pairs a covering case, in suite order, with its
        reference result and the number of cases skipped before it.
        Every mutant of the method walks the same list, so it is built
        once per method and analysis.
        """
        plan = self._case_plans.get(method_name)
        if plan is None:
            coverage = self.coverage_matrix()
            reference_by_ident = self._reference_map()
            entries: List[_PlannedCase] = []
            skipped = 0
            for case in self._suite.cases:
                if (coverage is not None
                        and not coverage.covers(case.ident, method_name)):
                    # The case's reference run never entered the method, so
                    # a mutant run executes identical code and replays the
                    # reference outcome: that replay (no kill, no detail) is
                    # synthesized instead of executed.
                    skipped += 1
                    continue
                entries.append(
                    (case, reference_by_ident.get(case.ident), skipped)
                )
            plan = (tuple(entries), skipped)
            self._case_plans[method_name] = plan
        return plan

    def analyze_single(self, mutant: CompiledMutant
                       ) -> Tuple[MutantOutcome, int]:
        """Run the suite over one mutant.

        Returns the outcome plus the number of step-budget timeouts the
        sandbox recorded for this mutant (the unit the parallel engine
        aggregates across workers).
        """
        planned, cases_skipped = self._case_plan(mutant.record.method_name)
        mutant_class = self._builder(mutant)
        guard = StepBudgetGuard(self._budget)
        executor = TestExecutor(
            mutant_class,
            check_invariants=self._check_invariants,
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

        for case, reference_result, skipped_before in planned:
            cases_run += 1
            observed = executor.run_case(case)
            if observed.verdict is Verdict.INCOMPLETE:
                continue
            judgement = self._oracle.judge(observed, reference_result)
            if judgement.detected:
                if first_reason is KillReason.NONE:
                    first_reason = judgement.reason
                    first_case = case.ident
                    first_detail = judgement.detail
                killing_cases.append(case.ident)
                if self._stop_on_first_kill:
                    # Only the cases before the killing one were skipped.
                    cases_skipped = skipped_before
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
                    mutants: Sequence[CompiledMutant],
                    workers: int = 1,
                    batch_size: Optional[int] = None,
                    **options) -> MutationRun:
    """One-call convenience over :class:`MutationAnalysis`.

    ``workers > 1`` dispatches to the process-pool engine
    (:class:`~repro.mutation.parallel.ParallelMutationAnalysis`), whose
    result is field-for-field identical to the serial run; ``batch_size``
    shapes its dispatch chunking (default adaptive) and is meaningless —
    and therefore ignored — for the serial engine.
    """
    if workers > 1:
        from .parallel import ParallelMutationAnalysis

        return ParallelMutationAnalysis(
            original_class, suite, workers=workers, batch_size=batch_size,
            **options
        ).analyze(mutants)
    return MutationAnalysis(original_class, suite, **options).analyze(mutants)

"""The sweep runner: executing a scenario registry end to end.

:class:`SweepRunner` drives every scenario of a (filtered, sharded)
:class:`~repro.scenarios.registry.ScenarioRegistry` through the existing
mutation pipeline — resolve the component (catalog ref or seeded
generator), generate the suite, build the operator battery, run the
serial or parallel engine — and folds the outcomes into one
:class:`SweepReport`.

Cost sharing across the sweep, not per scenario:

* generated components are synthesized and materialized once per
  ``(family, seed)`` — the 5 operator-split scenarios of one recipe reuse
  the same class object;
* suites are generated once per ``(component, suite-config)``;
* the reference run and its coverage matrix are recorded once per
  ``(component, suite)`` and *seeded* into every engine that needs them —
  exactly how the parallel engine seeds its workers;
* all parallel scenarios draw from one warm
  :class:`~repro.mutation.parallel.WorkerPool`, and an optional
  :class:`~repro.mutation.cache.MutationOutcomeCache` spans the sweep.

Scenarios run one at a time, in registry order, in the calling process;
``workers > 1`` spreads each scenario's mutants over the worker pool.

Scenario warm cache: with a cache attached, each finished (non-failed)
scenario's result projection is persisted keyed by the scenario content
fingerprint, the component *source* hash, the suite fingerprint and the
verdict-bearing engine flags.  A warm sweep of an unchanged registry
replays every scenario from the store — zero mutants executed, zero
reference passes — and still renders the byte-identical deterministic
report.  The worker count is deliberately not part of the key: engines
are serial-equivalent, so a result computed at any parallelism replays
everywhere.

Determinism: :meth:`SweepReport.to_dict` with ``timings=False`` is the
*deterministic projection* — same registry, same seeds, same flags ⇒
byte-identical JSON.  Wall-clock, cache counters and the executed/skipped
case tallies (which legitimately vary warm-vs-cold and pruned-vs-not) are
confined to the ``timings=True`` rendering, mirroring
:meth:`~repro.mutation.analysis.MutationRun.same_results`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..components import component_by_name, setup_for, type_model_for
from ..core.errors import ScenarioError
from ..core.fingerprint import canonical, sha256_hex
from ..generator.driver import DriverGenerator
from ..generator.suite import TestSuite
from ..harness.oracles import (
    CompositeOracle,
    assertions_only_oracle,
    experiment_oracle,
    log_level_oracle,
    output_only_oracle,
    paper_oracle,
)
from ..harness.outcomes import SuiteResult, Verdict
from ..mutation.analysis import MutationAnalysis, MutationRun, analyze_mutants
from ..mutation.cache import CACHE_KEY_VERSION, MutationOutcomeCache
from ..mutation.coverage import CoverageMatrix
from ..mutation.generate import build_battery
from ..obs import Telemetry, coalesce
from ..obs.summary import aggregate_counters
from ..tspec.model import ClassSpec
from .genspec import GeneratorSpec, synthesize
from .materialize import PathLike, materialize
from .registry import ScenarioConfig, ScenarioRegistry, default_methods

#: Called after each scenario: ``(position, total, scenario, result)``.
ProgressCallback = Callable[[int, int, ScenarioConfig, "ScenarioResult"], None]

#: Schema tag of the report JSON (bump on incompatible shape changes).
REPORT_SCHEMA = "repro-sweep-report/1"


def resolve_oracle(name: str, spec: ClassSpec) -> CompositeOracle:
    """The oracle a registry entry names, bound to the component's spec."""
    if name == "experiment":
        return experiment_oracle(spec)
    if name == "paper":
        return paper_oracle()
    if name == "assertions":
        return assertions_only_oracle()
    if name == "output":
        return output_only_oracle()
    if name == "log":
        return log_level_oracle()
    raise ScenarioError(f"unknown oracle {name!r}")


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's aggregated outcome."""

    ident: str
    component: str
    scenario_fingerprint: str
    tags: Tuple[str, ...] = ()
    groups: Tuple[str, ...] = ()
    oracle: str = ""
    operators: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    suite_size: int = 0
    suite_fingerprint: str = ""
    mutants_total: int = 0
    mutants_truncated: bool = False
    compile_failures: int = 0
    duplicates_dropped: int = 0
    type_incompatible: int = 0
    killed: int = 0
    survived: int = 0
    statically_equivalent: int = 0
    dispatched: int = 0
    kill_reasons: Mapping[str, int] = field(default_factory=dict)
    step_timeouts: int = 0
    #: Reference-run cases whose verdict was not PASS: the sweep's gate —
    #: an unmutated component must run its BIT suite green.
    oracle_failures: int = 0
    cases_executed: int = 0
    cases_skipped: int = 0
    elapsed_seconds: float = 0.0
    #: Non-empty when the scenario failed outright (synthesis, battery or
    #: engine error) — the sweep records the failure and keeps going.
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.oracle_failures > 0

    @property
    def mutation_score(self) -> float:
        if not self.mutants_total:
            return 0.0
        return self.killed / self.mutants_total

    def to_dict(self, timings: bool = True) -> Dict[str, Any]:
        """JSON-ready mapping; ``timings=False`` is the deterministic
        projection (verdict-bearing fields only — the per-result analogue
        of :meth:`~repro.mutation.analysis.MutationRun.same_results`)."""
        payload: Dict[str, Any] = {
            "ident": self.ident,
            "component": self.component,
            "scenario_fingerprint": self.scenario_fingerprint,
            "tags": list(self.tags),
            "groups": list(self.groups),
            "oracle": self.oracle,
            "operators": list(self.operators),
            "methods": list(self.methods),
            "suite_size": self.suite_size,
            "suite_fingerprint": self.suite_fingerprint,
            "mutants_total": self.mutants_total,
            "mutants_truncated": self.mutants_truncated,
            "compile_failures": self.compile_failures,
            "duplicates_dropped": self.duplicates_dropped,
            "type_incompatible": self.type_incompatible,
            "killed": self.killed,
            "survived": self.survived,
            "statically_equivalent": self.statically_equivalent,
            "kill_reasons": dict(sorted(self.kill_reasons.items())),
            "mutation_score": round(self.mutation_score, 6),
            "step_timeouts": self.step_timeouts,
            "oracle_failures": self.oracle_failures,
            "error": self.error,
        }
        if timings:
            payload.update({
                "dispatched": self.dispatched,
                "cases_executed": self.cases_executed,
                "cases_skipped": self.cases_skipped,
                "elapsed_seconds": round(self.elapsed_seconds, 6),
            })
        return payload


def _result_from_mapping(mapping: Mapping[str, Any]) -> ScenarioResult:
    return ScenarioResult(
        ident=str(mapping["ident"]),
        component=str(mapping.get("component", "")),
        scenario_fingerprint=str(mapping.get("scenario_fingerprint", "")),
        tags=tuple(mapping.get("tags", ())),
        groups=tuple(mapping.get("groups", ())),
        oracle=str(mapping.get("oracle", "")),
        operators=tuple(mapping.get("operators", ())),
        methods=tuple(mapping.get("methods", ())),
        suite_size=int(mapping.get("suite_size", 0)),
        suite_fingerprint=str(mapping.get("suite_fingerprint", "")),
        mutants_total=int(mapping.get("mutants_total", 0)),
        mutants_truncated=bool(mapping.get("mutants_truncated", False)),
        compile_failures=int(mapping.get("compile_failures", 0)),
        duplicates_dropped=int(mapping.get("duplicates_dropped", 0)),
        type_incompatible=int(mapping.get("type_incompatible", 0)),
        killed=int(mapping.get("killed", 0)),
        survived=int(mapping.get("survived", 0)),
        statically_equivalent=int(mapping.get("statically_equivalent", 0)),
        dispatched=int(mapping.get("dispatched", 0)),
        kill_reasons=dict(mapping.get("kill_reasons", {})),
        step_timeouts=int(mapping.get("step_timeouts", 0)),
        oracle_failures=int(mapping.get("oracle_failures", 0)),
        cases_executed=int(mapping.get("cases_executed", 0)),
        cases_skipped=int(mapping.get("cases_skipped", 0)),
        elapsed_seconds=float(mapping.get("elapsed_seconds", 0.0)),
        error=str(mapping.get("error", "")),
    )


@dataclass(frozen=True)
class SweepReport:
    """One sweep's (or one shard's) aggregated report."""

    registry_fingerprint: str
    results: Tuple[ScenarioResult, ...]
    filter_expression: str = ""
    shard: str = ""
    counters: Mapping[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    # -- gates ----------------------------------------------------------

    @property
    def total_oracle_failures(self) -> int:
        return sum(result.oracle_failures for result in self.results)

    @property
    def errors(self) -> Tuple[ScenarioResult, ...]:
        return tuple(result for result in self.results if result.error)

    @property
    def passed(self) -> bool:
        """The CI gate: every scenario ran, every unmutated reference run
        was oracle-green."""
        return not self.errors and self.total_oracle_failures == 0

    # -- aggregates -----------------------------------------------------

    @property
    def mutants_total(self) -> int:
        return sum(result.mutants_total for result in self.results)

    @property
    def mutants_killed(self) -> int:
        return sum(result.killed for result in self.results)

    def kill_reason_totals(self) -> Dict[str, int]:
        return aggregate_counters(
            result.kill_reasons for result in self.results
        )

    # -- rendering ------------------------------------------------------

    def to_dict(self, timings: bool = True) -> Dict[str, Any]:
        """JSON-ready mapping; results are ident-sorted so shard order and
        registry order never leak into the bytes.  ``timings=False`` drops
        wall-clock, telemetry counters and the executed-case tallies —
        the projection the determinism and shard-merge tests compare."""
        ordered = sorted(self.results, key=lambda result: result.ident)
        payload: Dict[str, Any] = {
            "schema": REPORT_SCHEMA,
            "registry_fingerprint": self.registry_fingerprint,
            "filter": self.filter_expression,
            "shard": self.shard,
            "scenarios": len(ordered),
            "mutants_total": self.mutants_total,
            "mutants_killed": self.mutants_killed,
            "kill_reasons": self.kill_reason_totals(),
            "oracle_failures": self.total_oracle_failures,
            "scenario_errors": len(self.errors),
            "results": [result.to_dict(timings=timings)
                        for result in ordered],
        }
        if timings:
            payload["elapsed_seconds"] = round(self.elapsed_seconds, 6)
            payload["counters"] = dict(sorted(self.counters.items()))
        return payload

    def to_json(self, timings: bool = True) -> str:
        return json.dumps(
            self.to_dict(timings=timings), indent=2, sort_keys=True
        ) + "\n"

    def render_text(self) -> str:
        """Human-readable sweep summary (one line per scenario)."""
        lines = [
            f"sweep: {len(self.results)} scenarios, "
            f"{self.mutants_killed}/{self.mutants_total} mutants killed, "
            f"{self.total_oracle_failures} oracle failures, "
            f"{len(self.errors)} errors"
            + (f"  [shard {self.shard}]" if self.shard else ""),
            f"registry: {self.registry_fingerprint[:16]}"
            + (f"  filter: {self.filter_expression}"
               if self.filter_expression else ""),
        ]
        header = (f"  {'scenario':<34} {'component':<22} "
                  f"{'suite':>5} {'killed':>12} {'score':>6}  flags")
        lines.append(header)
        for result in sorted(self.results, key=lambda item: item.ident):
            if result.error:
                lines.append(
                    f"  {result.ident:<34} {result.component:<22} "
                    f"ERROR: {result.error}"
                )
                continue
            flags = []
            if result.oracle_failures:
                flags.append(f"oracle-failures={result.oracle_failures}")
            if result.mutants_truncated:
                flags.append("truncated")
            if result.statically_equivalent:
                flags.append(f"equiv={result.statically_equivalent}")
            lines.append(
                f"  {result.ident:<34} {result.component:<22} "
                f"{result.suite_size:>5} "
                f"{result.killed:>5}/{result.mutants_total:<6} "
                f"{result.mutation_score:>6.2f}  {' '.join(flags)}".rstrip()
            )
        return "\n".join(lines)


def report_from_mapping(mapping: Mapping[str, Any]) -> SweepReport:
    """Reconstruct a report from its parsed JSON (for shard merging)."""
    if mapping.get("schema") != REPORT_SCHEMA:
        raise ScenarioError(
            f"not a sweep report (schema {mapping.get('schema')!r}, "
            f"expected {REPORT_SCHEMA!r})"
        )
    return SweepReport(
        registry_fingerprint=str(mapping.get("registry_fingerprint", "")),
        results=tuple(
            _result_from_mapping(item)
            for item in mapping.get("results", ())
        ),
        filter_expression=str(mapping.get("filter", "")),
        shard=str(mapping.get("shard", "")),
        counters=dict(mapping.get("counters", {})),
        elapsed_seconds=float(mapping.get("elapsed_seconds", 0.0)),
    )


def merge_reports(reports: Sequence[SweepReport]) -> SweepReport:
    """Merge shard reports into one sweep report.

    All parts must come from the same registry (fingerprint equality) and
    no scenario may appear twice — disjoint shards guarantee both, and
    violating either is a configuration error worth failing loudly on.
    """
    if not reports:
        raise ScenarioError("nothing to merge: no reports given")
    fingerprints = {report.registry_fingerprint for report in reports}
    if len(fingerprints) != 1:
        raise ScenarioError(
            "cannot merge reports from different registries: "
            + ", ".join(sorted(item[:16] for item in fingerprints))
        )
    filters = {report.filter_expression for report in reports}
    seen: Dict[str, str] = {}
    merged: List[ScenarioResult] = []
    for report in reports:
        for result in report.results:
            if result.ident in seen:
                raise ScenarioError(
                    f"scenario {result.ident!r} appears in more than one "
                    f"report (shards must be disjoint)"
                )
            seen[result.ident] = report.shard
            merged.append(result)
    return SweepReport(
        registry_fingerprint=reports[0].registry_fingerprint,
        results=tuple(sorted(merged, key=lambda result: result.ident)),
        filter_expression=(filters.pop() if len(filters) == 1 else ""),
        shard="",
        counters=aggregate_counters(report.counters for report in reports),
        elapsed_seconds=sum(report.elapsed_seconds for report in reports),
    )


class SweepRunner:
    """Executes scenarios, sharing warm state across the whole sweep."""

    def __init__(self, registry: ScenarioRegistry,
                 workers: int = 1,
                 workspace: Optional[PathLike] = None,
                 cache: Optional[MutationOutcomeCache] = None,
                 prune: bool = True,
                 static_triage: bool = True,
                 telemetry: Optional[Telemetry] = None):
        """``workers > 1`` runs every battery on the parallel engine, on
        the process-wide shared pool, warm across scenarios, at the
        adaptive batch size.  ``cache``, ``prune``, ``static_triage`` and
        ``telemetry`` are passed through to the engines unchanged."""
        if workers < 1:
            raise ScenarioError("workers must be >= 1")
        self._registry = registry
        self._workers = workers
        self._workspace = workspace
        self._cache = cache
        self._prune = prune
        self._static_triage = static_triage
        self._telemetry = telemetry
        self._obs = coalesce(telemetry)
        # Sweep-wide memos (see module docstring).
        self._classes: Dict[Tuple[str, int], type] = {}
        self._suites: Dict[Tuple[str, Tuple[int, int, int, int]],
                           TestSuite] = {}
        self._references: Dict[Tuple[str, str],
                               Tuple[SuiteResult,
                                     Optional[CoverageMatrix]]] = {}

    # -- component / suite resolution -----------------------------------

    def _resolve_component(self, scenario: ScenarioConfig
                           ) -> Tuple[type, ClassSpec,
                                      Optional[Callable[[], None]],
                                      Optional[object]]:
        """The scenario's class, spec, setup hook and triage type model."""
        selector = scenario.component
        if selector.is_generated:
            key = (selector.family, selector.seed)
            cls = self._classes.get(key)
            if cls is None:
                with self._obs.span("sweep.materialize",
                                    family=selector.family,
                                    seed=selector.seed):
                    component = synthesize(
                        GeneratorSpec(selector.family, selector.seed)
                    )
                    cls = materialize(component, self._workspace)
                self._classes[key] = cls
            return cls, cls.__tspec__, None, None
        cls = component_by_name(selector.ref)
        return (cls, cls.__tspec__,
                setup_for(selector.ref), type_model_for(selector.ref))

    def _suite_for(self, component_key: str,
                   scenario: ScenarioConfig, spec: ClassSpec) -> TestSuite:
        config = scenario.suite
        key = (component_key, (config.seed, config.edge_bound,
                               config.max_transactions, config.max_cases))
        suite = self._suites.get(key)
        if suite is None:
            suite = DriverGenerator(
                spec,
                seed=config.seed,
                edge_bound=config.edge_bound,
                max_transactions=config.max_transactions,
            ).generate()
            if config.max_cases and len(suite.cases) > config.max_cases:
                suite = dc_replace(
                    suite, cases=suite.cases[:config.max_cases]
                )
            self._suites[key] = suite
        return suite

    def _reference_for(self, component_key: str, cls: type,
                       suite: TestSuite,
                       setup: Optional[Callable[[], None]]
                       ) -> Tuple[SuiteResult, Optional[CoverageMatrix]]:
        """The (reference run, coverage matrix) pair, recorded once per
        (component, suite) and seeded into every engine downstream."""
        key = (component_key, suite.fingerprint())
        cached = self._references.get(key)
        if cached is None:
            recorder = MutationAnalysis(
                cls, suite, setup=setup, prune=self._prune,
                telemetry=self._telemetry,
            )
            cached = (recorder.reference_results(),
                      recorder.coverage_matrix())
            self._references[key] = cached
        return cached

    # -- execution ------------------------------------------------------

    def run_scenario(self, scenario: ScenarioConfig) -> ScenarioResult:
        """Execute one scenario; never raises — failures land in
        ``result.error`` so a sweep survives a bad entry.

        *Any* ``Exception`` is absorbed, not just :class:`ReproError`:
        a scenario that dies of an unforeseen bug (a bad generated
        component tripping an assertion, say) must cost exactly one
        ``error`` row and one ``sweep.errors`` tick — never the rest of
        the sweep."""
        started = time.perf_counter()
        try:
            return self._run_scenario(scenario, started)
        except Exception as error:
            return ScenarioResult(
                ident=scenario.ident,
                component=scenario.component.describe(),
                scenario_fingerprint=scenario.fingerprint(),
                tags=scenario.tags,
                groups=scenario.groups,
                oracle=scenario.oracle,
                operators=scenario.operators,
                elapsed_seconds=time.perf_counter() - started,
                error=f"{type(error).__name__}: {error}",
            )

    def _cancelled_result(self, scenario: ScenarioConfig) -> ScenarioResult:
        """The row a scenario gets when the sweep stops before running it."""
        return ScenarioResult(
            ident=scenario.ident,
            component=scenario.component.describe(),
            scenario_fingerprint=scenario.fingerprint(),
            tags=scenario.tags,
            groups=scenario.groups,
            oracle=scenario.oracle,
            operators=scenario.operators,
            error="RunCancelled: sweep cancelled before this scenario ran",
        )

    def _scenario_key(self, scenario: ScenarioConfig, cls: type,
                      suite: TestSuite) -> Optional[str]:
        """The scenario warm-cache address, or ``None`` without a cache.

        Covers everything that can change the deterministic projection:
        the scenario content fingerprint (operators, oracle, budgets,
        methods, suite config), the component *source* hash (via
        :func:`canonical`, so editing a component or the generator
        invalidates its scenarios), the realized suite fingerprint, and
        the verdict-bearing engine flags.  Deliberately excluded:
        ``workers`` — engines are serial-equivalent, so one stored result
        replays at any parallelism.
        """
        if self._cache is None:
            return None
        return sha256_hex(
            "scenario-result",
            f"v{CACHE_KEY_VERSION}",
            scenario.fingerprint(),
            canonical(cls),
            suite.fingerprint(),
            canonical(self._prune),
            canonical(self._static_triage),
        )

    def _run_scenario(self, scenario: ScenarioConfig,
                      started: float) -> ScenarioResult:
        cls, spec, setup, type_model = self._resolve_component(scenario)
        component_key = scenario.component.describe()
        methods = scenario.methods or default_methods(spec)
        suite = self._suite_for(component_key, scenario, spec)
        cache_key = self._scenario_key(scenario, cls, suite)
        if cache_key is not None:
            stored = self._cache.lookup_scenario(cache_key)
            if stored is not None:
                self._obs.count("sweep.scenario_cache_hits")
                return dc_replace(
                    _result_from_mapping(stored),
                    elapsed_seconds=time.perf_counter() - started,
                )
            self._obs.count("sweep.scenario_cache_misses")
        mutants, generation, truncated = build_battery(
            cls, methods,
            operator_names=scenario.operators,
            type_model=type_model,
            max_mutants=scenario.budgets.max_mutants,
            telemetry=self._telemetry,
        )
        reference, coverage = self._reference_for(
            component_key, cls, suite, setup
        )
        run = self._analyze(
            cls, suite, mutants, scenario, spec, setup, type_model,
            reference, coverage,
        )
        oracle_failures = sum(
            1 for result in run.reference.results
            if result.verdict is not Verdict.PASS
        )
        result = ScenarioResult(
            ident=scenario.ident,
            component=component_key,
            scenario_fingerprint=scenario.fingerprint(),
            tags=scenario.tags,
            groups=scenario.groups,
            oracle=scenario.oracle,
            operators=scenario.operators,
            methods=tuple(methods),
            suite_size=len(suite.cases),
            suite_fingerprint=suite.fingerprint(),
            mutants_total=run.total,
            mutants_truncated=truncated,
            compile_failures=generation.compile_failures,
            duplicates_dropped=generation.duplicates,
            type_incompatible=generation.type_incompatible,
            killed=len(run.killed),
            survived=len(run.survivors),
            statically_equivalent=len(run.statically_equivalent),
            dispatched=run.dispatched_count,
            kill_reasons={name: count
                          for name, count in run.kill_reason_counts().items()
                          if count},
            step_timeouts=run.step_timeouts,
            oracle_failures=oracle_failures,
            cases_executed=run.cases_executed,
            cases_skipped=run.cases_skipped,
            elapsed_seconds=time.perf_counter() - started,
        )
        if cache_key is not None and not result.failed:
            self._cache.store_scenario(
                cache_key, result.to_dict(timings=True)
            )
        return result

    def _analyze(self, cls: type, suite: TestSuite, mutants: Sequence,
                 scenario: ScenarioConfig, spec: ClassSpec,
                 setup: Optional[Callable[[], None]],
                 type_model: Optional[object],
                 reference: SuiteResult,
                 coverage: Optional[CoverageMatrix]) -> MutationRun:
        return analyze_mutants(
            cls, suite, mutants,
            workers=self._workers,
            oracle=resolve_oracle(scenario.oracle, spec),
            step_budget=scenario.budgets.step_budget,
            setup=setup,
            reference=reference,
            coverage=coverage,
            cache=self._cache,
            prune=self._prune,
            static_triage=self._static_triage,
            triage_type_model=type_model,
            telemetry=self._telemetry,
        )

    def _tally(self, result: ScenarioResult) -> None:
        self._obs.count("sweep.scenarios", 1)
        if result.oracle_failures:
            self._obs.count("sweep.oracle_failures",
                            result.oracle_failures)
        if result.error:
            self._obs.count("sweep.errors", 1)

    def _run_sequential(self, scenarios: Sequence[ScenarioConfig],
                        progress: Optional[ProgressCallback]
                        ) -> List[ScenarioResult]:
        results: List[ScenarioResult] = []
        cancelled = False  # set by Ctrl-C; every later scenario is cancelled
        for position, scenario in enumerate(scenarios, start=1):
            if cancelled:
                result = self._cancelled_result(scenario)
            else:
                try:
                    result = self.run_scenario(scenario)
                except KeyboardInterrupt:
                    # Ctrl-C mid-scenario: the pool has already killed the
                    # workers holding this scenario's batches; record it
                    # as cancelled and cancel the rest of the sweep.
                    cancelled = True
                    result = self._cancelled_result(scenario)
            results.append(result)
            self._tally(result)
            if progress is not None:
                progress(position, len(scenarios), scenario, result)
        return results

    def run(self, filter_expression: str = "",
            shard: Optional[Tuple[int, int]] = None,
            max_scenarios: int = 0,
            progress: Optional[ProgressCallback] = None) -> SweepReport:
        """Execute the (filtered, sharded) registry and aggregate.

        ``max_scenarios > 0`` runs only the first that many; 0 runs all.
        """
        if max_scenarios < 0:
            raise ScenarioError(
                f"max_scenarios must be at least 0, got {max_scenarios}"
            )
        started = time.perf_counter()
        selected = self._registry.filtered(filter_expression)
        if shard is not None:
            selected = selected.shard(*shard)
        scenarios = list(selected)
        if max_scenarios and len(scenarios) > max_scenarios:
            scenarios = scenarios[:max_scenarios]
        with self._obs.span("sweep.run", scenarios=len(scenarios),
                            workers=self._workers):
            results = self._run_sequential(scenarios, progress)
        counters = (dict(self._telemetry.counters())
                    if self._telemetry is not None else {})
        return SweepReport(
            registry_fingerprint=self._registry.fingerprint(),
            results=tuple(results),
            filter_expression=filter_expression,
            shard=(f"{shard[0]}/{shard[1]}" if shard is not None else ""),
            counters=counters,
            elapsed_seconds=time.perf_counter() - started,
        )

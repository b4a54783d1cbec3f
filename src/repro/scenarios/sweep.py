"""The sweep runner: executing a scenario registry end to end.

:class:`SweepRunner` drives every scenario of a (filtered, sharded)
:class:`~repro.scenarios.registry.ScenarioRegistry` through the existing
mutation pipeline — resolve the component (catalog ref or seeded
generator), generate the suite, build the operator battery, run the
serial engine — and folds the outcomes into one :class:`SweepReport`.

Cost sharing across a runner, not per scenario:

* generated components are synthesized and materialized once per
  ``(family, seed)`` — the 5 operator-split scenarios of one recipe reuse
  the same class object;
* suites are generated once per ``(component, suite-config)``;
* the reference run and its coverage matrix are recorded once per
  ``(component, suite)`` and *seeded* into every engine that needs them.

One loop serves every worker count.  The calling process looks every
scenario up in the store, in registry order, and groups the misses into
tasks: one per run of adjacent misses with the same component (the
registry lists them together).  Each task resolves and runs its own
scenarios.  With ``workers == 1`` a task runs on this runner, which keeps
its memos and telemetry; with ``workers > 1`` it runs in a worker of
:func:`~repro.mutation.parallel.run_pool`, which forks that many workers
for the sweep and reaps them before it returns, on a fresh runner with
no store and no telemetry.  A task carries recipes only, never a class
or a suite: a scenario's recipe is all any process needs to rebuild what
it runs, as a component's t-spec is all its consumer needs to derive its
suite.  The calling process writes the records, tallies, reports
progress and builds the report in registry order.  A worker that dies
costs one error row per scenario of its task, never the sweep.

Every engine in a sweep prunes and triages; neither moves a verdict.

Scenario warm cache: with a cache attached, each finished (non-failed)
scenario's result projection is stored under its recipe, the scenario's
content fingerprint, and one digest of all the code that resolves and
runs it (:func:`~repro.core.fingerprint.code_digest` of this module: the
``repro`` tree, which supplies every component a scenario can name,
catalog or generated, with its type model and t-spec, and the suite
generator, the engine and the oracles).  A scenario is looked up before
it is resolved, so a hit synthesizes, materializes, generates and hashes
nothing, and only a miss is ever stored; any edit under ``repro`` misses
every record once.  Engines never get the store, so it holds scenario
records only.  A warm sweep of an unchanged registry replays every
scenario from the store — zero mutants executed, zero reference passes,
no worker started — and still renders the byte-identical deterministic
report.  The worker count is deliberately not part of the key: a
scenario's result does not depend on which process ran it.

Determinism: :meth:`SweepReport.to_dict` with ``timings=False`` is the
*deterministic projection* — same registry, same seeds, same flags ⇒
byte-identical JSON.  Wall-clock, cache counters and the executed/skipped
case tallies (which legitimately vary warm-vs-cold) are confined to the
``timings=True`` rendering, mirroring
:meth:`~repro.mutation.analysis.MutationRun.same_results`.
"""

from __future__ import annotations

import json
import time
from dataclasses import (
    MISSING, dataclass, field, fields, replace as dc_replace,
)
from itertools import groupby
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    get_args,
    get_origin,
    get_type_hints,
)

from ..components import component_by_name, setup_for, type_model_for
from ..core.errors import ScenarioError
from ..core.fingerprint import code_digest, sha256_hex
from ..generator.driver import DriverGenerator
from ..generator.suite import TestSuite
from ..harness.oracles import (
    CompositeOracle,
    KillReason,
    assertions_only_oracle,
    experiment_oracle,
    log_level_oracle,
    output_only_oracle,
    paper_oracle,
)
from ..harness.outcomes import SuiteResult, Verdict
from ..mutation.analysis import MutationAnalysis
from ..mutation.cache import MutationOutcomeCache
from ..mutation.coverage import CoverageMatrix
from ..mutation.generate import build_battery
from ..mutation.parallel import PoolJob, run_pool
from ..obs import Telemetry, coalesce
from ..obs.summary import aggregate_counters
from ..tspec.model import ClassSpec
from .genspec import GeneratorSpec, synthesize
from .materialize import PathLike, materialize
from .registry import (
    ScenarioConfig,
    ScenarioRegistry,
    SuiteConfig,
    default_methods,
)

#: Called after each scenario: ``(position, total, scenario, result)``.
ProgressCallback = Callable[[int, int, ScenarioConfig, "ScenarioResult"], None]

#: Schema tag of the report JSON (bump on incompatible shape changes).
REPORT_SCHEMA = "repro-sweep-report/1"

#: The error of a scenario the sweep stopped before running.
_CANCELLED = "RunCancelled: sweep cancelled before this scenario ran"


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


#: The :class:`ScenarioResult` fields that legitimately vary with the
#: store's temperature and the clock; only ``to_dict(timings=True)``
#: renders them.
_TIMING_FIELDS = ("dispatched", "cases_executed", "cases_skipped",
                  "elapsed_seconds")


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
    kill_reasons: Dict[str, int] = field(default_factory=dict)
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
        """JSON-ready mapping of every field, plus ``mutation_score``;
        ``timings=False`` is the deterministic projection, without
        :data:`_TIMING_FIELDS` (the per-result analogue of
        :meth:`~repro.mutation.analysis.MutationRun.same_results`)."""
        payload: Dict[str, Any] = {}
        for name in _FIELDS if timings else _DETERMINISTIC_FIELDS:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            elif isinstance(value, float):
                value = round(value, 6)
            payload[name] = value
        payload["mutation_score"] = round(self.mutation_score, 6)
        return payload


#: Every :class:`ScenarioResult` field in declaration order, and those of
#: its deterministic projection.
_FIELDS = tuple(item.name for item in fields(ScenarioResult))
_DETERMINISTIC_FIELDS = tuple(name for name in _FIELDS
                              if name not in _TIMING_FIELDS)


def _type_check(hint: Any) -> Callable[[Any], bool]:
    """The test that a JSON value fits a field of type ``hint``: ``bool``
    is no ``int``, an ``int`` is a ``float``, and a tuple field takes a
    list."""
    origin = get_origin(hint)
    if origin is tuple:
        item_fits = _type_check(get_args(hint)[0])
        return lambda value: (isinstance(value, (list, tuple))
                              and all(map(item_fits, value)))
    if origin is dict:
        key_fits, item_fits = map(_type_check, get_args(hint))
        return lambda value: isinstance(value, dict) and all(
            key_fits(key) and item_fits(item)
            for key, item in value.items())
    if hint is bool:
        return lambda value: isinstance(value, bool)
    kinds = (int, float) if hint is float else hint
    return lambda value: (isinstance(value, kinds)
                          and not isinstance(value, bool))


def _type_checks(hints: Mapping[str, Any]
                 ) -> Dict[str, Tuple[str, Callable[[Any], bool]]]:
    """Per field, the name of its type and the test of a value."""
    return {
        name: (hint.__name__ if isinstance(hint, type)
               else str(hint).replace("typing.", ""), _type_check(hint))
        for name, hint in hints.items()
    }


def _check_fields(mapping: Mapping[str, Any],
                  checks: Dict[str, Tuple[str, Callable[[Any], bool]]],
                  where: str) -> None:
    """Raise :class:`ScenarioError` naming ``where`` and the field for
    the first value whose type differs from its field's."""
    for name, (expected, fits) in checks.items():
        if name in mapping and not fits(mapping[name]):
            value = mapping[name]
            raise ScenarioError(
                f"{where} {name!r} must be {expected}, "
                f"got {type(value).__name__} {value!r}")


#: Per :class:`ScenarioResult` field, its type's name and its check; and
#: the fields without a default.
_FIELD_CHECKS = _type_checks(get_type_hints(ScenarioResult))
_REQUIRED_FIELDS = tuple(
    item.name for item in fields(ScenarioResult)
    if item.default is MISSING and item.default_factory is MISSING
)


def _result_from_mapping(mapping: Any, row: str) -> ScenarioResult:
    """The result :meth:`ScenarioResult.to_dict` rendered; JSON lists
    come back as tuples, and a missing optional field takes its default.

    Raises :class:`ScenarioError` naming ``row`` and the field when a
    required field is missing or a value's type differs from its field's.
    """
    if not isinstance(mapping, Mapping):
        raise ScenarioError(
            f"{row}: expected an object, got {type(mapping).__name__}")
    ident = mapping.get("ident")
    if isinstance(ident, str):
        row = f"{row} ({ident!r})"
    for name in _REQUIRED_FIELDS:
        if name not in mapping:
            raise ScenarioError(f"{row}: missing field {name!r}")
    _check_fields(mapping, _FIELD_CHECKS, f"{row}: field")
    return ScenarioResult(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in mapping.items() if name in _FIELD_CHECKS
    })


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


#: The report's own fields that :func:`report_from_mapping` reads.
_REPORT_CHECKS = _type_checks({
    "registry_fingerprint": str, "filter": str, "shard": str,
    "results": list, "counters": Dict[str, int], "elapsed_seconds": float,
})


def report_from_mapping(mapping: Mapping[str, Any]) -> SweepReport:
    """Reconstruct a report from its parsed JSON (for shard merging).

    Raises :class:`ScenarioError` for another schema, and for a field of
    the report or of one of its results that is missing or mistyped.
    """
    schema = (mapping.get("schema") if isinstance(mapping, Mapping)
              else None)
    if schema != REPORT_SCHEMA:
        raise ScenarioError(
            f"not a sweep report (schema {schema!r}, "
            f"expected {REPORT_SCHEMA!r})"
        )
    _check_fields(mapping, _REPORT_CHECKS, "report field")
    return SweepReport(
        registry_fingerprint=str(mapping.get("registry_fingerprint", "")),
        results=tuple(
            _result_from_mapping(item, f"result {index}")
            for index, item in enumerate(mapping.get("results", ()))
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
                 telemetry: Optional[Telemetry] = None):
        """``workers > 1`` runs the scenarios the store cannot answer on
        that many worker processes, each running whole scenarios (see the
        module docstring).  ``cache`` holds the scenario records, and
        ``telemetry`` observes this process only.  A count below 1 is a
        ``ValueError``."""
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self._registry = registry
        self._workers = workers
        self._workspace = workspace
        self._cache = cache
        self._telemetry = telemetry
        self._obs = coalesce(telemetry)
        # Sweep-wide memos (see module docstring).
        self._classes: Dict[Tuple[str, int], type] = {}
        self._suites: Dict[Tuple[str, SuiteConfig], TestSuite] = {}
        self._references: Dict[Tuple[str, str],
                               Tuple[SuiteResult,
                                     Optional[CoverageMatrix]]] = {}
        # The code half of every scenario key, read on the first lookup.
        self._code_digest: Optional[str] = None

    # -- component / suite resolution -----------------------------------

    def _resolve(self, scenario: ScenarioConfig) -> Tuple[type, TestSuite]:
        """The scenario's class and suite; a generated class is
        synthesized and materialized once per ``(family, seed)``."""
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
        else:
            cls = component_by_name(selector.ref)
        return cls, self._suite_for(selector.describe(), scenario.suite,
                                    cls.__tspec__)

    def _suite_for(self, component_key: str, config: SuiteConfig,
                   spec: ClassSpec) -> TestSuite:
        key = (component_key, config)
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
                cls, suite, setup=setup, telemetry=self._telemetry,
            )
            cached = (recorder.reference_results(),
                      recorder.coverage_matrix())
            self._references[key] = cached
        return cached

    # -- execution ------------------------------------------------------

    def _run(self, scenario: ScenarioConfig) -> ScenarioResult:
        """Resolve and execute one scenario, wherever its task runs.

        *Any* ``Exception`` is absorbed into the row's ``error``, not just
        :class:`ReproError`: a scenario that dies of an unforeseen bug (a
        bad generated component tripping an assertion, say) must cost
        exactly one ``error`` row and one ``sweep.errors`` tick — never
        the rest of the sweep."""
        started = time.perf_counter()
        try:
            cls, suite = self._resolve(scenario)
            return self._execute(scenario, cls, suite, started)
        except Exception as error:
            return self._error_result(
                scenario, f"{type(error).__name__}: {error}",
                elapsed=time.perf_counter() - started,
            )

    def _error_result(self, scenario: ScenarioConfig, error: str,
                      elapsed: float = 0.0) -> ScenarioResult:
        """The row of a scenario that failed outright or never ran."""
        return ScenarioResult(
            ident=scenario.ident,
            component=scenario.component.describe(),
            scenario_fingerprint=scenario.fingerprint(),
            tags=scenario.tags,
            groups=scenario.groups,
            oracle=scenario.oracle,
            operators=scenario.operators,
            elapsed_seconds=elapsed,
            error=error,
        )

    def _scenario_key(self, scenario: ScenarioConfig) -> str:
        """The scenario warm-cache address: the recipe and the code.

        The recipe is the scenario content fingerprint (component
        selector, suite config, operators, methods, oracle, budgets).  The
        code is :func:`~repro.core.fingerprint.code_digest` of this module,
        read once per runner: the ``repro`` tree and the interpreter's
        ``major.minor``.  Every component a scenario can name, and all
        that turns the recipe into a result (synthesis, type models,
        t-specs, the suite generator, the engine, the oracles), comes from
        that tree, so no product of the recipe needs hashing.
        Deliberately excluded: ``workers`` — a scenario's result does not
        depend on the process that ran it, so one stored result replays
        at any parallelism.
        """
        if self._code_digest is None:
            self._code_digest = code_digest([__name__]) or "nosource"
        return sha256_hex("scenario-result", scenario.fingerprint(),
                          self._code_digest)

    def _lookup(self, scenario: ScenarioConfig
                ) -> Tuple[Optional[str], Optional[ScenarioResult]]:
        """The scenario's store key and, on a hit, its replayed row;
        ``(None, None)`` without a store.  A hit resolves nothing: the
        key names the recipe, not its products."""
        if self._cache is None:
            return None, None
        started = time.perf_counter()
        key = self._scenario_key(scenario)
        stored = self._cache.lookup_scenario(key)
        if stored is None:
            self._obs.count("sweep.scenario_cache_misses")
            return key, None
        self._obs.count("sweep.scenario_cache_hits")
        return key, dc_replace(
            _result_from_mapping(stored, f"stored row of {scenario.ident}"),
            elapsed_seconds=time.perf_counter() - started,
        )

    def _execute(self, scenario: ScenarioConfig, cls: type,
                 suite: TestSuite, started: float) -> ScenarioResult:
        selector = scenario.component
        spec = cls.__tspec__
        setup = type_model = None
        if not selector.is_generated:
            setup, type_model = (setup_for(selector.ref),
                                 type_model_for(selector.ref))
        component_key = selector.describe()
        methods = scenario.methods or default_methods(spec)
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
        run = MutationAnalysis(
            cls, suite,
            oracle=resolve_oracle(scenario.oracle, spec),
            step_budget=scenario.budgets.step_budget,
            setup=setup,
            reference=reference,
            coverage=coverage,
            triage_type_model=type_model,
            telemetry=self._telemetry,
        ).analyze(mutants)
        oracle_failures = sum(
            1 for result in run.reference.results
            if result.verdict is not Verdict.PASS
        )
        return ScenarioResult(
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

    def _sweep(self, scenarios: Sequence[ScenarioConfig],
               progress: Optional[ProgressCallback]) -> List[ScenarioResult]:
        """Look every scenario up, then resolve and run the misses: on
        this runner with one worker, else on the pool.

        Rows are finished (stored, if a miss; tallied; reported) in
        registry order as soon as every row before them is known.  Ctrl-C
        (on the pool, after it has reaped its workers) cancels every
        scenario without a row."""
        rows: List[Optional[ScenarioResult]] = [None] * len(scenarios)
        # The store key of each miss; a replayed row is never stored again.
        keys: List[Optional[str]] = [None] * len(scenarios)
        results: List[ScenarioResult] = []

        def finish_ready() -> None:
            while len(results) < len(rows) and rows[len(results)] is not None:
                position = len(results)
                row = rows[position]
                if keys[position] is not None and not row.failed:
                    self._cache.store_scenario(keys[position],
                                               row.to_dict(timings=True))
                results.append(row)
                self._obs.count("sweep.scenarios", 1)
                if row.oracle_failures:
                    self._obs.count("sweep.oracle_failures",
                                    row.oracle_failures)
                if row.error:
                    self._obs.count("sweep.errors", 1)
                if progress is not None:
                    progress(len(results), len(rows), scenarios[position],
                             row)

        try:
            misses: List[int] = []
            for position, scenario in enumerate(scenarios):
                key, rows[position] = self._lookup(scenario)
                if rows[position] is None:
                    misses.append(position)
                    keys[position] = key
                finish_ready()
            if self._workers == 1:
                for position in misses:
                    rows[position] = self._run(scenarios[position])
                    finish_ready()
            elif misses:
                self._run_pool(scenarios, misses, rows, finish_ready)
        except KeyboardInterrupt:
            pass
        for position, scenario in enumerate(scenarios):
            if rows[position] is None:
                rows[position] = self._error_result(scenario, _CANCELLED)
        finish_ready()
        return results

    def _run_pool(self, scenarios: Sequence[ScenarioConfig],
                  misses: List[int],
                  rows: List[Optional[ScenarioResult]],
                  finish_ready: Callable[[], None]) -> None:
        """Run the scenarios at ``misses`` on the pool, one task per run
        of adjacent misses with the same component, and fill each task's
        rows as it arrives."""
        tasks = [tuple(task) for _, task in groupby(
            misses, key=lambda position:
                scenarios[position].component.describe()
        )]

        def deliver(index: int,
                    task_rows: Tuple[ScenarioResult, ...]) -> None:
            for position, row in zip(tasks[index], task_rows):
                rows[position] = row
            finish_ready()

        def lost(task: Tuple[ScenarioConfig, ...], reason: KillReason,
                 detail: str) -> Tuple[ScenarioResult, ...]:
            return tuple(self._error_result(scenario,
                                            f"WorkerCrash: {detail}")
                         for scenario in task)

        job = PoolJob(
            tasks=[tuple(scenarios[position] for position in task)
                   for task in tasks],
            spec=_ScenarioTaskSpec(self._workspace),
            deliver=deliver,
            lost=lost,
            describe=lambda task: {
                "idents": ",".join(scenario.ident for scenario in task)
            },
            workers=self._workers,
            obs=self._obs,
        )
        with self._obs.span("parallel.run",
                            scenarios=sum(len(task) for task in tasks),
                            tasks=len(tasks), workers=self._workers):
            run_pool(job)

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
            results = self._sweep(scenarios, progress)
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


@dataclass(frozen=True)
class _ScenarioTaskSpec:
    """The job spec of scenario tasks on the pool: the workspace that
    generated components are materialized into (picklable).

    Each task, a tuple of recipes, resolves and runs on a fresh
    :class:`SweepRunner` with no store and no telemetry, so a worker
    carries nothing from one task to the next, and a task's scenarios
    share their class, suite and reference run as they would on one
    runner in a serial sweep.
    """

    workspace: Optional[PathLike]

    def runner(self) -> Callable[[Tuple[ScenarioConfig, ...]],
                                 Tuple[ScenarioResult, ...]]:
        return self._run_task

    def _run_task(self, task: Tuple[ScenarioConfig, ...]
                  ) -> Tuple[ScenarioResult, ...]:
        sweep = SweepRunner(ScenarioRegistry(()), workspace=self.workspace)
        return tuple(sweep._run(scenario) for scenario in task)

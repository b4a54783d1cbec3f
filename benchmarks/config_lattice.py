"""The configuration-invariance lattice on the full-size Tables 2 and 3.

Runs the Table 2 battery (709 mutants over the 624-case suite) and the
three Table 3 batteries once per cell of a covering set of the lattice

    engine {serial; pool at 1, 2 and 4 workers}
    × batch {1, 7, whole battery, adaptive}
    × store {none, cold, warm} × prune {on, off} × telemetry {off, on}

in which every axis value appears, and compares each run's verdict digest
with the golden digest the end-to-end benchmark recorded at the default
seed (``table2@20010701`` and ``table3@20010701`` in
``benchmarks/e2e/golden.json``, which this script only reads).  The
engines are built from the public engine API, the way the benchmark's
traced mode builds them, and a verdict line is the benchmark's
``label/ident killed reason killing_case``.  Each battery's step-timeout
count, which the digest leaves out, must equal the first cell's.  A warm
cell replays the store that the cold cell before it with the same prune
setting filled, so it crosses engines and batch sizes, and must miss
nothing; a cold cell must hit nothing; a traced cell's events must pass
the trace schema.  Per table, the pruned cells must account for every
case: their executed plus skipped cases must equal the cases each
exhaustive cell executes, and they must execute at least 30 % fewer.

Three checks follow the lattice.  The untyped Table 2 battery (1633
mutants over the 624-case suite; no golden exists for it) runs serially
and on two pool workers, at batch size 1 and at the adaptive size, and
each pool run must be ``same_results`` with the serial one: four of its
mutants' sources do not parse back, so a worker must run the code the
generator compiled.  Then every builtin scenario battery is generated
twice, with the one context per method that generation shares and with a
fresh context per generator run (``tests/mutation/context_reference.py``);
the records, reports and code objects must agree, and a pickle round trip
must keep every code field.  Last, the coverage recorder must record what
the recorder it replaced records (``tests/mutation/coverage_reference.py``:
the same reference results and an equal matrix, fingerprint included) on
the equivalence probe's suite, Table 3's three suites and every distinct
(class, suite) pair of the builtin scenarios.

From the repository root::

    PYTHONPATH=src python benchmarks/config_lattice.py

Exit status 0 when every run and check passes, 1 otherwise.  The
small-battery form of the lattice, which covers every value pair of the
axis pairs, is ``tests/mutation/test_config_lattice.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.components import (
    CObList,
    CSortableObList,
    OBLIST_TYPE_MODEL,
    component_by_name,
    setup_for,
    type_model_for,
)
from repro.experiments.config import (
    EXPERIMENT_SEED,
    TABLE2_METHODS,
    TABLE3_METHODS,
    incremental_plan,
    oblist_oracle,
    oblist_suite,
    sortable_oracle,
    sortable_suite,
    subclass_over_mutant_base,
)
from repro.generator.driver import DriverGenerator
from repro.mutation.analysis import MutationAnalysis, MutationRun
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.equivalence import probe_suite
from repro.mutation.generate import build_battery, generate_mutants
from repro.mutation.parallel import ParallelMutationAnalysis
from repro.obs import MemorySink, Telemetry, validate_event
from repro.scenarios.genspec import GeneratorSpec, synthesize
from repro.scenarios.materialize import materialize
from repro.scenarios.registry import builtin_registry, default_methods

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "e2e" / "golden.json"

#: The least share of the exhaustive cells' case executions that the
#: pruned cells must skip.
MIN_PRUNED_SHARE = 0.30


class Cell(NamedTuple):
    workers: Optional[int]  # None: the serial engine
    batch: Union[int, str, None]
    store: str
    prune: bool
    traced: bool

    @property
    def ident(self) -> str:
        engine = ("serial" if self.workers is None
                  else f"pool{self.workers}-b{self.batch}")
        return "-".join((engine, self.store,
                         "prune" if self.prune else "full",
                         "traced" if self.traced else "plain"))


#: Every engine, batch, store, prune and telemetry value appears.  Each
#: warm cell follows the cold cell that fills its store: the pool replays
#: what the serial engine stored, and the other way round.
CELLS = (
    Cell(None, None, "cold", True, True),
    Cell(1, "whole", "warm", True, False),
    Cell(2, 1, "none", False, True),
    Cell(4, 7, "cold", False, False),
    Cell(2, "adaptive", "warm", False, True),
    Cell(None, None, "warm", False, False),
)

#: One battery: (label, class under test, suite, engine options).
Battery = Tuple[str, type, object, dict]


def table2_batteries() -> Tuple[List[Battery], Sequence]:
    mutants, _ = generate_mutants(CSortableObList, TABLE2_METHODS,
                                  type_model=OBLIST_TYPE_MODEL)
    return [("", CSortableObList, sortable_suite(EXPERIMENT_SEED),
             {"oracle": sortable_oracle()})], mutants


def table3_batteries() -> Tuple[List[Battery], Sequence]:
    mutants, _ = generate_mutants(CObList, TABLE3_METHODS, ident_prefix="B",
                                  type_model=OBLIST_TYPE_MODEL)
    builder = subclass_over_mutant_base()
    return [
        ("incremental/", CSortableObList,
         incremental_plan(EXPERIMENT_SEED).executed_suite,
         {"oracle": sortable_oracle(), "class_builder": builder}),
        ("base/", CObList, oblist_suite(EXPERIMENT_SEED),
         {"oracle": oblist_oracle()}),
        ("full/", CSortableObList, sortable_suite(EXPERIMENT_SEED),
         {"oracle": sortable_oracle(), "class_builder": builder}),
    ], mutants


TABLES = {"table2": table2_batteries, "table3": table3_batteries}


def verdict_lines(label: str, run: MutationRun) -> List[str]:
    return [f"{label}{outcome.mutant.ident} {int(outcome.killed)} "
            f"{outcome.reason.value} {outcome.killing_case}"
            for outcome in run.outcomes]


def run_cell(cell: Cell, batteries: List[Battery], mutants: Sequence,
             stores: Path) -> Tuple[str, List[int], Tuple[int, int],
                                    List[str]]:
    """The verdict digest of the batteries under ``cell``, their step
    timeouts, the cases they executed and skipped, and what else the cell
    got wrong."""
    cache = None
    if cell.store != "none":
        cache = MutationOutcomeCache(stores / ("prune" if cell.prune
                                               else "full"))
    sink = MemorySink()
    telemetry = Telemetry(sink=sink) if cell.traced else None
    problems: List[str] = []
    lines: List[str] = []
    timeouts: List[int] = []
    executed = skipped = 0
    for label, original_class, suite, options in batteries:
        options = dict(options, cache=cache, prune=cell.prune,
                       static_triage=True,
                       triage_type_model=OBLIST_TYPE_MODEL,
                       telemetry=telemetry)
        if cell.workers is None:
            analysis = MutationAnalysis(original_class, suite, **options)
        else:
            analysis = ParallelMutationAnalysis(
                original_class, suite, workers=cell.workers,
                batch_size={"whole": len(mutants), "adaptive": None}.get(
                    cell.batch, cell.batch),
                **options,
            )
        run = analysis.analyze(mutants)
        lines += verdict_lines(label, run)
        timeouts.append(run.step_timeouts)
        executed += run.cases_executed
        skipped += run.cases_skipped
        stats = run.cache_stats
        if cell.store == "cold" and stats.hits:
            problems.append(f"{label or 'run'}: {stats.hits} hits in a "
                            f"cold store")
        if cell.store == "warm" and stats.misses:
            problems.append(f"{label or 'run'}: {stats.misses} misses in a "
                            f"warm store")
    if telemetry is not None:
        telemetry.close()
        if not sink.events:
            problems.append("empty trace")
        for event in sink.events:
            validate_event(event)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest, timeouts, (executed, skipped), problems


def pruning_problems(cases: List[Tuple[Cell, int, int]]) -> List[str]:
    """What one table's ``(cell, executed, skipped)`` case counts get
    wrong: every pruned cell must execute or skip exactly the cases every
    exhaustive cell executes, and execute ``MIN_PRUNED_SHARE`` fewer."""
    exhaustive = sorted({executed for cell, executed, _ in cases
                         if not cell.prune})
    if len(exhaustive) != 1:
        return [f"exhaustive cells executed {exhaustive} cases"]
    full = exhaustive[0]
    problems = []
    for cell, executed, skipped in cases:
        if not cell.prune:
            continue
        if executed + skipped != full:
            problems.append(f"{cell.ident} executed {executed} + skipped "
                            f"{skipped} cases, exhaustive cells executed "
                            f"{full}")
        if executed > (1 - MIN_PRUNED_SHARE) * full:
            problems.append(f"{cell.ident} executed {executed} of {full} "
                            f"cases, fewer than {MIN_PRUNED_SHARE:.0%} "
                            f"skipped")
    return problems


def first_difference(run: MutationRun, serial: MutationRun) -> str:
    """Where ``run`` is not ``same_results`` with ``serial``."""
    for mine, theirs in zip(run.outcomes, serial.outcomes):
        fields = [name for name in ("killed", "reason", "killing_case",
                                    "killing_cases", "detail")
                  if getattr(mine, name) != getattr(theirs, name)]
        if fields:
            return (f"{mine.mutant.ident} {', '.join(fields)}: "
                    f"{mine.reason.value}, serial {theirs.reason.value}")
    return (f"step timeouts {run.step_timeouts}, serial "
            f"{serial.step_timeouts}, or the reference")


def untyped_failures() -> int:
    """The untyped Table 2 battery on the pool at batch size 1 and at the
    adaptive size against the serial engine; prints one line per run."""
    mutants, _ = generate_mutants(CSortableObList, TABLE2_METHODS)
    suite = sortable_suite(EXPERIMENT_SEED)
    started = time.perf_counter()
    serial = MutationAnalysis(CSortableObList, suite,
                              oracle=sortable_oracle()).analyze(mutants)
    print(f"{'untyped-serial-none-prune-plain':<34} table2: {serial.total} "
          f"mutants, {len(serial.killed)} killed, step timeouts "
          f"{serial.step_timeouts} ({time.perf_counter() - started:.1f} s)",
          flush=True)
    failures = 0
    for batch in (1, "adaptive"):
        started = time.perf_counter()
        run = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=sortable_oracle(), workers=2,
            batch_size=None if batch == "adaptive" else batch,
        ).analyze(mutants)
        same = run.same_results(serial)
        failures += not same
        status = ("same results as the serial run" if same
                  else f"differs from the serial run: "
                       f"{first_difference(run, serial)}")
        print(f"{f'untyped-pool2-b{batch}-none-prune-plain':<34} table2: "
              f"{status} ({time.perf_counter() - started:.1f} s)",
              flush=True)
    return failures


def scenario_classes(classes: dict, workspace: Path):
    """``(scenario, class)`` for every builtin scenario, each generated
    class materialized once into ``classes``, as ``SweepRunner`` does."""
    for scenario in builtin_registry():
        selector = scenario.component
        if selector.is_generated:
            key = (selector.family, selector.seed)
            if key not in classes:
                classes[key] = materialize(synthesize(GeneratorSpec(*key)),
                                           workspace)
            yield scenario, classes[key]
        else:
            yield scenario, component_by_name(selector.ref)


def scenario_batteries(classes: dict, workspace: Path):
    """``(ident, (mutants, report))`` for every builtin scenario, generated
    as ``SweepRunner`` generates it, before its budget cuts the battery."""
    for scenario, cls in scenario_classes(classes, workspace):
        selector = scenario.component
        type_model = (None if selector.is_generated
                      else type_model_for(selector.ref))
        mutants, report, _ = build_battery(
            cls, scenario.methods or default_methods(cls.__tspec__),
            operator_names=scenario.operators, type_model=type_model,
        )
        yield scenario.ident, (mutants, report)


def scenario_suites(classes: dict, workspace: Path):
    """``(label, class, suite, setup)`` for every distinct (class, suite)
    pair of the builtin scenarios, each suite built as ``SweepRunner``
    builds it."""
    seen = set()
    for scenario, cls in scenario_classes(classes, workspace):
        selector, config = scenario.component, scenario.suite
        key = (selector.describe(), config)
        if key in seen:
            continue
        seen.add(key)
        suite = DriverGenerator(
            cls.__tspec__, seed=config.seed, edge_bound=config.edge_bound,
            max_transactions=config.max_transactions,
        ).generate()
        if config.max_cases:
            suite = replace(suite, cases=suite.cases[:config.max_cases])
        setup = None if selector.is_generated else setup_for(selector.ref)
        yield scenario.ident, cls, suite, setup


def identity_failures(workspace: Path) -> int:
    """Every builtin scenario battery with shared and with fresh contexts,
    and through a pickle round trip; prints one summary line."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.mutation.context_reference import (
        assert_pickle_keeps_code,
        assert_same_generation,
        empty_contexts,
        fresh_contexts,
    )

    started = time.perf_counter()
    classes: dict = {}
    with fresh_contexts():
        fresh = dict(scenario_batteries(classes, workspace))
    with empty_contexts():
        shared = list(scenario_batteries(classes, workspace))
    failures = mutants = 0
    for ident, generation in shared:
        try:
            assert_same_generation(generation, fresh[ident])
            assert_pickle_keeps_code(generation[0])
        except AssertionError as error:
            failures += 1
            print(f"{ident}: {error}", flush=True)
        mutants += len(generation[0])
    print(f"{len(shared) - failures} of {len(shared)} builtin scenario "
          f"batteries ({mutants} mutants) generate with shared contexts as "
          f"with fresh ones and pickle with their code "
          f"({time.perf_counter() - started:.1f} s)", flush=True)
    return failures


def recorder_failures(table3: List[Battery], workspace: Path) -> int:
    """The coverage recorder against the one it replaced on the probe
    suite, Table 3's suites and every distinct builtin scenario suite;
    prints one summary line and one line per failure."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.mutation.coverage_reference import assert_same_recording

    started = time.perf_counter()
    scenarios = list(scenario_suites({}, workspace))
    subjects = [("probe", CSortableObList,
                 probe_suite(CSortableObList.__tspec__), None)]
    subjects += [(f"table3 {label.rstrip('/')}", cls, suite, None)
                 for label, cls, suite, _ in table3]
    subjects += scenarios
    failures = cases = 0
    for label, cls, suite, setup in subjects:
        try:
            assert_same_recording(cls, suite, setup)
        except AssertionError as error:
            failures += 1
            print(f"{label}: {error}", flush=True)
        cases += len(suite)
    print(f"{len(subjects) - failures} of {len(subjects)} suites ({cases} "
          f"cases: the probe's, Table 3's and {len(scenarios)} builtin "
          f"scenario suites) record as with the replaced recorder "
          f"({time.perf_counter() - started:.1f} s)", flush=True)
    return failures


def main() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["entries"]
    failures = 0
    first_timeouts = {}
    cases = {table: [] for table in TABLES}
    with tempfile.TemporaryDirectory() as directory:
        inputs = {table: build() for table, build in TABLES.items()}
        for cell in CELLS:
            for table, (batteries, mutants) in inputs.items():
                started = time.perf_counter()
                digest, timeouts, (executed, skipped), problems = run_cell(
                    cell, batteries, mutants, Path(directory) / table)
                cases[table].append((cell, executed, skipped))
                expected_timeouts = first_timeouts.setdefault(table, timeouts)
                if timeouts != expected_timeouts:
                    problems.append(f"step timeouts {timeouts}, first cell "
                                    f"{expected_timeouts}")
                expected = golden[f"{table}@{EXPERIMENT_SEED}"][
                    "verdicts_sha256"]
                if digest != expected:
                    problems.append(f"verdict digest {digest[:16]}, golden "
                                    f"{expected[:16]}")
                failures += bool(problems)
                status = "; ".join(problems) or (
                    f"verdicts match the golden, step timeouts {timeouts}")
                print(f"{cell.ident:<34} {table}: {status} "
                      f"({time.perf_counter() - started:.1f} s)", flush=True)
    print(f"{len(CELLS) * len(TABLES) - failures} of "
          f"{len(CELLS) * len(TABLES)} lattice runs reproduce the golden "
          f"verdicts")
    for table, table_cases in cases.items():
        problems = pruning_problems(table_cases)
        failures += bool(problems)
        pruned = max(executed for cell, executed, _ in table_cases
                     if cell.prune)
        full = max(executed for cell, executed, _ in table_cases
                   if not cell.prune)
        print(f"{table} pruning: " + ("; ".join(problems) or (
            f"pruned cells execute {pruned} of the {full} cases exhaustive "
            f"cells execute ({1 - pruned / full:.1%} fewer) and skip the "
            f"rest")), flush=True)
    failures += untyped_failures()
    with tempfile.TemporaryDirectory() as workspace:
        failures += identity_failures(Path(workspace))
    with tempfile.TemporaryDirectory() as workspace:
        failures += recorder_failures(inputs["table3"][0], Path(workspace))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

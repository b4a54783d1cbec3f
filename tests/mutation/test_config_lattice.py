"""Configuration invariance: no engine or run setting moves a verdict.

A mutant's verdict may depend only on the component source, the suite,
the oracle configuration and the step budget: the paper runs every mutant
as its own program (sec. 4).  Each cell of the lattice engine {serial;
pool at 1, 2 and 4 workers} × batch {1, 7, whole battery, adaptive} ×
store {none, cold, warm} × prune {on, off} × telemetry {off, on} runs one
battery and must match the serial, exhaustive run of that battery (prune
off, no store, no telemetry) field by field, each mutant's step timeouts
included; the case counters must match the serial run at the cell's own
prune setting.  A warm cell replays a store that another configuration
with the same prune setting filled and must miss nothing, a cold one must
hit nothing, and a traced one must leave a non-empty, schema-valid trace.
A failure names the cell, the first differing mutant and the field.

The FindMax battery at the default seed runs the {serial, pool at 2} ×
batch {1, adaptive} × store × prune × telemetry product plus
:data:`PAIRWISE_FILL`; the FindMax battery at every seed runs
:data:`SEED_FILL`; every other battery runs the five cells of
:func:`covering_set`; and every battery runs :data:`PRUNE_PAIR`.  Static
triage is not an axis and is off throughout.
``benchmarks/config_lattice.py`` runs the same check on the full-size
Tables 2 and 3 against the end-to-end benchmark's golden verdict digests.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Tuple

import pytest

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.experiments.config import subclass_over_mutant_base
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import build_battery, generate_mutants
from repro.mutation.parallel import ParallelMutationAnalysis
from repro.obs import MemorySink, Telemetry, validate_event
from repro.scenarios import (
    FAMILY_NAMES,
    GeneratorSpec,
    default_methods,
    materialize,
    synthesize,
)

from .pruning_subjects import LINE_SUBJECTS

WORKERS = (None, 1, 2, 4)  # None is the serial engine
BATCHES = (1, 7, "whole", "adaptive")
STORES = ("none", "cold", "warm")
PRUNE = (True, False)
TRACED = (False, True)

# -- subjects -----------------------------------------------------------------


class Subject(NamedTuple):
    cut_class: type
    suite: Any
    mutants: Tuple
    options: Dict[str, Any]  # oracle, class builder


def _sortable(seed, limit=60, keep=lambda case: True):
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    return replace(suite, cases=tuple(filter(keep, suite.cases))[:limit])


def _typed(owner, method, prefix="M"):
    return tuple(generate_mutants(owner, [method], ident_prefix=prefix,
                                  type_model=OBLIST_TYPE_MODEL)[0])


SORTABLE = {"oracle": experiment_oracle(CSortableObList.__tspec__)}


def findmax(seed):
    """Twelve ``FindMax`` mutants over the first 60 cases, which mix cases
    that never reach the method with killing ones; one mutant runs into
    the step budget."""
    return lambda workspace: Subject(CSortableObList, _sortable(seed),
                                     _typed(CSortableObList, "FindMax")[:12],
                                     SORTABLE)


def issorted(seed):
    """Cases that run a sort but never name ``IsSorted`` in a step: they
    reach it only through the sorts' postconditions, an edge static step
    inspection cannot see."""
    sorts = ("Sort1", "Sort2", "ShellSort")
    return lambda workspace: Subject(
        CSortableObList,
        _sortable(seed, 40, lambda case: (
            any(step.method_name in sorts for step in case.steps)
            and not any(step.method_name == "IsSorted"
                        for step in case.steps))),
        _typed(CSortableObList, "IsSorted"), SORTABLE)


def base_via_subclass(workspace):
    """Experiment 2's shape: ``CObList`` mutants run through
    ``CSortableObList`` re-derived over each mutated base."""
    return Subject(CSortableObList, _sortable(20010701, 50),
                   _typed(CObList, "RemoveHead", "B")[:12],
                   dict(SORTABLE, class_builder=subclass_over_mutant_base()))


def line_subject(name):
    cut_class, method, suite = LINE_SUBJECTS[name]
    return lambda workspace: Subject(
        cut_class, suite, tuple(generate_mutants(cut_class, [method])[0]), {})


def generated(family):
    """A synthesized component, materialized as a module that exists only
    in the test's workspace."""

    def build(workspace):
        cut_class = materialize(synthesize(GeneratorSpec(family, 13)),
                                workspace)
        mutants, _, _ = build_battery(
            cut_class, list(default_methods(cut_class.__tspec__)),
            max_mutants=40)
        suite = DriverGenerator(cut_class.__tspec__, seed=20010701).generate()
        return Subject(cut_class, suite, tuple(mutants), {})

    return build


DEFAULT = "findmax@20010701"
SUBJECTS = {
    DEFAULT: findmax(20010701),
    "findmax@7": findmax(7),
    "findmax@99": findmax(99),
    "issorted@20010701": issorted(20010701),
    "base-via-subclass": base_via_subclass,
    **{f"line-{name}": line_subject(name) for name in LINE_SUBJECTS},
    **{f"gen-{family}": generated(family) for family in FAMILY_NAMES},
    # Last, so that the batteries above keep their covering-set turns.
    "issorted@7": issorted(7),
    "issorted@99": issorted(99),
}

# -- cells --------------------------------------------------------------------


class Cell(NamedTuple):
    subject: str
    workers: Optional[int]  # None: the serial engine, which has no batch
    batch: Any
    store: str
    prune: bool
    traced: bool

    @property
    def ident(self) -> str:
        engine = ("serial" if self.workers is None
                  else f"pool{self.workers}-b{self.batch}")
        return "-".join((self.subject, engine, self.store,
                         "prune" if self.prune else "full",
                         "traced" if self.traced else "plain"))


#: The default battery's cells beyond the product: (workers, batch, store,
#: prune, traced).  With the product, every value pair of every axis pair
#: in :data:`AXIS_PAIRS` appears.
PAIRWISE_FILL = (
    (1, 1, "warm", True, False), (1, 7, "none", False, True),
    (1, "whole", "cold", True, True), (1, "adaptive", "none", False, False),
    (2, 7, "cold", True, False), (2, "whole", "warm", False, True),
    (4, 1, "cold", False, True), (4, 7, "cold", True, False),
    (4, "whole", "none", False, False), (4, "adaptive", "warm", True, True),
)

#: The FindMax battery's cells at every seed: the pool at 2 workers at
#: every batch size against no store and a cold one; the pool at 1, 2 and
#: 4 workers exhaustive without a store; the pool at 2 and 4 pruned and
#: traced against a cold store; the serial engine replaying warm stores;
#: and the serial engine and the pool at 2 tracing an exhaustive cold run.
SEED_FILL = (
    *((2, batch, store, True, False)
      for batch in BATCHES for store in ("none", "cold")),
    *((workers, "adaptive", "none", False, False) for workers in (1, 2, 4)),
    *((workers, "adaptive", "cold", True, True) for workers in (2, 4)),
    (None, None, "warm", True, False), (None, None, "warm", False, True),
    (None, None, "cold", False, True), (2, "adaptive", "cold", False, True),
)

#: Every battery's pruned runs on both engines, without a store or
#: telemetry: what a pruned ≡ exhaustive check of one battery needs.
PRUNE_PAIR = ((None, None, "none", True, False),
              (2, "adaptive", "none", True, False))

#: The axis pairs the per-axis matrices this lattice replaced combined.
AXIS_PAIRS = (("workers", "batch"), ("workers", "store"), ("batch", "store"),
              ("workers", "prune"), ("workers", "traced"), ("store", "traced"))


def covering_set(subject, turn):
    """Five cells of one battery in which every axis value appears;
    ``turn`` rotates the values so the batteries meet different pairs."""
    return [Cell(subject, workers, workers and BATCHES[(shift - 1) % 4],
                 STORES[shift % 3], shift % 2 == 0, shift // 2 % 2 == 1)
            for shift, workers in enumerate((None, 1, 2, 4, 2), start=turn)]


CELLS = list(dict.fromkeys([
    Cell(DEFAULT, workers, batch, store, prune, traced)
    for workers, batch in ((None, None), (2, 1), (2, "adaptive"))
    for store in STORES for prune in PRUNE for traced in TRACED
] + [Cell(DEFAULT, *fill) for fill in PAIRWISE_FILL] + [
    Cell(subject, *fill) for subject in SUBJECTS
    if subject.startswith("findmax@") for fill in SEED_FILL
] + [
    cell for turn, subject in enumerate(list(SUBJECTS)[1:])
    for cell in covering_set(subject, turn)
] + [Cell(subject, *fill) for subject in SUBJECTS for fill in PRUNE_PAIR]))


def store_filler(cell: Cell) -> Cell:
    """The cold run that fills a warm cell's store: another engine or
    batch size at the cell's prune setting.  Serial and batch-1 cells
    replay what the pool at 2 workers stored in batches of 7; the other
    pool cells replay what the serial engine stored."""
    if cell.workers is None or cell.batch == 1:
        return Cell(cell.subject, 2, 7, "cold", cell.prune, False)
    return Cell(cell.subject, None, None, "cold", cell.prune, False)


# -- running cells ------------------------------------------------------------


class _KeepsTimeouts:
    """Keeps each mutant's step-timeout count, which a run reports only
    summed, so a mismatch can name the mutant: as executed, or as the
    warm store's run record holds it."""

    def _assemble(self, results, *args):
        self.timeouts = {outcome.mutant.ident: timeouts
                         for outcome, timeouts in results}
        return super()._assemble(results, *args)


class SerialEngine(_KeepsTimeouts, MutationAnalysis):
    pass


class PoolEngine(_KeepsTimeouts, ParallelMutationAnalysis):
    pass


class Lattice:
    """Builds each subject, serial baseline and filled store once."""

    def __init__(self, directory: Path):
        self._directory = directory
        self._subjects: Dict[str, Subject] = {}
        self._serial: Dict[Tuple[str, bool], Tuple] = {}
        self._stores: Dict[Cell, Path] = {}

    def subject(self, name):
        if name not in self._subjects:
            self._subjects[name] = SUBJECTS[name](self._directory / "ws")
        return self._subjects[name]

    def serial(self, name, prune):
        """``(run, step timeouts)`` of the serial engine at ``prune``,
        without store or telemetry."""
        if (name, prune) not in self._serial:
            self._serial[name, prune] = self.run(
                Cell(name, None, None, "none", prune, False), None)[:2]
        return self._serial[name, prune]

    def run(self, cell: Cell, directory: Optional[Path]):
        """``(run, per-mutant step timeouts, trace events)`` of a cell."""
        subject = self.subject(cell.subject)
        cache = None
        if cell.store == "warm":
            shutil.copytree(self._filled(store_filler(cell)),
                            directory / "store")
        if cell.store != "none":
            cache = MutationOutcomeCache(directory / "store")
        sink = MemorySink()
        telemetry = Telemetry(sink=sink) if cell.traced else None
        options = dict(subject.options, prune=cell.prune, cache=cache,
                       telemetry=telemetry, static_triage=False)
        if cell.workers is None:
            engine = SerialEngine(subject.cut_class, subject.suite, **options)
        else:
            engine = PoolEngine(
                subject.cut_class, subject.suite, workers=cell.workers,
                batch_size={"whole": len(subject.mutants),
                            "adaptive": None}.get(cell.batch, cell.batch),
                **options)
        run = engine.analyze(subject.mutants)
        if telemetry is not None:
            telemetry.close()
        return run, engine.timeouts, sink.events

    def _filled(self, filler: Cell) -> Path:
        """The store ``filler`` filled from cold, once its own run has
        matched the serial, exhaustive one."""
        if filler not in self._stores:
            directory = self._directory / f"store{len(self._stores)}"
            mismatch = self.first_difference(
                filler, *self.run(filler, directory)[:2])
            assert mismatch is None, f"store filler {mismatch}"
            self._stores[filler] = directory / "store"
        return self._stores[filler]

    def first_difference(self, cell, run, timeouts) -> Optional[str]:
        """Where ``run`` first departs from the serial runs, or ``None``."""
        exhaustive, expected_timeouts = self.serial(cell.subject, False)
        counted, _ = self.serial(cell.subject, cell.prune)
        if len(run.outcomes) != len(exhaustive.outcomes):
            return (f"{cell.ident}: {len(run.outcomes)} outcomes, expected "
                    f"{len(exhaustive.outcomes)}")
        for mine, theirs, counts in zip(run.outcomes, exhaustive.outcomes,
                                        counted.outcomes):
            ident = theirs.mutant.ident
            expected = dict(vars(theirs), mutant=ident,
                            cases_run=counts.cases_run,
                            cases_skipped=counts.cases_skipped,
                            step_timeouts=expected_timeouts[ident])
            got = dict(vars(mine), mutant=mine.mutant.ident,
                       step_timeouts=timeouts.get(ident))
            for field, value in expected.items():
                if got[field] != value:
                    return (f"{cell.ident}: mutant {ident}, field {field}: "
                            f"expected {value!r}, got {got[field]!r}")
        for field in ("class_name", "suite_size", "step_timeouts",
                      "reference"):
            if getattr(run, field) != getattr(exhaustive, field):
                return f"{cell.ident}: run field {field} differs"
        return None


@pytest.fixture(scope="module")
def lattice(tmp_path_factory):
    return Lattice(tmp_path_factory.mktemp("lattice"))


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.ident)
def test_cell(cell, lattice, tmp_path):
    """One configuration gives the serial, exhaustive run's verdicts."""
    run, timeouts, events = lattice.run(cell, tmp_path)
    difference = lattice.first_difference(cell, run, timeouts)
    assert difference is None, difference
    assert run.same_results(lattice.serial(cell.subject, False)[0])
    if cell.store == "cold":
        assert run.cache_stats.hits == 0, f"{cell.ident}: cold store hit"
    if cell.store == "warm":
        assert run.cache_stats.misses == 0, (
            f"{cell.ident}: {run.cache_stats.misses} misses replaying the "
            f"store {store_filler(cell).ident} filled")
    if cell.traced:
        assert events, f"{cell.ident}: empty trace"
        for event in events:
            validate_event(event)


def test_serial_baselines(lattice):
    """The pruned serial run, whose case counters the cells are held to,
    gives the exhaustive verdicts; and a hand-written battery that kills
    nothing or skips nothing would prove little."""
    for name in SUBJECTS:
        exhaustive, _ = lattice.serial(name, prune=False)
        pruned, _ = lattice.serial(name, prune=True)
        assert pruned.same_results(exhaustive), name
        if not name.startswith("gen-"):
            assert exhaustive.killed and not exhaustive.cases_skipped, name
            # Every IsSorted case reaches IsSorted through a sort.
            assert (pruned.cases_skipped > 0) is (
                not name.startswith("issorted@")), name
    assert lattice.serial("line-endless-loop", prune=False)[0].step_timeouts


def test_cells_cover_every_axis_value_and_pair():
    values = {"workers": WORKERS, "batch": BATCHES, "store": STORES,
              "prune": PRUNE, "traced": TRACED}
    for subject in SUBJECTS:
        seen = [cell._asdict() for cell in CELLS if cell.subject == subject]
        for axis, wanted in values.items():
            assert set(wanted) <= {cell[axis] for cell in seen}, (subject,
                                                                  axis)
    seen = [cell._asdict() for cell in CELLS]
    for first, second in AXIS_PAIRS:
        got = {(cell[first], cell[second]) for cell in seen}
        missing = {pair for pair in itertools.product(values[first],
                                                      values[second])
                   if pair not in got
                   and not (second == "batch" and pair[0] is None)}
        assert not missing, (first, second, missing)

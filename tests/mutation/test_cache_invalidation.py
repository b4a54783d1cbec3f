"""Invalidation semantics of the run record, and damaged records.

Content addressing means "invalidation" is not a deletion pass: changing
any input of the run key re-addresses the run, so the whole run misses
and executes again, and reverting the change hits the old record again.
An edit anywhere in the code of the component's packages is such a
change: a file that defines one of its classes, a module it imports, the
module of the oracle that judges it.  Engine, worker count, batch size
and telemetry are no key inputs and hit.  Corrupt run records (scribbled
payload, flipped CRC, wrong payload type) are misses, never crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.suite import TestSuite
from repro.harness.oracles import assertions_only_oracle
from repro.mutation.analysis import (
    MutationAnalysis,
    MutationRun,
    analyze_mutants,
)
from repro.mutation.cache import CacheStats, MutationOutcomeCache
from repro.mutation.mutant import CompiledMutant, compile_mutant_function
from repro.obs import MemorySink, Telemetry

from .. import keyed_component
from ..keyed_component import KeyedTree
from .test_cache import battery_of, counting_builder, oracle, small_suite

KEY_MUTANTS = 8


@pytest.fixture(scope="module")
def mutants():
    return battery_of("FindMax")[:KEY_MUTANTS]


def perturbed_mutant(mutant: CompiledMutant) -> CompiledMutant:
    """The same mutant with semantically-neutral but different source."""
    record = replace(
        mutant.record,
        mutated_source=mutant.record.mutated_source + "\n# touched",
    )
    return CompiledMutant(
        record, mutant.owner, *compile_mutant_function(record, mutant.owner)
    )


def perturbed_suite(suite):
    """The suite with one integer argument of its first case moved by one."""
    case = suite.cases[0]
    index, step = next(
        (index, step) for index, step in enumerate(case.steps)
        if step.arguments and isinstance(step.arguments[0], int)
    )
    step = replace(step, arguments=(step.arguments[0] + 1,)
                   + step.arguments[1:])
    case = replace(case, steps=case.steps[:index] + (step,)
                   + case.steps[index + 1:])
    perturbed = replace(suite, cases=(case,) + suite.cases[1:])
    assert perturbed.fingerprint() != suite.fingerprint()
    return perturbed


@dataclass(frozen=True)
class Run:
    """One analysis over a store: the original class, the battery, the
    suite and the engine options.  ``tree`` is the source tree the class
    was imported from, if it was written for the test."""

    original: type
    battery: List[CompiledMutant]
    suite: TestSuite
    options: Dict[str, Any] = field(default_factory=dict)
    tree: Optional[KeyedTree] = None

    def __call__(self, cache) -> MutationRun:
        return analyze_mutants(self.original, self.suite, self.battery,
                               cache=cache, **self.options)


def table_run(battery) -> Run:
    return Run(CSortableObList, list(battery), small_suite(limit=30),
               dict(oracle=oracle(), triage_type_model=OBLIST_TYPE_MODEL))


def tree_run(tree: KeyedTree) -> Run:
    """The keyed component as its files read now, judged by the oracle
    its tree defines."""
    stepper = tree.load()
    return Run(stepper, keyed_component.battery(stepper),
               keyed_component.suite(), dict(oracle=tree.oracle()),
               tree=tree)


def options(**changed):
    return lambda run: replace(run, options={**run.options, **changed})


@dataclass(frozen=True)
class SourceEdit:
    """One edit to the keyed component's code outside its class body
    (:data:`tests.keyed_component.EDITS`); the changed run imports the
    files again."""

    name: str

    def __call__(self, run: Run) -> Run:
        module, old, new = keyed_component.EDITS[self.name]
        run.tree.edit(module, old, new)
        return tree_run(run.tree)

    def revert(self, run: Run) -> Run:
        module, old, new = keyed_component.EDITS[self.name]
        run.tree.edit(module, new, old)
        return tree_run(run.tree)


#: Each key input, changed: ``change(run)`` gives the changed run.  The
#: FindMin battery reuses the FindMax battery's idents, so filling one
#: cold store with both is two cold misses, nothing more.  A source edit
#: runs on the keyed component instead.
KEY_CHANGES = {
    "mutant-source": lambda run: replace(
        run, battery=[perturbed_mutant(run.battery[0])] + run.battery[1:]),
    "battery-order": lambda run: replace(run, battery=run.battery[::-1]),
    "case-value": lambda run: replace(run, suite=perturbed_suite(run.suite)),
    "oracle": options(oracle=assertions_only_oracle()),
    "stop-on-first-kill": options(stop_on_first_kill=False),
    "class-builder": options(class_builder=counting_builder),
    "prune": options(prune=False),
    "triage-off": options(static_triage=False),
    "triage-type-model": options(triage_type_model=None),
    "findmin-after-findmax": lambda run: replace(
        run, battery=battery_of("FindMin")[:KEY_MUTANTS]),
    **{name: SourceEdit(name) for name in keyed_component.EDITS},
}

#: What a run may change and still hit: none of it is a key input.
NEUTRAL_CHANGES = {
    "pool2": options(workers=2),
    "pool2-batch1": options(workers=2, batch_size=1),
    "pool4": options(workers=4),
    "telemetry": lambda run: replace(
        run, options={**run.options,
                      "telemetry": Telemetry(sink=MemorySink())}),
}


def run_battery(battery, cache, **changed):
    return options(**changed)(table_run(battery))(cache)


@pytest.fixture()
def keyed_tree(tmp_path):
    tree = KeyedTree(tmp_path / "tree")
    yield tree
    tree.close()


@pytest.mark.parametrize("change", [*KEY_CHANGES, *NEUTRAL_CHANGES])
def test_run_key(change, mutants, keyed_tree, tmp_path):
    """A changed key input misses the whole run, and reverting it hits
    again; a changed engine, worker count, batch size or telemetry hits."""
    make = {**KEY_CHANGES, **NEUTRAL_CHANGES}[change]
    edits_source = isinstance(make, SourceEdit)
    base = tree_run(keyed_tree) if edits_source else table_run(mutants)
    cache = MutationOutcomeCache(tmp_path / "store")
    cold = base(cache)
    assert cold.cache_stats == CacheStats(misses=cold.dispatched_count)

    rerun = make(base)(cache)
    if change in NEUTRAL_CHANGES:
        assert rerun.cache_stats == CacheStats(hits=rerun.dispatched_count)
        assert rerun.same_results(cold)
    else:
        assert rerun.cache_stats == CacheStats(misses=rerun.dispatched_count)

    if edits_source:
        base = make.revert(base)
    reverted = base(cache)
    assert reverted.cache_stats == CacheStats(hits=cold.dispatched_count)
    assert reverted.same_results(cold)


@pytest.fixture()
def warm_cache(mutants, tmp_path):
    """A store filled by one cold run of the canonical configuration."""
    cache = MutationOutcomeCache(tmp_path)
    run_battery(mutants, cache)
    return cache


class TestComponentInvalidation:
    """The step budget, the one key input the sandbox reads."""

    def test_step_budget_invalidates(self, mutants, warm_cache):
        result = run_battery(mutants, warm_cache, step_budget=123_456)
        assert result.cache_stats == CacheStats(
            misses=result.dispatched_count)

    def test_revert_hits_the_original_entries_again(self, mutants,
                                                    warm_cache):
        run_battery(mutants, warm_cache, step_budget=123_456)
        reverted = run_battery(mutants, warm_cache)
        assert reverted.cache_stats == CacheStats(
            hits=reverted.dispatched_count)
        assert reverted.same_results(run_battery(mutants, None))


def _run_key(mutants, cache):
    return MutationAnalysis(
        CSortableObList, small_suite(limit=30), oracle=oracle(),
        triage_type_model=OBLIST_TYPE_MODEL, cache=cache,
    ).run_fingerprint(mutants)


def _overwrite(cache, key, offset, replacement):
    """Overwrite bytes of the run's record file, which is laid out as
    ``magic(8) crc32(4) payload``."""
    path = cache.directory / key
    data = path.read_bytes()
    path.write_bytes(data[:offset] + replacement
                     + data[offset + len(replacement):])


def _scribble_payload(cache, key):
    """Overwrite the start of the payload: the CRC check rejects it."""
    _overwrite(cache, key, 12, b"\x80garbage")


def _zero_payload(cache, key):
    _overwrite(cache, key, 12, b"\x00" * 16)


def _flip_crc(cache, key):
    """Invert the stored CRC: the intact payload no longer verifies."""
    crc = (cache.directory / key).read_bytes()[8:12]
    _overwrite(cache, key, 8, bytes(byte ^ 0xFF for byte in crc))


class TestCorruptEntries:
    """A present-but-unreadable run record is a miss, never a crash."""

    @pytest.mark.parametrize("damage", [
        _scribble_payload,
        _zero_payload,
        _flip_crc,
    ])
    def test_damaged_entry_is_a_miss_then_healed(self, damage, mutants,
                                                 warm_cache):
        damage(warm_cache, _run_key(mutants, warm_cache))
        result = run_battery(mutants, warm_cache)
        assert result.cache_stats == CacheStats(
            misses=result.dispatched_count, corrupt=1)
        # The rerun rewrote the record; the next run is warm again.
        healed = run_battery(mutants, warm_cache)
        assert healed.cache_stats == CacheStats(hits=result.dispatched_count)
        assert healed.same_results(result)

    def test_damage_survives_reopen_as_one_corrupt_miss(self, mutants,
                                                        warm_cache):
        # A fresh store object on the same directory finds the damaged
        # file under the run key, and the CRC rejects it.
        _scribble_payload(warm_cache, _run_key(mutants, warm_cache))
        reopened = MutationOutcomeCache(warm_cache.directory)
        result = run_battery(mutants, reopened)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.corrupt == 1

    def test_wrong_payload_type_is_corrupt(self, mutants, warm_cache):
        # A well-framed record (valid CRC) whose payload is not a
        # RunEntry: the typed read rejects it as corrupt.
        warm_cache.store_scenario(_run_key(mutants, warm_cache),
                                  {"not": "a RunEntry"})
        result = run_battery(mutants, warm_cache)
        assert result.cache_stats.corrupt == 1
        assert result.cache_stats.hits == 0

"""Invalidation semantics of the run record, and damaged records.

Content addressing means "invalidation" is not a deletion pass: changing
any input of the run key re-addresses the run, so the whole run misses
and executes again, and reverting the change hits the old record again.
Engine, worker count, batch size and telemetry are no key inputs and
hit.  Corrupt run records (scribbled payload, flipped CRC, wrong payload
type) are misses, never crashes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.harness.oracles import assertions_only_oracle
from repro.mutation.analysis import MutationAnalysis, analyze_mutants
from repro.mutation.cache import (
    _HEADER,
    _KEY_LENGTHS,
    _KIND_RUN,
    CacheStats,
    MutationOutcomeCache,
)
from repro.mutation.mutant import CompiledMutant, compile_mutant_function
from repro.obs import MemorySink, Telemetry

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


def options(**changed):
    return lambda battery, suite: (battery, suite, changed)


#: Each key input, changed: ``change(battery, suite)`` gives the battery,
#: suite and extra analysis options of the changed run.  The FindMin
#: battery reuses the FindMax battery's idents, so filling one cold store
#: with both is two cold misses, nothing more.
KEY_CHANGES = {
    "mutant-source": lambda battery, suite: (
        [perturbed_mutant(battery[0])] + battery[1:], suite, {}),
    "battery-order": lambda battery, suite: (battery[::-1], suite, {}),
    "case-value": lambda battery, suite: (
        battery, perturbed_suite(suite), {}),
    "oracle": options(oracle=assertions_only_oracle()),
    "stop-on-first-kill": options(stop_on_first_kill=False),
    "class-builder": options(class_builder=counting_builder),
    "prune": options(prune=False),
    "triage-off": options(static_triage=False),
    "triage-type-model": options(triage_type_model=None),
    "findmin-after-findmax": lambda battery, suite: (
        battery_of("FindMin")[:KEY_MUTANTS], suite, {}),
}

#: What a run may change and still hit: none of it is a key input.
NEUTRAL_CHANGES = {
    "pool2": options(workers=2),
    "pool2-batch1": options(workers=2, batch_size=1),
    "pool4": options(workers=4),
    "telemetry": lambda battery, suite: (
        battery, suite, {"telemetry": Telemetry(sink=MemorySink())}),
}


def run_battery(battery, cache, suite=None, **changed):
    settings = dict(oracle=oracle(), triage_type_model=OBLIST_TYPE_MODEL)
    settings.update(changed)
    return analyze_mutants(
        CSortableObList, suite if suite is not None else small_suite(limit=30),
        battery, cache=cache, **settings,
    )


@pytest.mark.parametrize("change", [*KEY_CHANGES, *NEUTRAL_CHANGES])
def test_run_key(change, mutants, tmp_path):
    """A changed key input misses the whole run, and reverting it hits
    again; a changed engine, worker count, batch size or telemetry hits."""
    battery = list(mutants)
    cache = MutationOutcomeCache(tmp_path)
    cold = run_battery(battery, cache)
    assert cold.cache_stats == CacheStats(misses=cold.dispatched_count)

    make = {**KEY_CHANGES, **NEUTRAL_CHANGES}[change]
    changed_battery, suite, changed = make(battery, small_suite(limit=30))
    rerun = run_battery(changed_battery, cache, suite=suite, **changed)
    if change in NEUTRAL_CHANGES:
        assert rerun.cache_stats == CacheStats(hits=rerun.dispatched_count)
        assert rerun.same_results(cold)
    else:
        assert rerun.cache_stats == CacheStats(misses=rerun.dispatched_count)

    reverted = run_battery(battery, cache)
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


def _payload_offset(cache, key):
    """File offset of the run record's pickled payload."""
    location = cache._indexes[_KIND_RUN][key]
    return location.offset + _HEADER.size + _KEY_LENGTHS[_KIND_RUN]


def _scribble_payload(cache, key):
    """Overwrite the start of the payload: the CRC check rejects it."""
    with open(cache.segment_path, "r+b") as handle:
        handle.seek(_payload_offset(cache, key))
        handle.write(b"\x80garbage")


def _zero_payload(cache, key):
    with open(cache.segment_path, "r+b") as handle:
        handle.seek(_payload_offset(cache, key))
        handle.write(b"\x00" * 16)


def _flip_crc(cache, key):
    """Invert the stored CRC: the intact payload no longer verifies."""
    location = cache._indexes[_KIND_RUN][key]
    with open(cache.segment_path, "r+b") as handle:
        handle.seek(location.offset + 8)   # <BBHII — crc is the last field
        crc = handle.read(4)
        handle.seek(location.offset + 8)
        handle.write(bytes(byte ^ 0xFF for byte in crc))


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
        # The rerun re-appended the record; the next run is warm again.
        healed = run_battery(mutants, warm_cache)
        assert healed.cache_stats == CacheStats(hits=result.dispatched_count)
        assert healed.same_results(result)

    def test_damage_survives_reopen_as_one_corrupt_miss(self, mutants,
                                                        warm_cache):
        # A fresh store object on the same directory rebuilds its index by
        # scan — structure is intact, so the damaged record is indexed,
        # and only the lookup-time CRC rejects it.
        _scribble_payload(warm_cache, _run_key(mutants, warm_cache))
        warm_cache.close()
        reopened = MutationOutcomeCache(warm_cache.directory)
        result = run_battery(mutants, reopened)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.corrupt == 1

    def test_wrong_payload_type_is_corrupt(self, mutants, warm_cache):
        # A well-framed record (valid CRC) whose payload is not a
        # RunEntry: the typed read rejects it as corrupt.
        warm_cache._append(_KIND_RUN, _run_key(mutants, warm_cache),
                           {"not": "a RunEntry"})
        result = run_battery(mutants, warm_cache)
        assert result.cache_stats.corrupt == 1
        assert result.cache_stats.hits == 0

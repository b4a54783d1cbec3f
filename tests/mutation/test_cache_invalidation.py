"""Invalidation semantics of the mutation-outcome cache.

Content addressing means "invalidation" is not a deletion pass: changing
any fingerprinted input simply re-addresses the affected entries, so they
miss (and the slot index reports them as *invalidations*, not cold
misses), while every untouched entry keeps hitting — and reverting the
change hits the original entries again.  Corrupt segment records (scribbled
payload, flipped CRC, wrong payload type) are misses, never crashes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import assertions_only_oracle, experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import (
    _HEADER,
    _KEY_LENGTHS,
    _KIND_OUTCOME,
    MutationOutcomeCache,
)
from repro.mutation.generate import build_battery, generate_mutants
from repro.mutation.mutant import CompiledMutant, compile_mutant_function

SEED = 20010701
MUTANT_COUNT = 8


def small_suite(seed: int = SEED):
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:30]
    return replace(suite, cases=relevant)


@pytest.fixture(scope="module")
def mutants():
    pool, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return pool[:MUTANT_COUNT]


@pytest.fixture()
def warm_cache(mutants, tmp_path):
    """A cache populated by one cold run of the canonical configuration."""
    cache = MutationOutcomeCache(tmp_path)
    MutationAnalysis(
        CSortableObList, small_suite(), oracle=experiment_oracle(
            CSortableObList.__tspec__
        ), cache=cache,
    ).analyze(mutants)
    return cache


def run(mutants, cache, *, suite=None, oracle=None, **options):
    analysis = MutationAnalysis(
        CSortableObList,
        suite if suite is not None else small_suite(),
        oracle=oracle or experiment_oracle(CSortableObList.__tspec__),
        cache=cache,
        **options,
    )
    return analysis.analyze(mutants)


def perturbed_mutant(mutant: CompiledMutant) -> CompiledMutant:
    """The same mutant with semantically-neutral but different source."""
    record = replace(
        mutant.record,
        mutated_source=mutant.record.mutated_source + "\n# touched",
    )
    return CompiledMutant(
        record, mutant.owner, compile_mutant_function(record, mutant.owner)
    )


class TestComponentInvalidation:
    """Each fingerprint component invalidates exactly the affected entries."""

    def test_one_mutant_source_change_misses_only_that_entry(
            self, mutants, warm_cache):
        edited = list(mutants)
        edited[0] = perturbed_mutant(mutants[0])
        result = run(edited, warm_cache)
        assert result.cache_stats.hits == len(mutants) - 1
        assert result.cache_stats.misses == 1
        # The slot index knows this mutant existed under another fingerprint.
        assert result.cache_stats.invalidations == 1

    def test_one_test_case_value_invalidates_the_suite_entries(
            self, mutants, warm_cache):
        suite = small_suite()
        case = suite.cases[0]
        step_index, step = next(
            (index, step) for index, step in enumerate(case.steps)
            if step.arguments and isinstance(step.arguments[0], int)
        )
        perturbed_step = replace(
            step, arguments=(step.arguments[0] + 1,) + step.arguments[1:]
        )
        perturbed_case = replace(
            case,
            steps=case.steps[:step_index]
            + (perturbed_step,)
            + case.steps[step_index + 1:],
        )
        perturbed = replace(suite, cases=(perturbed_case,) + suite.cases[1:])
        assert perturbed.fingerprint() != suite.fingerprint()

        # Every entry of this experiment ran under the old suite, so every
        # lookup misses — and each is an invalidation, not a cold miss.
        result = run(mutants, warm_cache, suite=perturbed)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.misses == len(mutants)
        assert result.cache_stats.invalidations == len(mutants)

    def test_oracle_configuration_invalidates(self, mutants, warm_cache):
        result = run(mutants, warm_cache, oracle=assertions_only_oracle())
        assert result.cache_stats.hits == 0
        assert result.cache_stats.invalidations == len(mutants)

    def test_step_budget_invalidates(self, mutants, warm_cache):
        result = run(mutants, warm_cache, step_budget=123_456)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.invalidations == len(mutants)

    def test_analysis_flags_invalidate(self, mutants, warm_cache):
        result = run(mutants, warm_cache, stop_on_first_kill=False)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.invalidations == len(mutants)

    def test_revert_hits_the_original_entries_again(self, mutants, warm_cache):
        run(mutants, warm_cache, step_budget=123_456)  # supersedes the slots
        reverted = run(mutants, warm_cache)
        assert reverted.cache_stats.hits == len(mutants)
        assert reverted.cache_stats.misses == 0

    def test_single_operator_batteries_share_no_slots(self, tmp_path):
        # Idents restart at M0001 in every battery, so two single-operator
        # batteries over one class reuse idents for different mutants.
        # Filling a fresh store with both is a first fill: every lookup is
        # a cold miss, none an invalidation.
        cache = MutationOutcomeCache(tmp_path)
        batteries = [
            build_battery(CSortableObList, ["FindMax"],
                          operator_names=[operator],
                          type_model=OBLIST_TYPE_MODEL,
                          max_mutants=MUTANT_COUNT)[0]
            for operator in ("IndVarRepGlob", "IndVarRepLoc")
        ]
        assert batteries[0][0].ident == batteries[1][0].ident
        for battery in batteries:
            result = run(battery, cache)
            assert result.cache_stats.misses == len(battery)
            assert result.cache_stats.invalidations == 0


def _payload_offset(cache, key):
    """File offset of the victim record's pickled payload."""
    location = cache._entries[key.entry]
    return location.offset + _HEADER.size + _KEY_LENGTHS[_KIND_OUTCOME]


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
    location = cache._entries[key.entry]
    with open(cache.segment_path, "r+b") as handle:
        handle.seek(location.offset + 8)   # <BBHII — crc is the last field
        crc = handle.read(4)
        handle.seek(location.offset + 8)
        handle.write(bytes(byte ^ 0xFF for byte in crc))


class TestCorruptEntries:
    """A present-but-unreadable segment record is a miss, never a crash."""

    def keys(self, mutants, cache):
        analysis = MutationAnalysis(
            CSortableObList, small_suite(),
            oracle=experiment_oracle(CSortableObList.__tspec__), cache=cache,
        )
        experiment = analysis.experiment_fingerprint()
        return [cache.key_for(experiment, mutant) for mutant in mutants]

    @pytest.mark.parametrize("damage", [
        _scribble_payload,
        _zero_payload,
        _flip_crc,
    ])
    def test_damaged_entry_is_a_miss_then_healed(self, damage, mutants,
                                                 warm_cache):
        victim = self.keys(mutants, warm_cache)[0]
        damage(warm_cache, victim)
        result = run(mutants, warm_cache)
        assert result.cache_stats.hits == len(mutants) - 1
        assert result.cache_stats.misses == 1
        assert result.cache_stats.corrupt == 1
        # The rerun re-appended the entry; the next run is fully warm again.
        healed = run(mutants, warm_cache)
        assert healed.cache_stats.hits == len(mutants)
        assert healed.cache_stats.corrupt == 0

    def test_damage_survives_reopen_as_one_corrupt_miss(self, mutants,
                                                        warm_cache):
        # A fresh cache object on the same directory rebuilds its index by
        # scan — structure is intact, so the damaged record is indexed,
        # and only the lookup-time CRC rejects it.
        victim = self.keys(mutants, warm_cache)[0]
        _scribble_payload(warm_cache, victim)
        warm_cache.close()
        reopened = MutationOutcomeCache(warm_cache.directory)
        result = run(mutants, reopened)
        assert result.cache_stats.hits == len(mutants) - 1
        assert result.cache_stats.corrupt == 1

    def test_wrong_payload_type_is_corrupt(self, mutants, warm_cache):
        import pickle

        # A well-framed record (valid CRC) whose payload is not a
        # CacheEntry: the typed read rejects it as corrupt.
        victim = self.keys(mutants, warm_cache)[0]
        location = warm_cache._append(
            _KIND_OUTCOME,
            (victim.entry + victim.slot).encode("ascii"),
            pickle.dumps({"not": "a CacheEntry"}),
        )
        warm_cache._entries[victim.entry] = location
        result = run(mutants, warm_cache)
        assert result.cache_stats.corrupt == 1
        assert result.cache_stats.hits == len(mutants) - 1

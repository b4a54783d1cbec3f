"""Property/stress tests for the v4 append-only segment store.

The store's robustness contract: one ``store.seg`` file, an in-memory
offset index rebuilt by scan on open, torn/garbage tails tolerated as
misses (never crashes), ``compact()`` preserves every live record and
drops every record a lookup rejects, records of the retired kinds stay
dead, and sequential sharers of one directory never clobber each other.
"""

from __future__ import annotations

import pickle
import zlib

import pytest

import repro.mutation.cache as cache_module
from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.core.fingerprint import sha256_hex
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import (
    _HEADER,
    _KIND_RUN,
    _MAGIC,
    CACHE_FORMAT_VERSION,
    SEGMENT_FILE,
    MutationOutcomeCache,
)
from repro.obs import MemorySink, Telemetry

from .test_cache import BUILD_CALLS, battery_of, counting_builder, oracle
from .test_cache import small_suite as cache_suite

MUTANT_COUNT = 10


def small_suite():
    return cache_suite(limit=30)


@pytest.fixture(scope="module")
def mutants():
    return battery_of("FindMax")[:MUTANT_COUNT]


def _key(tag: str) -> str:
    return sha256_hex("segment-store-test", tag)


def analysis(cache, **options):
    return MutationAnalysis(CSortableObList, small_suite(), oracle=oracle(),
                            cache=cache, **options)


def run(mutants, cache, **options):
    return analysis(cache, **options).analyze(mutants)


class TestRoundTrip:
    """Write, reopen (index rebuilt by scan), read everything back."""

    def test_cold_then_reopen_is_fully_warm(self, mutants, tmp_path):
        cold = run(mutants, MutationOutcomeCache(tmp_path))
        assert cold.cache_stats.misses == len(mutants)
        assert (tmp_path / SEGMENT_FILE).is_file()
        # No v3 file-per-entry tree is ever written by a v4 store.
        assert not (tmp_path / "objects").exists()

        reopened = MutationOutcomeCache(tmp_path)
        warm = run(mutants, reopened)
        assert warm.same_results(cold)
        assert warm.cache_stats.hits == len(mutants)
        assert warm.cache_stats.misses == 0

    def test_live_records_and_bytes_reflect_the_segment(self, mutants,
                                                        tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        run(mutants, cache, static_triage=False)
        assert cache.live_records() == 1  # one record for the whole run
        assert cache.segment_bytes() == (
            (tmp_path / SEGMENT_FILE).stat().st_size
        )


class TestTailDamage:
    """Structural damage at the end of the segment is survived by scan."""

    def test_truncated_tail_loses_only_the_torn_record(self, mutants,
                                                       tmp_path):
        kept = run(mutants, MutationOutcomeCache(tmp_path),
                   static_triage=False)
        torn = run(mutants, MutationOutcomeCache(tmp_path),
                   static_triage=False, step_budget=123_456)
        segment = tmp_path / SEGMENT_FILE
        segment.write_bytes(segment.read_bytes()[:-10])  # tear the last record

        reopened = MutationOutcomeCache(tmp_path)
        assert reopened.live_records() == 1
        warm = run(mutants, reopened, static_triage=False)
        assert warm.cache_stats.hits == len(mutants)
        assert warm.same_results(kept)
        healed = run(mutants, reopened, static_triage=False,
                     step_budget=123_456)
        assert healed.same_results(torn)
        assert healed.cache_stats.misses == len(mutants)  # re-executed

        # The heal re-appended it (truncating the dead tail first).
        assert MutationOutcomeCache(tmp_path).live_records() == 2

    def test_garbage_tail_keeps_every_record_live(self, mutants, tmp_path):
        cold = run(mutants, MutationOutcomeCache(tmp_path))
        segment = tmp_path / SEGMENT_FILE
        with open(segment, "ab") as handle:
            handle.write(b"\xff" * 37)  # structurally invalid appendage

        warm = run(mutants, MutationOutcomeCache(tmp_path))
        assert warm.same_results(cold)
        assert warm.cache_stats.hits == len(mutants)
        assert warm.cache_stats.misses == 0

    def test_alien_file_degrades_to_no_caching(self, mutants, tmp_path):
        segment = tmp_path / SEGMENT_FILE
        segment.write_bytes(b"definitely not a segment store")
        before = segment.read_bytes()
        result = run(mutants, MutationOutcomeCache(tmp_path))
        # Every lookup misses, the run completes, and the store NEVER
        # appends into (or truncates) a file it does not recognize.
        assert result.cache_stats.misses == len(mutants)
        assert segment.read_bytes() == before

    def test_empty_file_is_adopted(self, mutants, tmp_path):
        (tmp_path / SEGMENT_FILE).write_bytes(b"")
        cold = run(mutants, MutationOutcomeCache(tmp_path))
        assert cold.cache_stats.misses == len(mutants)
        warm = run(mutants, MutationOutcomeCache(tmp_path))
        assert warm.cache_stats.hits == len(mutants)


class TestCompaction:
    """compact() drops dead weight but never a live verdict."""

    def test_compaction_preserves_all_live_verdicts(self, mutants, tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        BUILD_CALLS["count"] = 0
        cold = MutationAnalysis(
            CSortableObList, small_suite(), oracle=oracle(),
            class_builder=counting_builder, cache=cache,
        ).analyze(mutants)
        assert BUILD_CALLS["count"] == len(mutants)
        report = cache.compact()
        assert report.records_dropped == 0  # nothing was superseded

        BUILD_CALLS["count"] = 0
        warm = MutationAnalysis(
            CSortableObList, small_suite(), oracle=oracle(),
            class_builder=counting_builder,
            cache=MutationOutcomeCache(tmp_path),
        ).analyze(mutants)
        assert warm.cache_stats.hits == len(mutants)
        assert BUILD_CALLS["count"] == 0  # still executes zero mutants
        assert warm.same_results(cold)

    def test_compaction_drops_superseded_duplicates(self, mutants, tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        run(mutants, cache, static_triage=False)
        key = analysis(cache, static_triage=False).run_fingerprint(mutants)
        entry, _ = cache.lookup(key)
        cache.store(key, entry.verdicts, entry.triage)  # duplicate
        before = (tmp_path / SEGMENT_FILE).stat().st_size

        report = cache.compact()
        assert report.records_kept == 1
        assert report.records_dropped == 1
        assert (tmp_path / SEGMENT_FILE).stat().st_size < before
        assert MutationOutcomeCache(tmp_path).lookup(key)[0] == entry

    def test_compaction_keeps_other_experiments_entries(self, mutants,
                                                        tmp_path):
        # Two configurations share the store; compacting under one must
        # not drop the other's verdicts (reverting a change still hits).
        cache = MutationOutcomeCache(tmp_path)
        default = run(mutants, cache, static_triage=False)
        budgeted = run(mutants, cache, static_triage=False,
                       step_budget=123_456)
        assert budgeted.cache_stats.misses == len(mutants)
        assert cache.compact().records_kept == 2

        reverted = run(mutants, MutationOutcomeCache(tmp_path),
                       static_triage=False)
        assert reverted.cache_stats.hits == len(mutants)
        assert reverted.same_results(default)
        rebudgeted = run(mutants, MutationOutcomeCache(tmp_path),
                         static_triage=False, step_budget=123_456)
        assert rebudgeted.cache_stats.hits == len(mutants)

    def test_compaction_drops_damaged_records(self, mutants, tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        run(mutants, cache, static_triage=False)
        run(mutants, cache, static_triage=False, step_budget=123_456)
        key = analysis(cache, static_triage=False).run_fingerprint(mutants)
        location = cache._indexes[_KIND_RUN][key]
        with open(cache.segment_path, "r+b") as handle:
            handle.seek(location.offset + location.length - 8)
            handle.write(b"\x00" * 8)

        report = cache.compact()
        assert report.records_kept == 1
        assert report.records_dropped == 1
        result = run(mutants, MutationOutcomeCache(tmp_path),
                     static_triage=False)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.misses == len(mutants)
        assert result.cache_stats.corrupt == 0  # dropped, not damaged
        budgeted = run(mutants, MutationOutcomeCache(tmp_path),
                       static_triage=False, step_budget=123_456)
        assert budgeted.cache_stats.hits == len(mutants)

    def test_compaction_drops_version_skewed_scenario_records(
            self, tmp_path, monkeypatch):
        # A well-framed scenario record (valid CRC) from another layout
        # version is a corrupt miss on lookup, so compaction drops it too.
        live, skewed = _key("live"), _key("skewed")
        cache = MutationOutcomeCache(tmp_path)
        cache.store_scenario(live, {"ident": "live"})
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_FORMAT_VERSION",
                          CACHE_FORMAT_VERSION - 1)
            cache.store_scenario(skewed, {"ident": "skewed"})

        report = cache.compact()
        assert report.records_kept == 1
        assert report.records_dropped == 1
        reopened = MutationOutcomeCache(tmp_path)
        assert reopened.lookup_scenario(live) == {"ident": "live"}
        assert reopened.lookup_scenario(skewed) is None
        assert reopened.scenario_stats()["corrupt"] == 0  # gone, not damaged


class TestSequentialSharers:
    """Two cache objects on one directory never clobber each other."""

    def test_second_engine_reads_the_firsts_records(self, mutants, tmp_path):
        cold = run(mutants, MutationOutcomeCache(tmp_path))
        warm = run(mutants, MutationOutcomeCache(tmp_path))
        assert warm.same_results(cold)
        assert warm.cache_stats.hits == len(mutants)

    def test_stale_sharer_appends_without_clobbering(self, mutants, tmp_path):
        # The second object scanned the directory while it was still
        # empty; when it later appends, it must catch up on the first
        # object's records instead of overwriting them.
        first = MutationOutcomeCache(tmp_path)
        stale = MutationOutcomeCache(tmp_path)
        assert stale.live_records() == 0  # scanned before anything existed

        cold = run(mutants, first, static_triage=False)
        # The stale index misses until its first append, whose catch-up
        # absorbs the first object's records (so later lookups may hit).
        rerun = run(mutants, stale, static_triage=False)
        assert rerun.same_results(cold)
        assert rerun.cache_stats.misses >= 1
        assert (rerun.cache_stats.hits + rerun.cache_stats.misses
                == len(mutants))

        # Nothing was lost: a fresh reader sees one live copy of the run.
        fresh = MutationOutcomeCache(tmp_path)
        assert fresh.live_records() == 1
        warm = run(mutants, fresh, static_triage=False)
        assert warm.cache_stats.hits == len(mutants)

    def test_triage_and_outcomes_share_the_segment(self, mutants, tmp_path):
        # With static triage on, the one run record holds the triage
        # beside the verdicts.
        cache = MutationOutcomeCache(tmp_path)
        cold = run(mutants, cache, triage_type_model=OBLIST_TYPE_MODEL)
        assert cold.triage is not None and cache.live_records() == 1
        warm = run(mutants, MutationOutcomeCache(tmp_path),
                   triage_type_model=OBLIST_TYPE_MODEL)
        assert warm.cache_stats.hits == len(mutants)
        assert warm.triage == cold.triage

    def test_torn_tail_found_while_catching_up_is_counted(self, tmp_path):
        # A dead tail counts one ``cache.segment_torn`` whether the scan
        # on open finds it or a sharer's catch-up before an append does.
        telemetry = Telemetry(sink=MemorySink())
        first = MutationOutcomeCache(tmp_path, telemetry=telemetry)
        first.store_scenario(_key("first"), {"ident": "first"})
        second = MutationOutcomeCache(tmp_path)
        second.store_scenario(_key("second"), {"ident": "second"})
        second.close()
        with open(tmp_path / SEGMENT_FILE, "ab") as handle:
            handle.write(b"\xff" * 37)  # structurally invalid appendage

        reopened = Telemetry(sink=MemorySink())
        MutationOutcomeCache(tmp_path, telemetry=reopened).live_records()
        assert reopened.counters().get("cache.segment_torn", 0) == 1

        first.store_scenario(_key("third"), {"ident": "third"})
        assert telemetry.counters().get("cache.segment_torn", 0) == 1
        first.close()
        # The catch-up kept the second sharer's record; the append
        # replaced the garbage.
        final = MutationOutcomeCache(tmp_path)
        assert final.live_records() == 3
        assert final.lookup_scenario(_key("second")) == {"ident": "second"}
        assert final.lookup_scenario(_key("third")) == {"ident": "third"}


def _framed(kind: int, key: str, payload: bytes) -> bytes:
    """One segment record, framed by hand."""
    body = key.encode("ascii") + payload
    return _HEADER.pack(kind, 0, len(key), len(payload),
                        zlib.crc32(body) & 0xFFFFFFFF) + body


class TestRetiredKinds:
    """Stores written before the run kind existed still open."""

    def test_retired_records_are_dead_and_compacted_away(self, tmp_path):
        # A scenario record, framed by the store itself, behind one record
        # of each retired kind: per-mutant outcome (1), per-mutant triage
        # verdict (2) and slot pin (3).
        source = MutationOutcomeCache(tmp_path / "source")
        source.store_scenario(_key("scenario"), {"ident": "scenario"})
        source.close()
        scenario = source.segment_path.read_bytes()[len(_MAGIC):]
        retired = (_framed(1, _key("entry") + _key("slot"),
                           pickle.dumps({"outcome": "retired"}))
                   + _framed(2, _key("triage"), pickle.dumps(("x", "y")))
                   + _framed(3, _key("slot") + _key("entry"), b""))
        store = tmp_path / "store"
        store.mkdir()
        (store / SEGMENT_FILE).write_bytes(_MAGIC + retired + scenario)

        cache = MutationOutcomeCache(store)
        assert cache.live_records() == 1  # the retired records are dead
        assert cache.lookup_scenario(_key("scenario")) == {"ident": "scenario"}
        # A run record appended behind them survives a reopen: the scan
        # stepped over the retired kinds instead of stopping as if torn.
        cache.store(_key("run"), (("verdict",),), None)
        cache.close()
        reopened = MutationOutcomeCache(store)
        assert reopened.live_records() == 2
        assert reopened.lookup(_key("run"))[0].verdicts == (("verdict",),)

        size = (store / SEGMENT_FILE).stat().st_size
        report = reopened.compact()
        assert (report.records_before, report.records_kept,
                report.records_dropped) == (5, 2, 3)
        assert (store / SEGMENT_FILE).stat().st_size == size - len(retired)
        compacted = MutationOutcomeCache(store)
        assert compacted.lookup_scenario(_key("scenario")) == {
            "ident": "scenario"}
        assert compacted.lookup(_key("run"))[0].verdicts == (("verdict",),)

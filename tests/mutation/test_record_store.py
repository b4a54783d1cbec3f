"""The store's contract: one file per record, named by its address.

A record round-trips across store objects on one directory, one run
record holds the triage beside the verdicts, and only record files are
counted.  A second object sees the first one's records at once, made
before or after they were written, and clobbers none of them.  Each kind
of damage to a record file is one ``corrupt`` miss that the rerun's store
heals.  A failed write is counted, never raised, and leaves no temp or
record file; a half-written record leaves every file as it was; a
``--cache-dir`` that names a regular file only misses.  An older
store's v4 segment file is never read, counted or touched.  Two cold
fills write the same files, and writers on two threads leave every
record whole.

The layout the damage helpers rely on is the module docstring's:
``magic(8) crc32(4, little-endian) payload``.
"""

from __future__ import annotations

import errno
import filecmp
import pickle
import re
import struct
import sys
import threading
import time
import zlib
from dataclasses import replace

import pytest

import repro.mutation.cache as cache_module
from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.core.fingerprint import sha256_hex
from repro.experiments.table2 import main as table2_main
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import (
    CACHE_FORMAT_VERSION,
    CacheStats,
    MutationOutcomeCache,
)
from repro.obs import MemorySink, Telemetry

from .test_cache import battery_of, oracle
from .test_cache import small_suite as cache_suite

MUTANT_COUNT = 10


@pytest.fixture(scope="module")
def mutants():
    return battery_of("FindMax")[:MUTANT_COUNT]


def analysis(cache, **options):
    return MutationAnalysis(CSortableObList, cache_suite(limit=30),
                            oracle=oracle(), cache=cache,
                            triage_type_model=OBLIST_TYPE_MODEL, **options)


def run(mutants, cache, **options):
    return analysis(cache, **options).analyze(mutants)


def _key(tag: str) -> str:
    return sha256_hex("record-store-test", tag)


def _names(directory):
    """Every file in ``directory``, temp files included."""
    return sorted(path.name for path in directory.iterdir())


class TestRoundTrip:

    def test_reopened_store_is_fully_warm(self, mutants, tmp_path):
        cold = run(mutants, MutationOutcomeCache(tmp_path))
        key = analysis(None).run_fingerprint(mutants)
        assert _names(tmp_path) == [key]  # one file, named by the run key

        warm = run(mutants, MutationOutcomeCache(tmp_path))
        assert warm.cache_stats == CacheStats(hits=cold.dispatched_count)
        assert warm.same_results(cold)

    def test_live_records_and_bytes_count_record_files(self, mutants,
                                                       tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        run(mutants, cache)
        cache.store_scenario(_key("scenario"), {"ident": "scenario"})
        # Neither a leftover temp file nor a foreign file is a record.
        (tmp_path / f".{_key('torn')}.1.2.tmp").write_bytes(b"half")
        (tmp_path / "notes.txt").write_bytes(b"not a record")

        records = [tmp_path / analysis(None).run_fingerprint(mutants),
                   tmp_path / _key("scenario")]
        assert cache.live_records() == len(records)
        assert cache.segment_bytes() == sum(
            record.stat().st_size for record in records)

    def test_triage_is_stored_in_the_run_record(self, mutants, tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        cold = run(mutants, cache)
        assert cold.triage is not None and cache.live_records() == 1

        warm = run(mutants, MutationOutcomeCache(tmp_path))
        assert warm.cache_stats == CacheStats(hits=cold.dispatched_count)
        assert warm.triage == cold.triage


class TestSharers:
    """Two store objects on one directory, the second made before or
    after the first one writes: each reads the other's records at once,
    and neither clobbers them."""

    @pytest.mark.parametrize("second_made", ["before", "after"])
    def test_second_store_reads_the_firsts_records(self, second_made,
                                                   mutants, tmp_path):
        first = MutationOutcomeCache(tmp_path)
        early = MutationOutcomeCache(tmp_path)
        cold = run(mutants, first)
        first.store_scenario(_key("first"), {"ident": "first"})
        second = (early if second_made == "before"
                  else MutationOutcomeCache(tmp_path))

        warm = run(mutants, second)
        assert warm.cache_stats == CacheStats(hits=cold.dispatched_count)
        assert warm.same_results(cold)
        assert second.lookup_scenario(_key("first")) == {"ident": "first"}

        second.store_scenario(_key("second"), {"ident": "second"})
        assert first.lookup_scenario(_key("second")) == {"ident": "second"}
        fresh = MutationOutcomeCache(tmp_path)
        assert fresh.live_records() == 3
        assert fresh.lookup_scenario(_key("first")) == {"ident": "first"}
        assert run(mutants, fresh).cache_stats == CacheStats(
            hits=cold.dispatched_count)


def _rewrite(path, change):
    path.write_bytes(change(path.read_bytes()))


def _truncate(directory, key):
    _rewrite(directory / key, lambda data: data[:len(data) // 2])


def _scribble_payload(directory, key):
    _rewrite(directory / key,
             lambda data: data[:12] + b"\x80garbage" + data[20:])


def _flip_crc(directory, key):
    _rewrite(directory / key, lambda data: (
        data[:8] + bytes(byte ^ 0xFF for byte in data[8:12]) + data[12:]))


def _v4_magic(directory, key):
    _rewrite(directory / key, lambda data: b"RMOC0004" + data[8:])


def _scenario_under_the_run_key(directory, key):
    MutationOutcomeCache(directory).store_scenario(key, {"ident": "other"})


def _copied_from_another_address(directory, key):
    cache = MutationOutcomeCache(directory)
    entry, _ = cache.lookup(key)
    cache.store(_key("other"), entry.verdicts, entry.triage)
    (directory / key).write_bytes((directory / _key("other")).read_bytes())


def _older_version(directory, key):
    """The same entry at the previous layout version, framed intact."""
    entry, _ = MutationOutcomeCache(directory).lookup(key)
    payload = pickle.dumps(replace(entry, version=CACHE_FORMAT_VERSION - 1))
    (directory / key).write_bytes(
        b"RMOC0005" + struct.pack("<I", zlib.crc32(payload)) + payload)


class TestDamagedRecords:
    """A present but unloadable record file is a miss, never a crash."""

    @pytest.mark.parametrize("damage", [
        _truncate,
        _scribble_payload,
        _flip_crc,
        _v4_magic,
        _scenario_under_the_run_key,
        _copied_from_another_address,
        _older_version,
    ], ids=["truncated", "scribbled", "flipped-crc", "v4-magic",
            "wrong-type", "other-address", "older-version"])
    def test_damage_is_one_corrupt_miss(self, damage, mutants, tmp_path):
        cold = run(mutants, MutationOutcomeCache(tmp_path))
        damage(tmp_path, analysis(None).run_fingerprint(mutants))

        cache = MutationOutcomeCache(tmp_path)
        rerun = run(mutants, cache)
        assert rerun.cache_stats == CacheStats(
            misses=cold.dispatched_count, corrupt=1)
        assert rerun.same_results(cold)
        # The rerun's store overwrote the damaged file.
        healed = run(mutants, MutationOutcomeCache(tmp_path))
        assert healed.cache_stats == CacheStats(hits=cold.dispatched_count)

    def test_damaged_scenario_record_is_corrupt(self, tmp_path):
        telemetry = Telemetry(sink=MemorySink())
        cache = MutationOutcomeCache(tmp_path, telemetry=telemetry)
        cache.store_scenario(_key("scenario"), {"ident": "scenario"})
        _truncate(tmp_path, _key("scenario"))

        assert cache.lookup_scenario(_key("scenario")) is None
        assert cache.scenario_stats() == {
            "hits": 0, "misses": 1, "stores": 1, "corrupt": 1}
        assert telemetry.counters()["cache.scenario_corrupt"] == 1
        cache.store_scenario(_key("scenario"), {"ident": "scenario"})
        assert cache.lookup_scenario(_key("scenario")) == {
            "ident": "scenario"}


class _FullDisk:
    """A record file whose second write, the payload, lands half and
    then fails as a full disk does."""

    def __init__(self, real):
        self._real = real
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes == 1:
            return self._real.write(data)
        self._real.write(data[:len(data) // 2])
        self._real.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._real.close()


def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedWrites:

    @pytest.mark.parametrize("fault", ["write", "replace"])
    def test_enospc_is_counted_and_never_raised(self, fault, tmp_path,
                                                monkeypatch):
        telemetry = Telemetry(sink=MemorySink())
        cache = MutationOutcomeCache(tmp_path, telemetry=telemetry)
        cache.store_scenario(_key("kept"), {"ident": "kept"})
        before = _names(tmp_path)

        with monkeypatch.context() as patch:
            if fault == "write":
                patch.setattr(cache_module, "open", raising=False,
                              value=lambda *args: _FullDisk(open(*args)))
            else:
                patch.setattr(cache_module.os, "replace", _enospc)
            cache.store_scenario(_key("lost"), {"ident": "lost"})
            cache.store(_key("lost-run"), (), None)
        assert cache.write_errors == 2
        assert telemetry.counters()["cache.write_error"] == 2
        assert _names(tmp_path) == before  # no temp file, no record file
        assert cache.lookup_scenario(_key("kept")) == {"ident": "kept"}
        assert cache.lookup_scenario(_key("lost")) is None

        # The disk recovered: the next store simply succeeds.
        cache.store_scenario(_key("lost"), {"ident": "lost"})
        reopened = MutationOutcomeCache(tmp_path)
        assert reopened.lookup_scenario(_key("lost")) == {"ident": "lost"}
        assert cache.write_errors == 2

    def test_half_written_record_changes_nothing(self, tmp_path,
                                                 monkeypatch):
        cache = MutationOutcomeCache(tmp_path)
        cache.store_scenario(_key("kept"), {"ident": "kept"})
        before = {name: (tmp_path / name).read_bytes()
                  for name in _names(tmp_path)}

        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "open", raising=False,
                          value=lambda *args: _FullDisk(open(*args)))
            # Half of a new version of a stored record, and half of a
            # record at a new address, reach the disk.
            cache.store_scenario(_key("kept"),
                                 {"ident": "kept", "blob": "x" * 4096})
            cache.store_scenario(_key("lost"), {"ident": "lost"})
        assert {name: (tmp_path / name).read_bytes()
                for name in _names(tmp_path)} == before

        fresh = MutationOutcomeCache(tmp_path)
        assert fresh.lookup_scenario(_key("kept")) == {"ident": "kept"}
        assert fresh.lookup_scenario(_key("lost")) is None
        assert fresh.scenario_stats()["corrupt"] == 0

    def test_directory_that_is_a_file_only_misses(self, mutants, tmp_path):
        path = tmp_path / "a-file"
        path.write_bytes(b"not a directory")
        cache = MutationOutcomeCache(path)
        fresh = run(mutants, None)
        for attempt in (1, 2):
            result = run(mutants, cache)
            assert result.cache_stats == CacheStats(
                misses=fresh.dispatched_count)
            assert result.same_results(fresh)
            assert cache.write_errors == attempt
        assert (cache.live_records(), cache.segment_bytes()) == (0, 0)
        assert path.read_bytes() == b"not a directory"

    def test_cache_dir_naming_a_file_never_crashes(self, tmp_path, capsys):
        path = tmp_path / "a-file"
        path.write_bytes(b"not a directory")
        assert table2_main([
            "--no-equivalence", "--methods", "FindMax", "--max-cases", "20",
            "--cache-dir", str(path), "--cache-stats", "--obs-summary",
        ]) == 0
        output = capsys.readouterr().out
        assert re.search(r"^cache: 0 hits, [1-9]\d* misses \(0 corrupt\)",
                         output, re.M), output
        assert re.search(r"^obs cache\.write_error +1$", output, re.M)
        assert path.read_bytes() == b"not a directory"


def test_older_segment_file_is_never_read_counted_or_touched(mutants,
                                                             tmp_path):
    segment = tmp_path / "store.seg"
    segment.write_bytes(b"RMOC0004" + bytes(range(256)) * 4)
    before = segment.read_bytes()

    cold = run(mutants, MutationOutcomeCache(tmp_path))
    assert cold.cache_stats == CacheStats(misses=cold.dispatched_count)
    cache = MutationOutcomeCache(tmp_path)
    assert run(mutants, cache).cache_stats == CacheStats(
        hits=cold.dispatched_count)
    key = analysis(None).run_fingerprint(mutants)
    assert cache.live_records() == 1
    assert cache.segment_bytes() == (tmp_path / key).stat().st_size
    assert segment.read_bytes() == before


def test_two_cold_fills_write_the_same_files(mutants, tmp_path):
    for store in ("a", "b"):
        run(mutants, MutationOutcomeCache(tmp_path / store))
    names = _names(tmp_path / "a")
    assert names == _names(tmp_path / "b") and len(names) == 1
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert (match, mismatch, errors) == (names, [], [])


def test_concurrent_writers_leave_every_record_whole(tmp_path):
    """Two store objects on two threads write one shared address and one
    address each, over and over, while a third object reads: every read
    is a whole record or none, and no temp file is left."""
    shared, rounds = _key("shared"), 25
    payloads = {key: {"ident": key, "blob": key * 2000}
                for key in (shared, _key("left"), _key("right"))}
    writers = [MutationOutcomeCache(tmp_path) for _ in range(2)]
    start = threading.Barrier(len(writers))

    def write(cache, own):
        start.wait(timeout=60)
        for _ in range(rounds):
            cache.store_scenario(shared, payloads[shared])
            cache.store_scenario(own, payloads[own])

    threads = [threading.Thread(target=write, args=(cache, own))
               for cache, own in zip(writers, (_key("left"), _key("right")))]
    reader = MutationOutcomeCache(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        while (any(thread.is_alive() for thread in threads)
               and time.monotonic() < deadline):
            assert reader.lookup_scenario(shared) in (None, payloads[shared])
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert reader.scenario_stats()["corrupt"] == 0
    assert [cache.write_errors for cache in writers] == [0, 0]
    assert _names(tmp_path) == sorted(payloads)
    for key, payload in payloads.items():
        assert MutationOutcomeCache(tmp_path).lookup_scenario(key) == payload

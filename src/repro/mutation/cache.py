"""Incremental mutation analysis: a content-addressed store of whole runs.

The paper's evaluation (Tables 1-3) re-executes every mutant's full test
sequence on every run, even when nothing changed between invocations.
This module removes that redundancy at the grain the paper reuses test
results (sec. 3.4.2, whole transactions of a derived class): one record
per analysis run, replayed when the run is repeated on identical inputs.

**Key anatomy.**  A run record is addressed by the SHA-256 of every input
that can change one of the run's verdicts:

* the **experiment** (:func:`experiment_fingerprint`) — the original
  class (identity + source hash), the suite
  (:meth:`~repro.generator.suite.TestSuite.fingerprint`, a content hash
  over every case's steps, argument values and seed), the oracle
  configuration, the class builder, the sandbox step budget, the
  ``stop_on_first_kill`` flag, the setup hook, the pruning flag plus the
  content hash of the recorded coverage matrix
  (:meth:`~repro.mutation.coverage.CoverageMatrix.fingerprint`), and the
  cache *key* version;
* the **battery**, in order — each mutant's :func:`mutant_fingerprint`
  (its full record, crucially the mutated source, and its owner);
* the **triage setting** — static triage on or off, and the canonical
  type model it folds under.

Change any of them — one mutant's source, the battery's order, one
test-case value, one oracle flag, the budget — and the whole run misses
and re-executes; reverting the change hits the old record again.  Engine,
worker count, batch size and telemetry are not inputs, so runs that
differ only there share one record.

**Cached ≡ fresh.**  The payload holds, per mutant in battery order, every
field of its :class:`~repro.mutation.analysis.MutantOutcome` but the mutant
record (the battery in hand supplies it) plus its sandbox-timeout count,
and the run's :class:`~repro.mutation.triage.StaticTriage`.  A warm run
therefore assembles a :class:`~repro.mutation.analysis.MutationRun` that
passes ``same_results`` against a cold run without triaging or executing
anything — the warm cells of the configuration-invariance lattice
(``tests/mutation/test_config_lattice.py``) enforce this for serial and
parallel engines alike, each replaying a store another configuration
filled.  No timing is stored, so two cold fills write identical bytes.  A
run holding a worker-boundary kill (``WORKER_CRASH``/``WALL_TIMEOUT``) is
never stored: those depend on wall-clock and process scheduling, not on
the fingerprinted inputs.  A run that does not finish stores nothing.

**The segment store (format v4).**  Records live in ONE append-only file,
``store.seg``.  Layout::

    store.seg := MAGIC(8) record*
    record    := header(12) key payload
    header    := kind:u8 flags:u8 key_len:u16 payload_len:u32 crc32:u32
    kind 4    := scenario — key = scenario_fp(64),
                            payload = pickled ScenarioEntry (a whole
                            sweep ScenarioResult projection; see
                            repro.scenarios.sweep)
    kind 5    := run      — key = run_fp(64), payload = pickled RunEntry

Kinds 1-3 (one outcome record per mutant, one triage record per mutant,
and the slot pins behind the old invalidation counter) are retired: the scan
still steps over them, since an unknown kind would end it as a torn tail,
but they are dead — never looked up, not counted as live, and dropped by
``compact()``.

``crc32`` covers ``key + payload``.  An in-memory offset index is rebuilt
by a single sequential scan on open; the scan checks *structure* only
(kind, key length, payload bounds) so a damaged payload stays isolated —
it is caught by the CRC at lookup time and counted as a ``corrupt`` miss.
A torn or garbage tail (structural damage) ends the scan: records before
it stay live, records after it are misses, and the next append
truncates the dead tail.  Appends are flushed per store so sequential
sharers (a second engine, a later process) see every record; concurrent
*writers* need one process to go last — within a run only the parent
ever writes.

``compact()`` rewrites the segment keeping exactly the live records (the
latest record per content address), dropping superseded duplicates,
retired kinds and unreadable records.  Records of *different* experiment
configurations are all live — reverting a configuration change must keep
hitting its old record — so compaction never loses a verdict.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple,
)

from ..core.fingerprint import canonical, sha256_hex
from ..obs import Telemetry, coalesce

if TYPE_CHECKING:  # imported lazily to keep cache <- analysis acyclic
    from ..generator.suite import TestSuite
    from ..harness.oracles import CompositeOracle
    from .mutant import CompiledMutant
    from .triage import StaticTriage

#: Version of the *fingerprint recipe* — part of every content address.
#: Bumping it changes every address, which orphans every record in every
#: existing store: bump it only when the addressing inputs change.
CACHE_KEY_VERSION = 3

#: Version of the *store layout* (record framing, entry payloads).
#: v2: ``MutantOutcome`` grew ``cases_skipped`` and the experiment
#: fingerprint grew the pruning flag + coverage-matrix hash.
#: v3: ``MutantOutcome`` grew ``static_status`` and the store gained the
#: content-addressed static-triage verdicts.
#: v4: the file-per-entry tree became the append-only segment file; v3
#: directories are not read.  The scenario (4) and run (5) kinds were
#: added to v4 without a bump, as new kinds that leave the framing alone.
CACHE_FORMAT_VERSION = 4

#: The segment file's name under the cache directory.
SEGMENT_FILE = "store.seg"

_MAGIC = b"RMOC0004"
_HEADER = struct.Struct("<BBHII")  # kind, flags, key_len, payload_len, crc32
#: Scenario (4) and run (5) records are *additive* extensions of the v4
#: layout: the record framing is untouched, so CACHE_FORMAT_VERSION stays
#: 4.  (An older reader treats the first record of a kind it does not
#: know as a torn tail — the damage mode the format already tolerates.)
_KIND_SCENARIO = 4
_KIND_RUN = 5
_FINGERPRINT_LENGTH = 64
#: Key length per record kind.  Kinds 1-3 are retired (per-mutant outcome,
#: per-mutant triage verdict, slot pin); their lengths stay so a scan
#: steps over them in stores written before the run kind existed.
_KEY_LENGTHS = {
    1: 2 * _FINGERPRINT_LENGTH,
    2: _FINGERPRINT_LENGTH,
    3: 2 * _FINGERPRINT_LENGTH,
    _KIND_SCENARIO: _FINGERPRINT_LENGTH,
    _KIND_RUN: _FINGERPRINT_LENGTH,
}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def experiment_fingerprint(original_class: type,
                           suite: "TestSuite",
                           oracle: Optional["CompositeOracle"],
                           class_builder: Optional[Callable],
                           step_budget: int,
                           stop_on_first_kill: bool,
                           setup: Optional[Callable] = None,
                           prune: bool = False,
                           coverage_fingerprint: str = "") -> str:
    """Hash of everything mutants of one analysis configuration share.

    Computed once per ``analyze`` call and combined with the battery's
    mutant fingerprints to address its run record.  ``oracle=None`` and an
    explicitly passed default oracle hash identically only if they are
    *structurally* equal — callers pass the effective oracle, not the
    constructor arg.
    ``prune``/``coverage_fingerprint`` bind pruned outcomes to the exact
    coverage matrix that licensed their skipped cases (unpruned runs pass
    ``False``/``""``), keeping pruned and unpruned records disjoint.
    """
    return sha256_hex(
        "experiment",
        f"v{CACHE_KEY_VERSION}",
        canonical(original_class),
        suite.fingerprint(),
        canonical(oracle),
        canonical(class_builder),
        canonical(step_budget),
        canonical(stop_on_first_kill),
        canonical(setup),
        canonical(prune),
        coverage_fingerprint,
    )


def mutant_fingerprint(mutant: "CompiledMutant") -> str:
    """Hash of one mutant: full record (incl. mutated source) + owner."""
    return sha256_hex(
        "mutant", canonical(mutant.owner), canonical(mutant.record)
    )


def run_fingerprint(experiment: str, mutants: Sequence["CompiledMutant"],
                    triage: str) -> str:
    """Address of one analysis run: the experiment, the battery in
    order, and the triage setting (``triage`` is its canonical form)."""
    return sha256_hex("run", experiment,
                      *(mutant_fingerprint(mutant) for mutant in mutants),
                      triage)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """One run's store counters, surfaced on ``MutationRun.cache_stats``.

    ``hits`` and ``misses`` count the mutants the run would dispatch (those
    static triage does not skip): every one hits when the run's record is
    found, and every one misses otherwise.  ``corrupt`` counts the run
    records the lookup found but could not load (damaged record,
    unpicklable payload, version skew) — those are misses too.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def format(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.corrupt} corrupt) — hit rate {self.hit_rate:.1%}"
        )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunEntry:
    """One stored analysis run.

    ``verdicts`` holds one tuple per mutant, in battery order: the fields
    of its outcome but the mutant record, then its step-timeout count
    (the analysis packs and unpacks them).  ``triage`` is the run's static
    triage (``None`` with triage off).
    """

    version: int
    fingerprint: str           # the run address this payload was stored under
    verdicts: Tuple[Tuple[Any, ...], ...]
    triage: Optional["StaticTriage"]


@dataclass(frozen=True)
class ScenarioEntry:
    """One stored sweep scenario result.

    The payload is the scenario's *full* deterministic projection
    (``ScenarioResult.to_dict(timings=True)``) as plain JSON-compatible
    data — storing the projection rather than live objects keeps the
    record format independent of analysis-object pickling details, and
    the sweep runner already knows how to rebuild a ``ScenarioResult``
    from it (the same round-trip the report reader uses).
    """

    version: int
    fingerprint: str
    payload: Dict[str, Any]


#: Each live record kind's entry type and telemetry counter prefix.  The
#: insertion order (run, scenario) is the order ``compact()`` writes the
#: kinds in.
_DATA_KINDS = {
    _KIND_RUN: (RunEntry, "cache."),
    _KIND_SCENARIO: (ScenarioEntry, "cache.scenario_"),
}


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`MutationOutcomeCache.compact` pass did."""

    records_before: int
    records_kept: int
    records_dropped: int
    bytes_before: int
    bytes_after: int

    def format(self) -> str:
        return (
            f"{self.records_kept} live records kept, "
            f"{self.records_dropped} dropped — "
            f"{self.bytes_before} → {self.bytes_after} bytes"
        )


class _Location:
    """Offset/length of one record in the segment (a compact value)."""

    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int):
        self.offset = offset
        self.length = length


class MutationOutcomeCache:
    """Content-addressed, on-disk store of analysis runs and sweep scenarios.

    Format v4: one append-only segment file (``store.seg``) plus an
    in-memory offset index rebuilt by scan on open — see the module
    docstring for the record format and robustness rules.  The same
    directory may be shared by serial and parallel runs, by different
    experiments (tables 2 and 3, sweeps) and by sequential engines in one
    process: records are pure content addresses and never collide across
    configurations.
    """

    def __init__(self, directory,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._directory = Path(directory)
        # Lifetime counters per data kind: the run kind's are telemetry
        # only (each run derives its CacheStats from its own lookup); the
        # scenario kind's are also reported by scenario_stats().
        self._counts = {
            kind: {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
            for kind in _DATA_KINDS
        }
        # Mirrors the lifetime counters into a run-telemetry session
        # (``cache.hits`` …); observation only, the default records nothing.
        self._obs = coalesce(telemetry)
        # One offset index per data kind, by content address.
        self._indexes: Dict[int, Dict[str, _Location]] = {
            kind: {} for kind in _DATA_KINDS
        }
        # A caller may share one store between its own threads (engines
        # run on several threads look runs up and write them back);
        # every public operation holds this lock, and none calls another.
        self._lock = threading.Lock()
        self._handle = None          # lazily opened segment file object
        self._writable = False       # whether _handle was opened read-write
        self._loaded = False         # whether the open-time scan has run
        self._end = 0                # offset just past the last valid record
        self._records_seen = 0       # records of every kind, retired included
        self._torn = False           # file extends past _end with a dead tail
        # Write-failure degradation (ENOSPC, EROFS, quota …): after the
        # first failed append the store turns its write side off for the
        # rest of its lifetime — every subsequent store attempt is counted
        # and dropped without touching the file, while lookups keep
        # serving everything indexed before the failure.
        self._write_errors = 0
        self._writes_disabled = False

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def segment_path(self) -> Path:
        return self._directory / SEGMENT_FILE

    # -- statistics -----------------------------------------------------

    def scenario_stats(self) -> Dict[str, int]:
        """Lifetime scenario-record counters (hits/misses/stores/corrupt)."""
        with self._lock:
            return dict(self._counts[_KIND_SCENARIO])

    @property
    def write_errors(self) -> int:
        """Store attempts lost to a failing disk (``cache.write_error``)."""
        with self._lock:
            return self._write_errors

    @property
    def writes_disabled(self) -> bool:
        """Whether a write failure has degraded this store to read-only."""
        with self._lock:
            return self._writes_disabled

    def live_records(self) -> int:
        """Reachable run and scenario records in the segment index."""
        with self._lock:
            self._ensure_loaded()
            return sum(len(index) for index in self._indexes.values())

    def segment_bytes(self) -> int:
        """Bytes of segment the index covers (dead tail excluded)."""
        with self._lock:
            self._ensure_loaded()
            return self._end

    # -- analysis runs --------------------------------------------------

    def lookup(self, key: str) -> Tuple[Optional[RunEntry], bool]:
        """The run record stored under ``key`` (``None`` on a miss), and
        whether the lookup found a record it could not load.  Never raises.

        An indexed-but-unreadable record (CRC mismatch, unpicklable
        payload, version skew, wrong payload) is such a ``corrupt`` miss;
        it is dropped from the index so the rewritten record starts clean.
        """
        with self._lock:
            return self._fetch(_KIND_RUN, key)

    def store(self, key: str, verdicts: Sequence[Tuple[Any, ...]],
              triage: Optional["StaticTriage"]) -> None:
        """Append one run record to the segment; best-effort, never raises.

        Identical keys always carry identical payloads (determinism of the
        analysis), so a duplicate append is harmless: the index keeps the
        latest record and ``compact()`` drops the rest.
        """
        entry = RunEntry(
            version=CACHE_FORMAT_VERSION,
            fingerprint=key,
            verdicts=tuple(verdicts),
            triage=triage,
        )
        with self._lock:
            self._append(_KIND_RUN, key, entry)

    # -- scenario-level results -----------------------------------------

    def lookup_scenario(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored scenario-result projection, or ``None``.

        Same robustness contract as :meth:`lookup`: a corrupt or
        version-skewed record is a miss, never a crash.  Counters are
        reported by :meth:`scenario_stats` and mirrored to telemetry as
        ``cache.scenario_*``.
        """
        with self._lock:
            entry, _ = self._fetch(_KIND_SCENARIO, fingerprint)
            return None if entry is None else entry.payload

    def store_scenario(self, fingerprint: str,
                       payload: Dict[str, Any]) -> None:
        """Append one scenario-result projection; best-effort, never raises."""
        entry = ScenarioEntry(
            version=CACHE_FORMAT_VERSION,
            fingerprint=fingerprint,
            payload=payload,
        )
        with self._lock:
            self._append(_KIND_SCENARIO, fingerprint, entry)

    # -- maintenance ----------------------------------------------------

    def compact(self) -> CompactionReport:
        """Rewrite the segment keeping exactly the live records.

        Drops superseded duplicates (an address stored more than once),
        records of the retired kinds, records made unreadable by damage and
        any dead tail; preserves every reachable record — including those
        of *other* experiment configurations sharing the store, so
        reverting a configuration change still hits.

        Atomic: the new segment is built alongside and swapped in with
        ``os.replace``.  ``OSError`` propagates — compaction is an
        explicit maintenance call, not a hot-path write.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> CompactionReport:
        self._ensure_loaded()
        self._catch_up()
        report_before_records = self._records_seen
        report_before_bytes = self._end
        self._directory.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(self._directory), prefix=SEGMENT_FILE, suffix=".tmp"
        )
        new_indexes: Dict[int, Dict[str, _Location]] = {
            kind: {} for kind in _DATA_KINDS
        }
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(_MAGIC)
                offset = len(_MAGIC)
                for kind, index in self._indexes.items():
                    for address, location in index.items():
                        if self._load(kind, address, location) is None:
                            continue
                        blob = self._record_bytes(location)
                        handle.write(blob)
                        new_indexes[kind][address] = _Location(offset,
                                                               len(blob))
                        offset += len(blob)
                handle.flush()
            os.replace(temp_name, self.segment_path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._release()
        kept = sum(len(index) for index in new_indexes.values())
        self._indexes = new_indexes
        self._end = offset
        self._records_seen = kept
        self._torn = False
        self._obs.count("cache.compactions")
        return CompactionReport(
            records_before=report_before_records,
            records_kept=kept,
            records_dropped=report_before_records - kept,
            bytes_before=report_before_bytes,
            bytes_after=offset,
        )

    def close(self) -> None:
        """Flush and release the segment handle (idempotent)."""
        with self._lock:
            self._release()

    def __enter__(self) -> "MutationOutcomeCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- records --------------------------------------------------------

    def _fetch(self, kind: int, address: str) -> Tuple[Any, bool]:
        """Look one address up and count a hit, a miss or a corrupt miss.

        Returns the valid entry (``None`` on a miss) and whether the miss
        was corrupt: a record was indexed under ``address`` but failed
        :meth:`_load`.  Such a record is dropped from its index so a
        re-store starts clean.
        """
        self._ensure_loaded()
        index = self._indexes[kind]
        location = index.get(address)
        if location is None:
            self._count(kind, "misses")
            return None, False
        entry = self._load(kind, address, location)
        if entry is None:
            del index[address]
            self._count(kind, "misses")
            self._count(kind, "corrupt")
            return None, True
        self._count(kind, "hits")
        return entry, False

    def _load(self, kind: int, address: str, location: _Location) -> Any:
        """The entry of one indexed record if it is valid, else ``None``.

        The one validity check, for every data kind, on every lookup and
        in ``compact()``: the record re-reads whole with the expected
        kind, its CRC matches, its key is ``address``, and its
        payload unpickles to the kind's entry type at the current
        ``CACHE_FORMAT_VERSION``, stored under ``address``.  Never raises.
        """
        try:
            blob = self._record_bytes(location)
            if len(blob) != location.length:
                return None
            record_kind, _, key_length, payload_length, crc = _HEADER.unpack(
                blob[:_HEADER.size]
            )
            if (record_kind != kind
                    or _HEADER.size + key_length + payload_length
                    != len(blob)):
                return None
            body = blob[_HEADER.size:]
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                return None
            if body[:key_length].decode("ascii") != address:
                return None
            entry = pickle.loads(body[key_length:])
        except Exception:  # noqa: BLE001 — any damage is a miss, never a crash
            return None
        entry_type, _ = _DATA_KINDS[kind]
        if (not isinstance(entry, entry_type)
                or entry.version != CACHE_FORMAT_VERSION
                or entry.fingerprint != address):
            return None
        return entry

    def _append(self, kind: int, key: str, entry: Any) -> None:
        """Append one data record and index it; best-effort, never raises.

        A full or read-only disk degrades to no caching: the first failed
        write turns the write side off, lookups keep serving, and the
        caller never sees the failure.
        """
        if self._writes_disabled:
            self._note_write_error()
            return
        blob = self._encode_record(kind, key.encode("ascii"),
                                   pickle.dumps(entry))
        try:
            offset = self._write(blob)
        except OSError:
            self._note_write_error()
            return
        self._index(kind, key, _Location(offset, len(blob)))
        self._count(kind, "stores")

    def _index(self, kind: int, key: str, location: _Location) -> None:
        """Point the index at one record (scanned or just appended); a
        record of a retired kind is counted but stays dead."""
        self._records_seen += 1
        if kind in self._indexes:
            self._indexes[kind][key] = location

    def _count(self, kind: int, event: str) -> None:
        self._counts[kind][event] += 1
        self._obs.count(_DATA_KINDS[kind][1] + event)

    # -- segment internals ----------------------------------------------

    def _ensure_loaded(self) -> None:
        """Scan the segment once, building the offset index."""
        if self._loaded:
            return
        self._loaded = True
        try:
            data = self.segment_path.read_bytes()
        except OSError:
            return  # no segment yet (or unreadable): empty index
        if data.startswith(_MAGIC):
            self._scan(data, len(_MAGIC), 0)
        elif data:
            # Not our file: leave it alone, never append into it.
            self._torn = True
            self._obs.count("cache.segment_torn")

    def _catch_up(self) -> None:
        """Absorb records another in-process sharer appended after our scan.

        Called before every append so a second cache object on the same
        directory never overwrites a first one's records.  (Concurrent
        *processes* appending simultaneously are out of scope — within a
        run only the engine parent writes.)
        """
        try:
            size = os.path.getsize(self.segment_path)
        except OSError:
            size = 0
        if size <= self._end or self._torn:
            return
        if self._end == 0:
            # The segment appeared after our (empty) first scan — another
            # sharer created it.  Load it from scratch instead of parsing
            # from offset 0, which would misread the magic as a record.
            self._loaded = False
            self._records_seen = 0
            self._ensure_loaded()
            return
        try:
            handle = self._open(writable=False)
            handle.seek(self._end)
            data = handle.read(size - self._end)
        except OSError:
            return
        self._scan(data, 0, self._end)

    def _scan(self, data: bytes, offset: int, base: int) -> None:
        """Index the records of ``data`` from ``offset`` on, where
        ``data[0]`` lies at segment offset ``base``.

        The walk validates structure only (kind, key length, payload
        bounds): it stops at the first structurally broken record — a
        torn or garbage tail — leaving everything before it live, and
        ``_end`` just past it.  Payload damage inside a well-framed record
        is deliberately NOT detected here; the lookup-time CRC catches it
        and counts it as a ``corrupt`` miss.
        """
        while offset + _HEADER.size <= len(data):
            kind, _, key_length, payload_length, _ = _HEADER.unpack_from(
                data, offset
            )
            start = offset + _HEADER.size
            end = start + key_length + payload_length
            key = data[start:start + key_length]
            if (_KEY_LENGTHS.get(kind) != key_length or end > len(data)
                    or not key.isascii()):
                break
            self._index(kind, key.decode("ascii"),
                        _Location(base + offset, end - offset))
            offset = end
        self._end = base + offset
        if offset < len(data):
            self._torn = True
            self._obs.count("cache.segment_torn")

    @staticmethod
    def _encode_record(kind: int, key: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(key + payload) & 0xFFFFFFFF
        return _HEADER.pack(kind, 0, len(key), len(payload), crc) + key + payload

    def _write(self, blob: bytes) -> int:
        """Write one record at the validated end of the segment and return
        its offset.  Raises ``OSError`` after rolling back a partial write."""
        self._ensure_loaded()
        if self._torn and self.segment_path.exists() \
                and not self._segment_is_ours():
            raise OSError("segment file is not a mutation-outcome store")
        self._catch_up()
        handle = self._open(writable=True)
        if self._end == 0:
            handle.seek(0)
            handle.truncate(0)
            handle.write(_MAGIC)
            self._end = len(_MAGIC)
            self._torn = False
        elif self._torn:
            handle.truncate(self._end)
            self._torn = False
        handle.seek(self._end)
        try:
            handle.write(blob)
            handle.flush()
        except OSError:
            # A failed or partially flushed write (ENOSPC mid-record) must
            # not poison the store: roll the file back to the last valid
            # end so the on-disk tail never carries a half-record, and
            # leave the index exactly as it was.  If even the rollback
            # fails, the torn-tail scan contract covers the partial
            # record — it is structurally invalid (or short) and every
            # record before ``_end`` stays live.
            self._rollback_tail(handle)
            raise
        offset = self._end
        self._end += len(blob)
        self._obs.count("cache.segment_appends")
        return offset

    def _rollback_tail(self, handle) -> None:
        """Truncate a failed append's partial bytes back to ``_end``."""
        try:
            handle.truncate(self._end)
            handle.flush()
        except OSError:
            # The partial record stays on disk as a dead tail; mark it so
            # any future (recovered) append truncates before writing.
            self._torn = True

    def _note_write_error(self) -> None:
        """Count one lost store and keep the write side off.

        The first failure flips the store into read-only degradation;
        every store attempt after it (including the skipped ones) counts
        a ``cache.write_error`` so the telemetry total equals the number
        of verdicts the cache failed to persist.
        """
        self._write_errors += 1
        self._writes_disabled = True
        self._obs.count("cache.write_error")

    def _segment_is_ours(self) -> bool:
        try:
            with open(self.segment_path, "rb") as handle:
                return handle.read(len(_MAGIC)) == _MAGIC
        except OSError:
            return False

    def _open(self, writable: bool):
        if self._handle is not None and (self._writable or not writable):
            return self._handle
        self._release()
        if writable:
            self._directory.mkdir(parents=True, exist_ok=True)
            try:
                self._handle = open(self.segment_path, "r+b")
            except FileNotFoundError:
                self._handle = open(self.segment_path, "w+b")
            self._writable = True
        else:
            self._handle = open(self.segment_path, "rb")
            self._writable = False
        return self._handle

    def _release(self) -> None:
        """Close the segment handle, if one is open."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
            self._writable = False

    def _record_bytes(self, location: _Location) -> bytes:
        handle = self._open(writable=False)
        handle.seek(location.offset)
        return handle.read(location.length)

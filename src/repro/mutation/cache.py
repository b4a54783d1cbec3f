"""Incremental mutation analysis: a content-addressed outcome cache.

The paper's evaluation (Tables 1-3) re-executes every mutant's full test
sequence on every run, even though most (mutant, suite) pairs are unchanged
between invocations.  This module eliminates that redundancy the same way
Harrold-style incremental reuse (:mod:`repro.history`) does at the
test-case level: a verdict already computed for *identical inputs* is
replayed instead of re-derived.

**Key anatomy.**  A cache entry is addressed by the SHA-256 fingerprint of
every input that can change a mutant's outcome:

* the **mutant** — its full record (operator, location, replacement, and
  crucially the mutated source) plus the owner class's identity and source
  hash;
* the **suite** — :meth:`~repro.generator.suite.TestSuite.fingerprint`,
  a content hash over every case's steps, argument values and seed;
* the **oracle configuration** — the composite's detector chain and each
  detector's parameters (e.g. the observed-method set);
* the **sandbox step budget** and the analysis flags
  (``stop_on_first_kill``, ``check_invariants``) — both change
  ``cases_run`` or verdicts;
* the **pruning configuration** — the coverage-guided pruning flag plus
  the content hash of the recorded coverage matrix
  (:meth:`~repro.mutation.coverage.CoverageMatrix.fingerprint`), so
  outcomes computed under pruning are only replayed under the exact
  matrix that justified their skips and pruned/unpruned entries never
  cross-contaminate;
* the **class-builder identity** and the original class (identity + source
  hash) — experiment 2 re-derives the subclass over the mutated base, so a
  different builder means different behaviour;
* the **setup hook** and the cache *key* version.

Change any component — one mutant's source, one test-case value, one
oracle flag, the budget — and only the affected entries miss; everything
untouched still hits.

**Cached ≡ fresh.**  Because the stored value is the exact
:class:`~repro.mutation.analysis.MutantOutcome` (plus the mutant's
sandbox-timeout count) and the key covers every input the verdict depends
on, a warm run assembles a :class:`~repro.mutation.analysis.MutationRun`
that passes ``same_results`` against a cold run — the warm cells of the
configuration-invariance lattice (``tests/mutation/test_config_lattice.py``)
enforce this for serial and parallel engines alike, each replaying a
store another configuration filled.  Worker-boundary kills
(``WORKER_CRASH``/``WALL_TIMEOUT``) are never cached: they depend on
wall-clock and process scheduling, not on the fingerprinted inputs.

**The segment store (format v4).**  Entries live in ONE append-only file,
``store.seg``.  Layout::

    store.seg := MAGIC(8) record*
    record    := header(12) key payload
    header    := kind:u8 flags:u8 key_len:u16 payload_len:u32 crc32:u32
    kind 1    := outcome  — key = entry_fp(64) + slot_fp(64),
                            payload = pickled CacheEntry
    kind 2    := triage   — key = triage_fp(64), payload = pickled TriageEntry
    kind 3    := slot     — key = slot_fp(64) + entry_fp(64), no payload
                            (written by compact() to pin the final slot map)
    kind 4    := scenario — key = scenario_fp(64),
                            payload = pickled ScenarioEntry (a whole
                            sweep ScenarioResult projection; see
                            repro.scenarios.sweep)

``crc32`` covers ``key + payload``.  An in-memory offset index is rebuilt
by a single sequential scan on open; the scan checks *structure* only
(kind, key length, payload bounds) so a damaged payload stays isolated —
it is caught by the CRC at lookup time and counted as a ``corrupt`` miss.
A torn or garbage tail (structural damage) ends the scan: records before
it stay live, records after it are counted misses, and the next append
truncates the dead tail.  Appends are flushed per store so sequential
sharers (a second engine, a later process) see every record; concurrent
*writers* need one process to go last — within a run only the parent
ever writes.

``compact()`` rewrites the segment keeping exactly the live records (the
latest record per content address), dropping superseded duplicates and
unreadable records.  Entries of *different* experiment configurations are
all live — reverting a configuration change must keep hitting its old
entries — so compaction never loses a verdict.
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
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..core.fingerprint import canonical, sha256_hex
from ..obs import Telemetry, coalesce

if TYPE_CHECKING:  # imported lazily to keep cache <- analysis acyclic
    from ..generator.suite import TestSuite
    from ..harness.oracles import CompositeOracle
    from .analysis import MutantOutcome
    from .mutant import CompiledMutant

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
#: directories are not read.
CACHE_FORMAT_VERSION = 4

#: The segment file's name under the cache directory.
SEGMENT_FILE = "store.seg"

_MAGIC = b"RMOC0004"
_HEADER = struct.Struct("<BBHII")  # kind, flags, key_len, payload_len, crc32
_KIND_OUTCOME = 1
_KIND_TRIAGE = 2
_KIND_SLOT = 3
#: Scenario-level results (kind 4) are an *additive* extension of the v4
#: layout: the record framing, addressing recipe and every existing
#: record kind are untouched, so CACHE_FORMAT_VERSION stays 4 and
#: existing stores keep hitting.  (An older reader treats the first
#: kind-4 record as a torn tail — the damage mode the format already
#: tolerates.)
_KIND_SCENARIO = 4
_FINGERPRINT_LENGTH = 64
_KEY_LENGTHS = {
    _KIND_OUTCOME: 2 * _FINGERPRINT_LENGTH,
    _KIND_TRIAGE: _FINGERPRINT_LENGTH,
    _KIND_SLOT: 2 * _FINGERPRINT_LENGTH,
    _KIND_SCENARIO: _FINGERPRINT_LENGTH,
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
                           check_invariants: bool,
                           setup: Optional[Callable] = None,
                           prune: bool = False,
                           coverage_fingerprint: str = "") -> str:
    """Hash of everything mutants of one analysis configuration share.

    Computed once per ``analyze`` call and combined with each mutant's own
    fingerprint to address entries.  ``oracle=None`` and an explicitly
    passed default oracle hash identically only if they are *structurally*
    equal — callers pass the effective oracle, not the constructor arg.
    ``prune``/``coverage_fingerprint`` bind pruned outcomes to the exact
    coverage matrix that licensed their skipped cases (unpruned runs pass
    ``False``/``""``), keeping pruned and unpruned entries disjoint.
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
        canonical(check_invariants),
        canonical(setup),
        canonical(prune),
        coverage_fingerprint,
    )


def mutant_fingerprint(mutant: "CompiledMutant") -> str:
    """Hash of one mutant: full record (incl. mutated source) + owner."""
    return sha256_hex(
        "mutant", canonical(mutant.owner), canonical(mutant.record)
    )


@dataclass(frozen=True)
class CacheKey:
    """Where one (experiment, mutant) pair lives in the store."""

    entry: str  # content address: experiment fingerprint x mutant fingerprint
    slot: str   # logical slot (owner, operator, ident): counts invalidations


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """Lookup counters, surfaced on ``MutationRun.cache_stats``.

    ``invalidations`` counts misses whose slot previously held an entry
    under a different fingerprint (the experiment changed); ``corrupt``
    counts entries that existed but could not be loaded (damaged record,
    unpicklable payload, version skew) — those are also misses.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta between two snapshots of one cache's counters."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            invalidations=self.invalidations - earlier.invalidations,
            corrupt=self.corrupt - earlier.corrupt,
        )

    def format(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.invalidations} invalidated, {self.corrupt} corrupt) — "
            f"hit rate {self.hit_rate:.1%}"
        )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheEntry:
    """One stored verdict: the outcome plus its sandbox-timeout count."""

    version: int
    fingerprint: str           # the entry address this payload was stored under
    outcome: "MutantOutcome"
    step_timeouts: int


@dataclass(frozen=True)
class TriageEntry:
    """One stored static-triage verdict (per-mutant checks only).

    Only the content-addressed per-mutant result is stored — the status of
    the AST/bytecode identity checks plus the normalized-bytecode digest.
    The cross-mutant redundancy grouping is *derived* from the digests on
    every run because it depends on which other mutants are in the battery,
    so a ``redundant`` status never appears here.
    """

    version: int
    fingerprint: str
    status: str                # TriageStatus value (never "redundant")
    digest: str                # normalized-bytecode digest


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


#: Each data record kind's entry type and telemetry counter prefix.  The
#: insertion order (outcome, triage, scenario) is the order ``compact()``
#: writes the kinds in.
_DATA_KINDS = {
    _KIND_OUTCOME: (CacheEntry, "cache."),
    _KIND_TRIAGE: (TriageEntry, "cache.triage_"),
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
    """Content-addressed, on-disk store of :class:`MutantOutcome`\\ s.

    Format v4: one append-only segment file (``store.seg``) plus an
    in-memory offset index rebuilt by scan on open — see the module
    docstring for the record format and robustness rules.  The same
    directory may be shared by serial and parallel runs, by different
    experiments (tables 1-3) and by sequential engines in one process:
    entries are pure content addresses and never collide across
    configurations.
    """

    def __init__(self, directory,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._directory = Path(directory)
        # Lifetime counters per data kind.  The outcome kind's feed
        # CacheStats; the scenario kind's are reported by scenario_stats()
        # beside (not inside) CacheStats, whose hit rate gates CI on
        # per-mutant entries; the triage kind's are telemetry only.
        self._counts = {
            kind: {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
            for kind in _DATA_KINDS
        }
        self._invalidations = 0
        # Mirrors the lifetime counters into a run-telemetry session
        # (``cache.hits`` …); observation only, the default records nothing.
        self._obs = coalesce(telemetry)
        # One offset index per data kind, by content address.
        self._indexes: Dict[int, Dict[str, _Location]] = {
            kind: {} for kind in _DATA_KINDS
        }
        self._slots: Dict[str, str] = {}
        # A caller may share one store between its own threads (engines
        # run on several threads look entries up and write verdicts back);
        # every public operation holds this lock, and none calls another.
        self._lock = threading.Lock()
        self._handle = None          # lazily opened segment file object
        self._writable = False       # whether _handle was opened read-write
        self._loaded = False         # whether the open-time scan has run
        self._end = 0                # offset just past the last valid record
        self._records_seen = 0       # data records (outcome/triage/scenario)
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

    def snapshot(self) -> CacheStats:
        """Immutable view of the lifetime counters (diff with ``since``)."""
        with self._lock:
            counts = self._counts[_KIND_OUTCOME]
            return CacheStats(
                hits=counts["hits"],
                misses=counts["misses"],
                invalidations=self._invalidations,
                corrupt=counts["corrupt"],
            )

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
        """Reachable records (outcome/triage/scenario) in the segment index."""
        with self._lock:
            self._ensure_loaded()
            return sum(len(index) for index in self._indexes.values())

    def segment_bytes(self) -> int:
        """Bytes of segment the index covers (dead tail excluded)."""
        with self._lock:
            self._ensure_loaded()
            return self._end

    # -- addressing -----------------------------------------------------

    def key_for(self, experiment: str, mutant: "CompiledMutant") -> CacheKey:
        """The (content, slot) address of one mutant under one experiment.

        Idents restart at ``M0001`` in every battery, so the slot names
        the operator too: single-operator batteries over one class (the
        operator-split sweep scenarios) would otherwise share slots for
        different mutants and count a first fill as invalidations.
        """
        owner = f"{mutant.owner.__module__}.{mutant.owner.__qualname__}"
        return CacheKey(
            entry=sha256_hex("entry", experiment, mutant_fingerprint(mutant)),
            slot=sha256_hex("slot", owner, mutant.record.operator,
                            mutant.record.ident),
        )

    # -- lookup / store -------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[CacheEntry]:
        """The stored entry, or ``None`` (miss).  Never raises.

        An indexed-but-unreadable record (CRC mismatch, unpicklable
        payload, version skew, wrong payload) counts as ``corrupt`` and is
        dropped from the index so the rewritten entry starts clean.  A
        miss whose slot last held a *different* entry counts as an
        invalidation (the experiment changed).
        """
        with self._lock:
            entry, indexed = self._fetch(_KIND_OUTCOME, key.entry)
            if not indexed and self._slots.get(key.slot,
                                               key.entry) != key.entry:
                self._invalidations += 1
                self._obs.count("cache.invalidations")
            return entry

    def store(self, key: CacheKey, outcome: "MutantOutcome",
              step_timeouts: int) -> None:
        """Append one verdict to the segment; best-effort, never raises.

        Identical keys always carry identical payloads (determinism of the
        analysis), so a duplicate append (e.g. during salvage) is harmless:
        the index keeps the latest record and ``compact()`` drops the rest.
        """
        entry = CacheEntry(
            version=CACHE_FORMAT_VERSION,
            fingerprint=key.entry,
            outcome=outcome,
            step_timeouts=step_timeouts,
        )
        with self._lock:
            self._append(_KIND_OUTCOME, key.entry + key.slot, entry)

    # -- static-triage verdicts -----------------------------------------

    def lookup_triage(self, fingerprint: str) -> Optional[Tuple[str, str]]:
        """The stored ``(status, digest)`` triage verdict, or ``None``.

        Same robustness contract as :meth:`lookup` — a corrupt or
        version-skewed record is a miss, never a crash.  Counters are
        telemetry-only (``cache.triage_*``): triage verdicts are a cheap
        side store and do not participate in :class:`CacheStats`, whose
        hit-rate gates CI on the expensive *outcome* entries.
        """
        with self._lock:
            entry, _ = self._fetch(_KIND_TRIAGE, fingerprint)
            return None if entry is None else (entry.status, entry.digest)

    def store_triage(self, fingerprint: str, status: str,
                     digest: str) -> None:
        """Append one static-triage verdict; best-effort, never raises."""
        entry = TriageEntry(
            version=CACHE_FORMAT_VERSION,
            fingerprint=fingerprint,
            status=status,
            digest=digest,
        )
        with self._lock:
            self._append(_KIND_TRIAGE, fingerprint, entry)

    # -- scenario-level results -----------------------------------------

    def lookup_scenario(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored scenario-result projection, or ``None``.

        Same robustness contract as :meth:`lookup`: a corrupt or
        version-skewed record is a miss, never a crash.  Counters are
        telemetry-only (``cache.scenario_*``) — scenario records replay
        *whole sweep scenarios* and stay out of :class:`CacheStats`,
        whose hit-rate gates CI on per-mutant outcome entries.
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
        records invalidated by damage (unreadable at compaction time) and
        any dead tail; preserves every reachable verdict — including
        entries of *other* experiment configurations sharing the store,
        so reverting a configuration change still hits.  The final slot
        map is pinned with explicit slot records (kind 3), because replay
        order of the surviving entries no longer encodes it.

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
        replayed_slots: Dict[str, str] = {}
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
                        if kind == _KIND_OUTCOME:
                            slot = blob[_HEADER.size + _FINGERPRINT_LENGTH:
                                        _HEADER.size + _KEY_LENGTHS[kind]]
                            replayed_slots[slot.decode("ascii")] = address
                # Pin only the slot mappings replaying the kept records
                # would get wrong (a slot superseded by another entry's
                # record); pins are bookkeeping, not live verdicts, and
                # stay out of the record counts.
                for slot, entry in self._slots.items():
                    if replayed_slots.get(slot) == entry:
                        continue
                    blob = self._encode_record(
                        _KIND_SLOT, (slot + entry).encode("ascii"), b""
                    )
                    handle.write(blob)
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

        Returns the valid entry (``None`` on a miss) and whether a record
        was indexed under ``address`` at all.  An indexed record that
        fails :meth:`_load` is dropped from its index so a re-store
        starts clean.
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
        else:
            self._count(kind, "hits")
        return entry, True

    def _load(self, kind: int, address: str, location: _Location) -> Any:
        """The entry of one indexed record if it is valid, else ``None``.

        The one validity check, for every data kind, on every lookup and
        in ``compact()``: the record re-reads whole with the expected
        kind, its CRC matches, its key starts with ``address``, and its
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
            if not body[:key_length].decode("ascii").startswith(address):
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
        """Point the index at one record (scanned or just appended)."""
        address = key[:_FINGERPRINT_LENGTH]
        if kind == _KIND_SLOT:  # bookkeeping, not a data record
            self._slots[address] = key[_FINGERPRINT_LENGTH:]
            return
        self._indexes[kind][address] = location
        self._records_seen += 1
        if kind == _KIND_OUTCOME:
            self._slots[key[_FINGERPRINT_LENGTH:]] = address

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

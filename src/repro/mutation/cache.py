"""Incremental mutation analysis: a content-addressed store of whole runs.

The paper's evaluation (Tables 1-3) re-executes every mutant's full test
sequence on every run, even when nothing changed between invocations.
This module removes that redundancy at the grain the paper reuses test
results (sec. 3.4.2, whole transactions of a derived class): one record
per analysis run, replayed when the run is repeated on identical inputs.

**Key anatomy.**  A run record is addressed by the SHA-256 of every input
that decides one of the run's verdicts, and of nothing the run derives
from them, so the analysis looks a run up before it executes anything:

* the **experiment** (:func:`experiment_fingerprint`) — the original
  class, the suite
  (:meth:`~repro.generator.suite.TestSuite.fingerprint`, a content hash
  over every case's steps, argument values and seed), the oracle
  configuration, the class builder, the sandbox step budget, the
  ``stop_on_first_kill`` flag, the setup hook, the pruning flag, and the
  cache *key* version;
* the **battery**, in order — each mutant's :func:`mutant_fingerprint`
  (its full record, crucially the mutated source, and its owner);
* the **triage setting** — static triage on or off, and the canonical
  type model it folds under.

A class enters the key through :func:`~repro.core.fingerprint.canonical`,
which hashes the source files of its class hierarchy: any edit to a file
that defines one of the component's classes — a method body, a module
constant, a helper class beside it, a base class elsewhere — misses.  The
recorded coverage matrix is no input: it is a function of those files
and the suite, both already in the key.

Change any of them — one mutant's source, the battery's order, one
test-case value, one oracle flag, the budget, one line of the
component's files — and the whole run misses and re-executes; reverting
the change hits the old record again.  Engine, worker count, batch size
and telemetry are not inputs, so runs that differ only there share one
record.

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

**One file per record (format v5).**  Each record is one file in the
store directory, named by its 64-hex content address::

    record  := MAGIC(8) crc32:u32 payload
    payload := pickled RunEntry — one analysis run, under run_fp
             | pickled ScenarioEntry — one sweep ScenarioResult
               projection under scenario_fp (see repro.scenarios.sweep)

``crc32`` covers the payload.  A store writes the header and the payload
into a temp file of its own process and thread, then renames it onto the
address (``os.replace``): a reader sees a whole record or none, and
writers on several threads or processes need no order.  A record that
fails the magic, CRC, unpickle, entry-type, version or address check is
one ``corrupt`` miss, and the rerun's store overwrites it.  A failed
write is counted (``write_errors``, ``cache.write_error``), leaves no
temp file and never reaches the caller; the next store tries again.  An
address has one file, so no record is ever superseded.  An older store's
v4 segment file may sit in the same directory; it is never read, counted
or deleted.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
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
#: existing store.  Bump it when the addressing inputs change, and when a
#: change to the executor, the coverage recorder or the oracle code moves
#: a verdict or the numbering of a case's guarded calls: that code lives
#: outside the component's files, so no key input sees the change.
#: v4: class identity became its hierarchy's source files, and the
#: coverage matrix's hash left the experiment key.
CACHE_KEY_VERSION = 4

#: Version of the *store layout* (record framing, entry payloads).
#: v2: ``MutantOutcome`` grew ``cases_skipped`` and the experiment
#: fingerprint grew the pruning flag + coverage-matrix hash.
#: v3: ``MutantOutcome`` grew ``static_status`` and the store gained the
#: content-addressed static-triage verdicts.
#: v4: the file-per-entry tree became one append-only segment file.
#: v5: one file per record again, now one per run or scenario; v4 and v3
#: directories are not read.
CACHE_FORMAT_VERSION = 5

_MAGIC = b"RMOC0005"
_HEADER = struct.Struct("<8sI")  # magic, crc32 of the payload
_ADDRESS = re.compile(r"[0-9a-f]{64}")


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
                           prune: bool = False) -> str:
    """Hash of everything mutants of one analysis configuration share.

    Computed once per ``analyze`` call, before anything executes, and
    combined with the battery's mutant fingerprints to address its run
    record.  Every part is an input of the run: ``original_class`` through
    the source files of its class hierarchy
    (:func:`~repro.core.fingerprint.canonical`), the suite through its
    content hash.  ``oracle=None`` and an explicitly passed default oracle
    hash identically only if they are *structurally* equal — callers pass
    the effective oracle, not the constructor arg.  ``prune`` keeps pruned
    and unpruned records disjoint, since their case counters differ; the
    coverage matrix that licenses a pruned run's skips is no part, because
    the class's files and the suite determine it.
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


#: Each entry type's telemetry counter prefix.
_PREFIXES = {RunEntry: "cache.", ScenarioEntry: "cache.scenario_"}


class MutationOutcomeCache:
    """Content-addressed, on-disk store of analysis runs and sweep scenarios.

    Format v5: one file per record under ``directory`` — see the module
    docstring for the layout and the robustness rules.  The same directory
    may be shared by serial and parallel runs, by different experiments
    (tables 2 and 3, sweeps), by store objects on several threads and by
    processes: records are pure content addresses and never collide
    across configurations.
    """

    def __init__(self, directory,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._directory = Path(directory)
        # Lifetime counters per entry type: the run type's are telemetry
        # only (each run derives its CacheStats from its own lookup); the
        # scenario type's are also reported by scenario_stats().
        self._counts = {
            entry_type: {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
            for entry_type in _PREFIXES
        }
        # Mirrors the lifetime counters into a run-telemetry session
        # (``cache.hits`` …); observation only, the default records nothing.
        self._obs = coalesce(telemetry)
        # A caller may share one store between its own threads (engines
        # run on several threads look runs up and write them back); the
        # lock guards the counters, and each thread writes its own temp
        # file.
        self._lock = threading.Lock()
        self._write_errors = 0

    @property
    def directory(self) -> Path:
        return self._directory

    # -- statistics -----------------------------------------------------

    def scenario_stats(self) -> Dict[str, int]:
        """Lifetime scenario-record counters (hits/misses/stores/corrupt)."""
        with self._lock:
            return dict(self._counts[ScenarioEntry])

    @property
    def write_errors(self) -> int:
        """Store attempts lost to a failing disk (``cache.write_error``)."""
        with self._lock:
            return self._write_errors

    def live_records(self) -> int:
        """Record files in the directory, loadable or not."""
        return len(self._record_files())

    def segment_bytes(self) -> int:
        """Summed bytes of the record files."""
        return sum(entry.stat().st_size for entry in self._record_files())

    # -- analysis runs --------------------------------------------------

    def lookup(self, key: str) -> Tuple[Optional[RunEntry], bool]:
        """The run record stored under ``key`` (``None`` on a miss), and
        whether the lookup found a record it could not load.  Never raises.

        A record file that does not load (damaged bytes, unpicklable
        payload, version skew, wrong entry type or address) is such a
        ``corrupt`` miss; the rerun's store overwrites it.
        """
        return self._fetch(RunEntry, key)

    def store(self, key: str, verdicts: Sequence[Tuple[Any, ...]],
              triage: Optional["StaticTriage"]) -> None:
        """Write one run record; best-effort, never raises.

        Identical keys always carry identical payloads (determinism of the
        analysis), so storing an address twice rewrites the same bytes.
        """
        self._put(RunEntry(
            version=CACHE_FORMAT_VERSION,
            fingerprint=key,
            verdicts=tuple(verdicts),
            triage=triage,
        ))

    # -- scenario-level results -----------------------------------------

    def lookup_scenario(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored scenario-result projection, or ``None``.

        Same robustness contract as :meth:`lookup`: a corrupt or
        version-skewed record is a miss, never a crash.  Counters are
        reported by :meth:`scenario_stats` and mirrored to telemetry as
        ``cache.scenario_*``.
        """
        entry, _ = self._fetch(ScenarioEntry, fingerprint)
        return None if entry is None else entry.payload

    def store_scenario(self, fingerprint: str,
                       payload: Dict[str, Any]) -> None:
        """Write one scenario-result projection; best-effort, never raises."""
        self._put(ScenarioEntry(
            version=CACHE_FORMAT_VERSION,
            fingerprint=fingerprint,
            payload=payload,
        ))

    # -- records --------------------------------------------------------

    def _fetch(self, entry_type: type, address: str) -> Tuple[Any, bool]:
        """Read one address and count a hit, a miss or a corrupt miss.

        Returns the valid entry (``None`` on a miss) and whether the miss
        was corrupt: a file exists under ``address`` but fails
        :func:`_decode`.
        """
        try:
            data = (self._directory / address).read_bytes()
        except OSError:
            self._count(entry_type, "misses")
            return None, False
        entry = _decode(data, entry_type, address)
        if entry is None:
            self._count(entry_type, "misses", "corrupt")
            return None, True
        self._count(entry_type, "hits")
        return entry, False

    def _put(self, entry: Any) -> None:
        """Write one record file; best-effort, never raises.

        Header and payload go to a temp file unique to this process and
        thread as two writes (joining them would copy the payload), and
        ``os.replace`` moves it onto the address.  A failure (a full or
        read-only disk, a ``directory`` that is a file …) is counted,
        its temp file removed, and the caller never sees it.
        """
        payload = pickle.dumps(entry)
        path = self._directory / entry.fingerprint
        temp = path.with_name(f".{entry.fingerprint}.{os.getpid()}."
                              f"{threading.get_ident()}.tmp")
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as handle:
                handle.write(_HEADER.pack(_MAGIC, zlib.crc32(payload)))
                handle.write(payload)
            os.replace(temp, path)
        except OSError:
            try:
                os.unlink(temp)
            except OSError:
                pass
            with self._lock:
                self._write_errors += 1
            self._obs.count("cache.write_error")
            return
        self._count(type(entry), "stores")

    def _count(self, entry_type: type, *events: str) -> None:
        with self._lock:
            for event in events:
                self._counts[entry_type][event] += 1
        for event in events:
            self._obs.count(_PREFIXES[entry_type] + event)

    def _record_files(self) -> List[os.DirEntry]:
        """The directory's files named by an address (no temp file, and
        no older store's segment); none when it cannot be listed."""
        try:
            with os.scandir(self._directory) as entries:
                return [entry for entry in entries
                        if _ADDRESS.fullmatch(entry.name) and entry.is_file()]
        except OSError:
            return []


def _decode(data: bytes, entry_type: type, address: str) -> Any:
    """The entry one record file holds if it is valid, else ``None``.

    The one validity check, for every entry type: the magic names this
    format, the CRC matches the payload, and the payload unpickles to an
    ``entry_type`` at the current ``CACHE_FORMAT_VERSION``, stored under
    ``address``.  Never raises.
    """
    try:
        magic, crc = _HEADER.unpack_from(data)
        payload = memoryview(data)[_HEADER.size:]
        if magic != _MAGIC or zlib.crc32(payload) != crc:
            return None
        entry = pickle.loads(payload)
    except Exception:  # noqa: BLE001 — any damage is a miss, never a crash
        return None
    if (not isinstance(entry, entry_type)
            or entry.version != CACHE_FORMAT_VERSION
            or entry.fingerprint != address):
        return None
    return entry

"""Write-failure hardening of the segment store (ENOSPC and friends).

The contract under test: a failed or partially flushed append never
poisons the store — the on-disk tail is rolled back (or covered by the
torn-tail scan), the writer degrades to cache-off with every lost store
counted as ``cache.write_error``, and lookups keep serving everything
written before the fault.
"""

from __future__ import annotations

import errno

import pytest

from repro.core.fingerprint import sha256_hex
from repro.mutation.cache import MutationOutcomeCache
from repro.obs import MemorySink, Telemetry


def _key(tag: str) -> str:
    return sha256_hex("cache-fault-test", tag)


class _FailingHandle:
    """Wraps the real segment handle; fails writes on command.

    ``partial`` writes half the record before raising — the ENOSPC
    mid-record case; ``fail_truncate`` makes the rollback fail too, so
    the dead tail stays on disk for the torn-tail scan to cover.
    """

    def __init__(self, real, partial=False, fail_truncate=False):
        self._real = real
        self.partial = partial
        self.fail_truncate = fail_truncate
        self.failing = True

    def write(self, data):
        if not self.failing:
            return self._real.write(data)
        if self.partial:
            self._real.write(data[:max(1, len(data) // 2)])
            self._real.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def truncate(self, *args):
        if self.failing and self.fail_truncate:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._real.truncate(*args)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _inject(cache, **kwargs) -> _FailingHandle:
    """Swap the cache's (already open, writable) handle for a failing one."""
    handle = cache._open(writable=True)
    failing = _FailingHandle(handle, **kwargs)
    cache._handle = failing
    return failing


def test_enospc_degrades_to_cache_off_and_counts_losses(tmp_path):
    telemetry = Telemetry(sink=MemorySink())
    cache = MutationOutcomeCache(tmp_path, telemetry=telemetry)
    cache.store_scenario(_key("kept"), {"ident": "kept"})
    assert cache.lookup_scenario(_key("kept")) == {"ident": "kept"}

    _inject(cache)
    cache.store_scenario(_key("lost-1"), {"ident": "lost-1"})
    assert cache.writes_disabled
    assert cache.write_errors == 1
    # further stores are skipped but still counted as losses
    cache.store_scenario(_key("lost-2"), {"ident": "lost-2"})
    cache.store(_key("lost-3"), (), None)
    assert cache.write_errors == 3
    assert telemetry.counters()["cache.write_error"] == 3

    # the read side never degrades: pre-fault records still hit
    assert cache.lookup_scenario(_key("kept")) == {"ident": "kept"}
    assert cache.lookup_scenario(_key("lost-1")) is None
    cache.close()


def test_failed_append_rolls_back_the_tail(tmp_path):
    cache = MutationOutcomeCache(tmp_path)
    cache.store_scenario(_key("kept"), {"ident": "kept"})
    size_before = cache.segment_path.stat().st_size

    _inject(cache, partial=True)  # half the record reaches the disk
    cache.store_scenario(_key("lost"), {"ident": "lost"})
    assert cache.writes_disabled
    # rollback truncated the partial record: the file is exactly as it was
    assert cache.segment_path.stat().st_size == size_before

    fresh = MutationOutcomeCache(tmp_path)
    assert fresh.lookup_scenario(_key("kept")) == {"ident": "kept"}
    assert not fresh.writes_disabled
    fresh.close()
    cache.close()


def test_partial_flush_with_failed_rollback_is_covered_by_torn_scan(tmp_path):
    cache = MutationOutcomeCache(tmp_path)
    cache.store_scenario(_key("kept-1"), {"ident": "kept-1"})
    cache.store_scenario(_key("kept-2"), {"ident": "kept-2"})
    size_before = cache.segment_path.stat().st_size

    failing = _inject(cache, partial=True, fail_truncate=True)
    cache.store_scenario(_key("lost"), {"ident": "lost"})
    assert cache.write_errors == 1
    # the dead tail is on disk: rollback failed, scan must cover it
    assert cache.segment_path.stat().st_size > size_before

    # a fresh cache over the damaged file serves every pre-fault record
    # and can append again right past the recovered end
    failing.failing = False
    fresh = MutationOutcomeCache(tmp_path)
    assert fresh.lookup_scenario(_key("kept-1")) == {"ident": "kept-1"}
    assert fresh.lookup_scenario(_key("kept-2")) == {"ident": "kept-2"}
    assert fresh.lookup_scenario(_key("lost")) is None
    fresh.store_scenario(_key("after"), {"ident": "after"})
    assert fresh.lookup_scenario(_key("after")) == {"ident": "after"}
    fresh.close()

    final = MutationOutcomeCache(tmp_path)
    assert final.lookup_scenario(_key("kept-1")) == {"ident": "kept-1"}
    assert final.lookup_scenario(_key("after")) == {"ident": "after"}
    final.close()
    cache.close()


def test_write_failure_never_reaches_the_caller(tmp_path):
    cache = MutationOutcomeCache(tmp_path)
    _inject(cache)
    # best-effort contract: no OSError escapes any store method
    cache.store_scenario(_key("a"), {"ident": "a"})
    cache.store(_key("b"), (), None)
    assert cache.write_errors == 2
    cache.close()

"""Spans, counters and event emission — the run-telemetry core.

Binder's design-for-testability attributes (the paper cites them in
sec. 2) put *observability* of intermediate results first; this module
applies that principle to the reproduction's own pipeline.  A
:class:`Telemetry` session hands out :class:`Span` context managers
(monotonic-clock durations via ``time.perf_counter``), accumulates named
counters, and streams schema-versioned dict events (see
:mod:`repro.obs.schema`) to a sink — typically the JSONL file behind the
table CLIs' ``--trace-out`` flag.

Two hard guarantees the instrumented hot paths rely on:

* **Off means off.**  The default telemetry everywhere is
  :data:`NULL_TELEMETRY`, whose ``span``/``event``/``count`` are no-ops
  returning a shared singleton span — zero events, zero allocations
  beyond the call itself, no sink, no clock reads.  Instrumented code
  never branches on "is telemetry on"; it calls unconditionally and the
  null object absorbs it.
* **Observation only.**  Nothing in this module feeds back into verdict
  logic; the differential suite (``tests/obs/test_differential.py``)
  proves ``MutationRun.same_results`` holds with telemetry on vs off
  across seeds, worker counts and cache temperatures.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .schema import SCHEMA_VERSION

#: A sink receives each emitted event dict; ``close()`` is called on it at
#: session close when present (file-backed sinks flush there).
Sink = Callable[[Dict[str, Any]], None]

_SCALARS = (str, int, float, bool, type(None))


def _scalar(value: Any) -> Any:
    """Coerce an attribute value to a JSON scalar (schema requirement)."""
    if isinstance(value, _SCALARS):
        return value
    return str(value)


class Span:
    """One timed region, used as a context manager.

    Attributes may be attached at creation (``telemetry.span(name, k=v)``)
    or mid-flight (``span.set("killed", True)``) — the kill reason of a
    mutant is only known when the span is about to close.  The event is
    emitted at ``__exit__``; an exception escaping the span is recorded as
    an ``error`` attribute and re-raised untouched.
    """

    __slots__ = ("_telemetry", "name", "_attrs", "_started")

    def __init__(self, telemetry: "Telemetry", name: str,
                 attrs: Dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self._attrs = attrs
        self._started = 0.0

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; chainable."""
        self._attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._started = self._telemetry._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._telemetry._finish_span(self.name, self._started, self._attrs)
        return False


class Telemetry:
    """One observed run: spans, point events, counters, one sink.

    ``clock`` defaults to the monotonic ``time.perf_counter`` and is
    injectable for deterministic tests.  All timestamps in emitted events
    are offsets from the session origin (the clock value at construction),
    so traces are comparable across processes and machines.
    """

    #: Class-level so the null subclass can override without instance state.
    enabled = True

    def __init__(self, sink: Optional[Sink] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self._sink = sink
        self._clock = clock
        self._origin = clock()
        self._counters: Dict[str, int] = {}
        #: name -> [count, total seconds, max seconds]
        self._span_stats: Dict[str, List[float]] = {}
        self._events_emitted = 0
        self._closed = False
        # A caller may share one session between its own threads (engines
        # run on several threads record spans and counters side by side);
        # counter bumps, span-stat folds and sink writes are tiny critical
        # sections, so a single plain lock keeps the trace consistent.
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager timing one region; emits a ``span`` event."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one instantaneous ``point`` event."""
        self._emit({
            "v": SCHEMA_VERSION,
            "kind": "point",
            "name": name,
            "t": self._offset(),
            "attrs": {key: _scalar(value) for key, value in attrs.items()},
        })

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter (no per-increment event; totals are
        emitted once as the closing ``counters`` event)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    # -- inspection --------------------------------------------------------

    @property
    def events_emitted(self) -> int:
        return self._events_emitted

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregates: count, total/mean/max seconds."""
        return {
            name: {
                "count": int(stats[0]),
                "total_s": stats[1],
                "mean_s": stats[1] / stats[0] if stats[0] else 0.0,
                "max_s": stats[2],
            }
            for name, stats in self._span_stats.items()
        }

    def summary(self) -> str:
        """Human-readable rendering of the aggregates (see
        :mod:`repro.obs.summary`)."""
        from .summary import render_summary

        return render_summary(self)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Emit the final ``counters`` event and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._emit({
            "v": SCHEMA_VERSION,
            "kind": "counters",
            "name": "telemetry.close",
            "t": self._offset(),
            "counters": dict(self._counters),
        })
        closer = getattr(self._sink, "close", None)
        if callable(closer):
            closer()

    # -- internals ---------------------------------------------------------

    def _offset(self) -> float:
        return round(self._clock() - self._origin, 6)

    def _finish_span(self, name: str, started: float,
                     attrs: Dict[str, Any]) -> None:
        duration = self._clock() - started
        with self._lock:
            stats = self._span_stats.get(name)
            if stats is None:
                self._span_stats[name] = [1, duration, duration]
            else:
                stats[0] += 1
                stats[1] += duration
                if duration > stats[2]:
                    stats[2] = duration
        self._emit({
            "v": SCHEMA_VERSION,
            "kind": "span",
            "name": name,
            "t": round(started - self._origin, 6),
            "dur": round(duration, 6),
            "attrs": {key: _scalar(value) for key, value in attrs.items()},
        })

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events_emitted += 1
            if self._sink is not None:
                self._sink(event)


class _NullSpan:
    """The shared do-nothing span handed out when telemetry is off."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry(Telemetry):
    """Telemetry that observes nothing — the default on every hot path.

    Every recording method is a no-op and ``span`` returns one shared
    singleton, so disabled instrumentation costs a method call and
    nothing else: no event dicts, no clock reads, no sink traffic.  The
    zero-events contract is tested by patching :meth:`Telemetry._emit`
    to fail and running a full analysis through this object.
    """

    enabled = False

    def __init__(self):
        super().__init__(sink=None)

    def span(self, name: str, **attrs: Any) -> Span:  # type: ignore[override]
        return _NULL_SPAN  # type: ignore[return-value]

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def close(self) -> None:
        return None


#: Process-wide null session; instrumented modules default to it.
NULL_TELEMETRY = NullTelemetry()


def coalesce(telemetry: Optional[Telemetry]) -> Telemetry:
    """The given session, or the shared null one — instrumented code
    stores the result and records unconditionally."""
    return telemetry if telemetry is not None else NULL_TELEMETRY

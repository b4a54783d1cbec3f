"""Run telemetry for the mutation pipeline (spans, counters, JSONL traces).

The paper's design-for-testability argument names observability of
intermediate results as a core attribute of testable software; this
package gives the reproduction's own pipeline that property.  A
:class:`Telemetry` session times regions with ``span(...)`` context
managers, accumulates counters, and streams schema-versioned events
(:mod:`repro.obs.schema`) to a sink such as :class:`JsonlSink`.

Telemetry is **off by default** everywhere (:data:`NULL_TELEMETRY`
absorbs every call) and is purely observational: enabling it provably
changes no verdicts — see the configuration-invariance lattice
(``tests/mutation/test_config_lattice.py``) and DESIGN §5.  Enable it on
the table CLIs with ``--trace-out PATH`` / ``--obs-summary``; validate a
recorded trace with ``python -m repro.obs trace.jsonl``.
"""

from .schema import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    SchemaError,
    validate_event,
    validate_jsonl,
)
from .sinks import JsonlSink, MemorySink
from .summary import render_summary
from .telemetry import NULL_TELEMETRY, NullTelemetry, Span, Telemetry, coalesce

__all__ = [
    "EVENT_KINDS",
    "JsonlSink",
    "MemorySink",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SCHEMA_VERSION",
    "SchemaError",
    "Span",
    "Telemetry",
    "coalesce",
    "render_summary",
    "validate_event",
    "validate_jsonl",
]

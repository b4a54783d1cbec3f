"""Event sinks: where telemetry events go.

A sink is any callable taking one event dict; these two cover the
shipped needs — a line-buffered JSONL file for ``--trace-out`` (one
schema-versioned JSON object per line, live-tailable) and an in-memory
list for tests and programmatic consumers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


class MemorySink:
    """Collects events in order; ``events`` is the live list."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.closed = False

    def __call__(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class JsonlSink:
    """Streams events to ``path``, one JSON object per line.

    The file is opened once (line-buffered, so every event reaches the OS
    as it happens — a crashed run leaves a readable trace) and truncated:
    a trace file describes exactly one run.  Keys are sorted so identical
    events serialize identically across runs.
    """

    def __init__(self, path) -> None:
        self._path = str(path)
        self._stream = open(self._path, "w", encoding="utf-8", buffering=1)

    @property
    def path(self) -> str:
        return self._path

    def __call__(self, event: Dict[str, Any]) -> None:
        self._stream.write(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        )

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

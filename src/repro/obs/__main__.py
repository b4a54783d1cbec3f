"""Trace validation CLI: ``python -m repro.obs TRACE.jsonl [...]``.

Validates every line of one or more JSONL trace files against the
telemetry event schema and prints per-kind counts.  Exit status 0 when
every file conforms, 1 on the first schema violation (naming file and
line), 2 on unreadable input — the gate the ``mutation-gates`` CI job
runs over a recorded Table 1 trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .schema import SchemaError, validate_jsonl


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Validate telemetry JSONL traces against the event schema.",
    )
    parser.add_argument("traces", nargs="+", metavar="TRACE",
                        help="JSONL trace file written by --trace-out")
    arguments = parser.parse_args(argv)
    for trace in arguments.traces:
        try:
            with open(trace, "r", encoding="utf-8") as stream:
                lines = stream.readlines()
        except OSError as error:
            print(f"{trace}: unreadable ({error})", file=sys.stderr)
            return 2
        try:
            count = validate_jsonl(lines)
        except SchemaError as error:
            print(f"{trace}: {error}", file=sys.stderr)
            return 1
        kinds: dict = {}
        for line in lines:
            if line.strip():
                kind = json.loads(line).get("kind")
                kinds[kind] = kinds.get(kind, 0) + 1
        breakdown = ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds))
        print(f"{trace}: ok — {count} events ({breakdown})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.analysis`` — the concat-lint command line.

Usage::

    python -m repro.analysis                       # lint shipped components
    python -m repro.analysis src/repro/components  # same, explicit
    python -m repro.analysis repro.components.stack --format json
    python -m repro.analysis path/to/component.py --disable CL004,CL011
    python -m repro.analysis --list-rules

Exit status: 0 clean, 1 when error-severity findings remain (or warnings
under ``--strict``), 2 when a target cannot be resolved or imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import LintConfig
from .loader import TargetError
from .registry import default_registry
from .report import render_json, render_sarif, render_text, summary_line
from .runner import default_component_target, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=("concat-lint: static conformance analysis of "
                     "self-testable components against their embedded "
                     "t-spec and transaction flow model."),
    )
    parser.add_argument(
        "targets", nargs="*",
        help="files, directories, or dotted module paths to lint "
             "(default: the shipped repro.components package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--disable", action="append", default=[], metavar="RULES",
        help="comma-separated rule ids/names to switch off "
             "(e.g. CL004,mutation-applicability)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="comma-separated rule ids/names; when given, only these run",
    )
    parser.add_argument(
        "--severity", action="append", default=[], metavar="RULE=LEVEL",
        help="override a rule's severity, e.g. --severity CL004=error",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in text output",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _split_all(values: List[str]) -> List[str]:
    parts: List[str] = []
    for value in values:
        parts.extend(part for part in value.split(",") if part.strip())
    return parts


def _parse_severities(values: List[str]) -> dict:
    overrides = {}
    for value in _split_all(values):
        if "=" not in value:
            raise ValueError(
                f"--severity expects RULE=LEVEL, got {value!r}")
        rule, _, level = value.partition("=")
        overrides[rule] = level
    return overrides


def list_rules() -> str:
    rows = default_registry().table()
    id_width = max(len(row["id"]) for row in rows)
    name_width = max(len(row["name"]) for row in rows)
    lines = [
        f"{row['id']:<{id_width}}  {row['name']:<{name_width}}  "
        f"{row['severity']:<7}  {row['summary']}"
        for row in rows
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout went away mid-print (`... | head`): the lint itself
        # finished, so die quietly like a well-behaved filter
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(list_rules())
        return 0

    try:
        config = LintConfig.build(
            disable=_split_all(options.disable),
            select=_split_all(options.select),
            severities=_parse_severities(options.severity),
            strict=options.strict,
        )
    except ValueError as error:
        print(f"repro.analysis: {error}", file=sys.stderr)
        return 2

    targets = options.targets or [default_component_target()]
    try:
        result = lint_paths(targets, config)
    except TargetError as error:
        print(f"repro.analysis: {error}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(render_json(result))
    elif options.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, show_suppressed=options.show_suppressed))

    if options.format != "text":
        print(summary_line(result), file=sys.stderr)
    return result.exit_code(strict=options.strict)

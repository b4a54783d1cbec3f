"""Shared CLI plumbing for the table experiments.

Every table CLI accepts the same incremental-run flags:

* ``--cache-dir DIR`` — replay mutant outcomes from (and record them into)
  a content-addressed cache under ``DIR``; a warm rerun of an unchanged
  experiment executes zero mutant test cases (see
  :mod:`repro.mutation.cache` and README "Incremental runs");
* ``--cache-stats`` — print hit/miss/invalidation counters after each
  mutation run (lines start with ``cache`` so table output can be compared
  across runs with a simple filter);
* ``--cache-compact`` — rewrite the cache's segment file after the run,
  dropping superseded and damaged records (prints a ``cache compact:``
  line).

They also share the coverage-guided pruning switch:

* ``--no-prune`` — disable coverage-guided mutant×case pruning (on by
  default; pruning skips test cases whose reference execution never runs
  the mutated line and runs the calls before it unguarded — verdicts are
  bit-identical either way, see :mod:`repro.mutation.coverage`).

And the static-triage switch:

* ``--no-static-triage`` — disable the static equivalent-mutant triage
  pass (on by default; triage proves mutants equivalent by normalized-AST
  or bytecode identity and groups bytecode-redundant mutants so only one
  representative executes — every *executed* mutant's verdict is
  bit-identical either way, see :mod:`repro.mutation.triage`).

And the run-telemetry flags (:mod:`repro.obs`):

* ``--trace-out PATH`` — stream schema-versioned JSONL span/counter
  events for the whole run (generation, reference pass, per-mutant and
  per-case execution, worker lifecycle, cache counters) to ``PATH``;
* ``--obs-summary`` — print the human-readable telemetry summary after
  the run (every line starts with ``obs`` so row comparisons can strip
  it, like the ``cache…`` lines).

Telemetry is off when neither flag is given — zero events are emitted.

Engine, worker count, batch size, store temperature, pruning and
telemetry never change a verdict; one test module checks that contract
over their whole lattice (``tests/mutation/test_config_lattice.py``, and
``benchmarks/config_lattice.py`` on the full-size Tables 2 and 3).

Counts are checked as they are parsed (:func:`count_at_least`): a
``--workers``, ``--max-cases`` or ``--max-scenarios`` the run cannot
honour is a usage error (exit 2), and :func:`exit_on_repro_error` turns a
:class:`~repro.core.errors.ReproError` such as an unknown ``--methods``
name into ``error: …`` and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Optional, Sequence

from ..core.errors import ReproError
from ..mutation.analysis import MutationRun
from ..mutation.cache import MutationOutcomeCache
from ..obs import JsonlSink, Telemetry


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("incremental runs (outcome cache)")
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed mutant-outcome cache directory "
             "(warm reruns of an unchanged experiment re-execute nothing)",
    )
    group.add_argument(
        "--cache-stats", action="store_true",
        help="print cache hit/miss/invalidation counters after the run",
    )
    group.add_argument(
        "--cache-compact", action="store_true",
        help="compact the cache segment file after the run (drops "
             "superseded and damaged records; keeps every live verdict)",
    )


def count_at_least(minimum: int) -> Callable[[str], int]:
    """The argparse ``type`` of an integer count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return count


def exit_on_repro_error(main: Callable[[Optional[Sequence[str]]], int]
                        ) -> Callable[[Optional[Sequence[str]]], int]:
    """Wrap a CLI ``main``: a :class:`ReproError` prints ``error: …`` on
    stderr and exits 2, as ``python -m repro.scenarios`` does."""

    @functools.wraps(main)
    def guarded(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return main(argv)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    return guarded


def add_workers_argument(parser: argparse.ArgumentParser,
                         default: int = 1,
                         help: Optional[str] = None) -> None:
    """The shared ``--workers N`` flag (serial when 1; the parallel
    engine's verdicts are field-for-field identical at any count)."""
    parser.add_argument(
        "--workers", type=count_at_least(1), default=default, metavar="N",
        help=help or ("worker processes for mutation analysis "
                      f"(default {default}; 1 = serial engine, verdicts "
                      f"identical)"),
    )


def add_prune_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("coverage-guided pruning")
    group.add_argument(
        "--no-prune", action="store_true",
        help="disable coverage-guided mutant×case pruning (pruning skips "
             "cases that never execute the mutated line; verdicts are "
             "identical with or without it)",
    )


def add_triage_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("static equivalent-mutant triage")
    group.add_argument(
        "--no-static-triage", action="store_true",
        help="disable the static triage pass (triage proves equivalents "
             "by AST/bytecode identity and executes one representative "
             "per redundancy class; executed verdicts are identical "
             "with or without it)",
    )


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("run telemetry")
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write schema-versioned JSONL telemetry events to PATH "
             "(spans, point events, final counters; validate with "
             "`python -m repro.obs PATH`)",
    )
    group.add_argument(
        "--obs-summary", action="store_true",
        help="print the telemetry summary after the run (lines start "
             "with 'obs' for easy filtering)",
    )


def prune_from_arguments(arguments: argparse.Namespace) -> bool:
    """Whether pruning is enabled (default) under the parsed flags."""
    return not arguments.no_prune


def static_triage_from_arguments(arguments: argparse.Namespace) -> bool:
    """Whether static triage is enabled (default) under the parsed flags."""
    return not arguments.no_static_triage


def telemetry_from_arguments(arguments: argparse.Namespace
                             ) -> Optional[Telemetry]:
    """The telemetry session the flags describe, or ``None`` (off).

    Off is the default: with neither ``--trace-out`` nor
    ``--obs-summary``, no session exists and the pipeline runs on the
    shared null object, emitting zero events.
    """
    if not arguments.trace_out and not arguments.obs_summary:
        return None
    sink = JsonlSink(arguments.trace_out) if arguments.trace_out else None
    return Telemetry(sink=sink)


def finish_telemetry(telemetry: Optional[Telemetry],
                     arguments: argparse.Namespace) -> None:
    """Close the session (emitting the counters event) and print the
    summary when asked."""
    if telemetry is None:
        return
    telemetry.close()
    if arguments.obs_summary:
        print(telemetry.summary())


def cache_from_arguments(arguments: argparse.Namespace,
                         telemetry: Optional[Telemetry] = None
                         ) -> Optional[MutationOutcomeCache]:
    """The cache the flags describe, or ``None`` when caching is off."""
    if not arguments.cache_dir:
        return None
    return MutationOutcomeCache(arguments.cache_dir, telemetry=telemetry)


def print_cache_stats(run: Optional[MutationRun], label: str = "cache") -> None:
    """One ``cache…`` line per run (kept greppable for CI comparisons)."""
    if run is None or run.cache_stats is None:
        print(f"{label}: disabled")
        return
    print(f"{label}: {run.cache_stats.format()}")


def compact_cache(cache: Optional[MutationOutcomeCache],
                  arguments: argparse.Namespace) -> None:
    """Compact the store when ``--cache-compact`` was given.

    Prints one ``cache compact: …`` line — prefixed ``cache`` like the
    stats lines, so CI row diffs strip it with the same filter.
    """
    if cache is None or not getattr(arguments, "cache_compact", False):
        return
    report = cache.compact()
    print(f"cache compact: {report.format()}")

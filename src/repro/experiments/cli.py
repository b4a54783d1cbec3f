"""Shared CLI plumbing for the Table 2 and Table 3 experiments and the
scenario sweep.

The Table 2 and Table 3 CLIs accept the same incremental-run flags, and
``python -m repro.scenarios run`` accepts them too (its store holds one
record per scenario):

* ``--cache-dir DIR`` — replay each mutation run from (and record it
  into) a content-addressed store under ``DIR``, one record per run; a
  warm rerun of an unchanged experiment executes zero mutant test cases,
  and any changed input misses the whole run (see
  :mod:`repro.mutation.cache` and README "Incremental runs");
* ``--cache-stats`` — print hit/miss/corrupt counters after each
  mutation run (lines start with ``cache`` so table output can be compared
  across runs with a simple filter).

All three always prune (:mod:`repro.mutation.coverage`) and triage
(:mod:`repro.mutation.triage`).  The exhaustive run is an engine option,
``MutationAnalysis(prune=False)``, which the configuration lattices
compare every pruned run against.

All three share the run-telemetry flags (:mod:`repro.obs`):

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
        help="content-addressed store with one record per mutation run, "
             "or per scenario in a sweep (warm reruns of an unchanged "
             "experiment re-execute nothing)",
    )
    group.add_argument(
        "--cache-stats", action="store_true",
        help="print cache hit/miss/corrupt counters after the run",
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
                         help: Optional[str] = None) -> None:
    """The shared ``--workers N`` flag (serial when 1; the parallel
    engine's verdicts are field-for-field identical at any count)."""
    parser.add_argument(
        "--workers", type=count_at_least(1), default=1, metavar="N",
        help=help or ("worker processes for mutation analysis "
                      "(default 1; 1 = serial engine, verdicts identical)"),
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


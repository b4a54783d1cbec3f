"""``python -m repro.scenarios`` — the scenario-corpus command line.

Subcommands:

* ``list`` — show the (filtered, sharded) registry entries;
* ``validate`` — full registry validation; exit 1 with every problem on
  stderr when anything is wrong;
* ``run`` — execute the sweep through the mutation pipeline and write
  the aggregated JSON report; exit 1 when any unmutated reference run
  failed its oracle or any scenario errored (the CI gate);
* ``report`` — merge shard reports produced by ``run --report-out`` and
  apply the same gate to the merged whole.

The incremental-run and telemetry flags, and the count checks of
``--workers`` and ``--max-scenarios``, are the shared ones the table
experiments use (:mod:`repro.experiments.cli`).  ``--workers N`` runs
whole scenarios on N worker processes, each resolving and running the
scenarios of its task from their recipes; this process only looks them
up, stores and reports.  The store holds scenario records only, so
``--cache-stats`` prints the scenario line alone.  A sweep, like the
tables, always prunes and triages.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ..core.errors import ReproError
from ..experiments.cli import (
    add_cache_arguments,
    add_obs_arguments,
    add_workers_argument,
    cache_from_arguments,
    count_at_least,
    finish_telemetry,
    telemetry_from_arguments,
)
from .registry import (
    ScenarioRegistry,
    builtin_registry,
    load_registry,
    parse_shard,
)
from .sweep import (
    SweepReport,
    SweepRunner,
    merge_reports,
    report_from_mapping,
)


def _add_selection_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry", default=None, metavar="PATH",
        help="scenario registry: a *.json file or a directory of them "
             "(default: the builtin corpus)",
    )
    parser.add_argument(
        "--filter", default="", metavar="EXPR",
        help="comma-separated terms, all must match (group, tag, family, "
             "component ref, or ident substring) — e.g. 'smoke' or "
             "'queue,indvarrepreq'",
    )
    parser.add_argument(
        "--shard", default=None, metavar="K/N",
        help="run shard K of N (1-based; assignment hashes each "
             "scenario's content fingerprint — stable, disjoint, "
             "exhaustive)",
    )


def _registry_from(arguments: argparse.Namespace) -> ScenarioRegistry:
    if arguments.registry:
        return load_registry(arguments.registry)
    return builtin_registry()


def _selected(arguments: argparse.Namespace) -> ScenarioRegistry:
    registry = _registry_from(arguments).filtered(arguments.filter)
    if arguments.shard:
        registry = registry.shard(*parse_shard(arguments.shard))
    return registry


def _cmd_list(arguments: argparse.Namespace) -> int:
    registry = _selected(arguments)
    for scenario in registry:
        line = (f"{scenario.ident:<36} {scenario.component.describe():<22} "
                f"oracle={scenario.oracle}")
        if arguments.verbose:
            line += (f" operators={','.join(scenario.operators)}"
                     f" groups={','.join(scenario.groups) or '-'}"
                     f" tags={','.join(scenario.tags) or '-'}")
        print(line)
    print(f"{len(registry)} scenarios "
          f"(registry {registry.fingerprint()[:16]})")
    return 0


def _cmd_validate(arguments: argparse.Namespace) -> int:
    # load_registry already validates; the builtin path validates here.
    registry = _registry_from(arguments)
    problems = registry.validate()
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    print(f"ok: {len(registry)} scenarios, "
          f"registry {registry.fingerprint()[:16]}")
    return 0


def _write_report(report: SweepReport,
                  arguments: argparse.Namespace) -> None:
    if arguments.report_out:
        path = Path(arguments.report_out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json(timings=True), encoding="utf-8")
        print(f"report: {path}")


def _gate(report: SweepReport) -> int:
    """The shared run/report exit gate."""
    if report.passed:
        return 0
    for result in report.errors:
        print(f"error: {result.ident}: {result.error}", file=sys.stderr)
    if report.total_oracle_failures:
        print(
            f"error: {report.total_oracle_failures} oracle failure(s) on "
            f"unmutated components (BIT suites must run green)",
            file=sys.stderr,
        )
    return 1


def _cmd_run(arguments: argparse.Namespace) -> int:
    registry = _registry_from(arguments)
    shard = parse_shard(arguments.shard) if arguments.shard else None
    telemetry = telemetry_from_arguments(arguments)
    cache = cache_from_arguments(arguments, telemetry)
    runner = SweepRunner(
        registry,
        workers=arguments.workers,
        workspace=arguments.workspace,
        cache=cache,
        telemetry=telemetry,
    )

    def progress(position, total, scenario, result):
        if not arguments.verbose:
            return
        status = "ERROR" if result.error else (
            "FAIL" if result.oracle_failures else "ok"
        )
        print(f"[{position:>4}/{total}] {scenario.ident:<36} "
              f"{result.killed:>3}/{result.mutants_total:<4} killed  "
              f"{status}")

    report = runner.run(
        filter_expression=arguments.filter,
        shard=shard,
        max_scenarios=arguments.max_scenarios,
        progress=progress,
    )
    # The artifact lands before any console output can fail (a closed
    # pipe must not cost CI its report upload).
    _write_report(report, arguments)
    print(report.render_text())
    if arguments.cache_stats and cache is not None:
        scenario_stats = cache.scenario_stats()
        print("scenario cache: "
              f"{scenario_stats['hits']} hits, "
              f"{scenario_stats['misses']} misses, "
              f"{scenario_stats['stores']} stores, "
              f"{scenario_stats['corrupt']} corrupt")
    finish_telemetry(telemetry, arguments)
    return _gate(report)


def _cmd_report(arguments: argparse.Namespace) -> int:
    reports: List[SweepReport] = []
    for name in arguments.reports:
        try:
            payload = json.loads(Path(name).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 2
        reports.append(report_from_mapping(payload))
    merged = merge_reports(reports)
    _write_report(merged, arguments)
    print(merged.render_text())
    return _gate(merged)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Scenario corpus: registry inspection and sweep runs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="show the (filtered, sharded) registry entries"
    )
    _add_selection_arguments(list_parser)
    list_parser.add_argument("-v", "--verbose", action="store_true",
                             help="also show operators, groups and tags")
    list_parser.set_defaults(handler=_cmd_list)

    validate_parser = commands.add_parser(
        "validate", help="validate a registry (exit 1 with all problems)"
    )
    validate_parser.add_argument(
        "--registry", default=None, metavar="PATH",
        help="registry file or directory (default: the builtin corpus)",
    )
    validate_parser.set_defaults(handler=_cmd_validate)

    run_parser = commands.add_parser(
        "run", help="execute the sweep and write the aggregated report"
    )
    _add_selection_arguments(run_parser)
    add_workers_argument(
        run_parser,
        help="worker processes that each run whole scenarios (default 1; "
             "1 = in this process, reports identical)",
    )
    run_parser.add_argument(
        "--workspace", default=None, metavar="DIR",
        help="directory for materialized generated components "
             "(default: a shared per-machine temp workspace)",
    )
    run_parser.add_argument(
        "--max-scenarios", type=count_at_least(0), default=0, metavar="N",
        help="run at most N scenarios (0 = all selected)",
    )
    run_parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the aggregated JSON report to PATH",
    )
    run_parser.add_argument("-v", "--verbose", action="store_true",
                            help="print one progress line per scenario")
    add_cache_arguments(run_parser)
    add_obs_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    report_parser = commands.add_parser(
        "report", help="merge shard reports and re-apply the gate"
    )
    report_parser.add_argument(
        "reports", nargs="+", metavar="REPORT.json",
        help="shard reports written by `run --report-out`",
    )
    report_parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the merged JSON report to PATH",
    )
    report_parser.set_defaults(handler=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

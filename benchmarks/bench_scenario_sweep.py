"""Scenario sweep throughput — the CI corpus through the sweep runner.

Runs the builtin registry's ``ci`` group (40 scenarios: 5 generated
families × 2 seeds × 4 operators) through one
:class:`~repro.scenarios.sweep.SweepRunner` per configuration:

* ``serial`` — workers=1 (the reference row);
* ``parallel`` — workers=2 on the shared worker pool;
* ``warm`` — a cold workers=2 sweep that fills a scenario store, then a
  second one over the populated store (every scenario replays from the
  segment file: zero mutants executed, zero reference passes).

Every configuration's deterministic report projection must be
byte-identical to the serial row's, and the whole corpus must gate green
(zero oracle failures, zero scenario errors).

Raw wall-clock is recorded, not asserted: on a single-CPU container two
workers cannot beat the serial loop.  The warm row is the
machine-independent win and is asserted to replay entirely from the
store.

Results go to ``BENCH_scenario_sweep.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from pathlib import Path

from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.parallel import shutdown_shared_pool
from repro.scenarios import SweepRunner, builtin_registry

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_scenario_sweep.json"

FILTER = "ci"


def run_bench() -> dict:
    registry = builtin_registry()
    workspace = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-sweep-cache-"))

    serial_report = SweepRunner(
        registry, workers=1, workspace=workspace
    ).run(filter_expression=FILTER)
    baseline = serial_report.to_json(timings=False)

    parallel_report = SweepRunner(
        registry, workers=2, workspace=workspace
    ).run(filter_expression=FILTER)

    cold_report = SweepRunner(
        registry, workers=2, workspace=workspace,
        cache=MutationOutcomeCache(cache_dir),
    ).run(filter_expression=FILTER)
    warm_cache = MutationOutcomeCache(cache_dir)
    warm_report = SweepRunner(
        registry, workers=2, workspace=workspace, cache=warm_cache,
    ).run(filter_expression=FILTER)
    shutdown_shared_pool()

    return {
        "benchmark": "scenario_sweep",
        "workload": {
            "filter": FILTER,
            "registry_fingerprint": registry.fingerprint()[:16],
            "scenarios": len(serial_report.results),
            "mutants": serial_report.mutants_total,
            "killed": serial_report.mutants_killed,
        },
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "serial_seconds": round(serial_report.elapsed_seconds, 3),
        "parallel_seconds": round(parallel_report.elapsed_seconds, 3),
        "parallel_vs_serial": round(
            serial_report.elapsed_seconds / parallel_report.elapsed_seconds, 3
        ),
        "warm_cold_seconds": round(cold_report.elapsed_seconds, 3),
        "warm_seconds": round(warm_report.elapsed_seconds, 3),
        "warm_speedup": round(
            cold_report.elapsed_seconds / warm_report.elapsed_seconds, 2
        ),
        "warm_scenario_hits": warm_cache.scenario_stats()["hits"],
        "deterministic_across_engines": all(
            report.to_json(timings=False) == baseline
            for report in (parallel_report, cold_report, warm_report)
        ),
        "oracle_failures": serial_report.total_oracle_failures,
        "scenario_errors": len(serial_report.errors),
    }


def write_report(data: dict) -> None:
    OUTPUT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def test_scenario_sweep_throughput(benchmark):
    from conftest import run_once

    data = run_once(benchmark, run_bench)
    write_report(data)

    print()
    print(json.dumps(data, indent=2))

    assert data["workload"]["scenarios"] == 40
    assert data["deterministic_across_engines"]
    assert data["oracle_failures"] == 0
    assert data["scenario_errors"] == 0
    # The warm sweep replays every scenario from the store.
    assert data["warm_scenario_hits"] == data["workload"]["scenarios"]
    assert data["warm_seconds"] < data["warm_cold_seconds"]
    assert OUTPUT_PATH.exists()


if __name__ == "__main__":
    report = run_bench()
    write_report(report)
    print(json.dumps(report, indent=2))

"""Incremental outcome cache — cold vs warm wall-clock and store shape.

Runs the Table 2 battery without the probe (the full typed mutant pool
over the Table 2 target methods of ``CSortableObList``, truncated suite)
three times into a fresh cache directory — once with no cache (fresh
baseline), once cold (populating), once warm (replaying) — plus a warm
run on the 2-worker engine, and writes ``BENCH_mutation_cache.json`` at
the repository root, with the CPU count and Python version it ran on.

The asserted contract is the cached≡fresh guarantee under real load: every
warm run must pass ``same_results`` against the fresh baseline with a 100%
hit rate (zero mutant executions), and the cold fill must leave exactly
one record file, the run's.  Store shape is reported as the record count
and their summed bytes.  Cold overhead (``cold/fresh - 1``) is recorded
always and asserted only in gate mode::

    python benchmarks/bench_mutation_cache.py --assert-overhead 0.20

which exits non-zero if the cold run is more than 20% slower than fresh —
the CI throughput gate.  The pytest entry point records but never asserts
wall-clock (timing assertions don't belong in the default suite).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.experiments.config import TABLE2_METHODS, sortable_oracle, sortable_suite
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.mutation.parallel import ParallelMutationAnalysis

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_mutation_cache.json"

MAX_CASES = 200


def _workload():
    suite = sortable_suite()
    suite = replace(suite, cases=suite.cases[:MAX_CASES])
    mutants, _ = generate_mutants(
        CSortableObList, TABLE2_METHODS, type_model=OBLIST_TYPE_MODEL
    )
    return suite, mutants


def _stats_dict(run):
    stats = run.cache_stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "corrupt": stats.corrupt,
        "hit_rate": round(stats.hit_rate, 4),
    }


def run_bench() -> dict:
    suite, mutants = _workload()

    fresh = MutationAnalysis(
        CSortableObList, suite, oracle=sortable_oracle()
    ).analyze(mutants)

    with tempfile.TemporaryDirectory(prefix="bench-mutation-cache-") as root:
        cache = MutationOutcomeCache(root)
        cold = MutationAnalysis(
            CSortableObList, suite, oracle=sortable_oracle(), cache=cache
        ).analyze(mutants)
        store = {
            "records": cache.live_records(),
            "bytes": cache.segment_bytes(),
        }
        warm = MutationAnalysis(
            CSortableObList, suite, oracle=sortable_oracle(), cache=cache
        ).analyze(mutants)
        warm_parallel = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=sortable_oracle(), cache=cache,
            workers=2,
        ).analyze(mutants)

    return {
        "benchmark": "mutation_cache",
        "workload": {
            "class": "CSortableObList",
            "methods": list(TABLE2_METHODS),
            "mutants": len(mutants),
            # Statically-triaged mutants are never executed, so the hit
            # and miss counts track the dispatched pool.
            "dispatched": fresh.dispatched_count,
            "suite_cases": len(suite),
            "killed": len(fresh.killed),
        },
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "fresh_seconds": round(fresh.elapsed_seconds, 3),
        "cold": {
            "seconds": round(cold.elapsed_seconds, 3),
            "identical_to_fresh": cold.same_results(fresh),
            "overhead_vs_fresh": round(
                cold.elapsed_seconds / fresh.elapsed_seconds - 1.0, 3
            ),
            "cache": _stats_dict(cold),
        },
        "warm": {
            "seconds": round(warm.elapsed_seconds, 3),
            "identical_to_fresh": warm.same_results(fresh),
            "speedup_vs_cold": round(
                cold.elapsed_seconds / warm.elapsed_seconds, 3
            ),
            "cache": _stats_dict(warm),
        },
        "warm_parallel_2": {
            "seconds": round(warm_parallel.elapsed_seconds, 3),
            "identical_to_fresh": warm_parallel.same_results(fresh),
            "cache": _stats_dict(warm_parallel),
        },
        "store": store,
    }


def check_contract(data: dict) -> None:
    """The load-independent guarantees every bench run must satisfy."""
    assert data["cold"]["identical_to_fresh"]
    assert data["warm"]["identical_to_fresh"]
    assert data["warm_parallel_2"]["identical_to_fresh"]
    assert data["cold"]["cache"]["hits"] == 0
    assert data["cold"]["cache"]["misses"] == data["workload"]["dispatched"]
    assert data["warm"]["cache"]["hit_rate"] == 1.0
    assert data["warm_parallel_2"]["cache"]["hit_rate"] == 1.0
    # One record for the whole run.
    assert data["store"]["records"] == 1
    assert data["store"]["bytes"] > 0


def write_report(data: dict) -> None:
    OUTPUT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def test_cache_cold_vs_warm(benchmark):
    from conftest import run_once

    data = run_once(benchmark, run_bench)
    write_report(data)

    print()
    print(json.dumps(data, indent=2))

    check_contract(data)
    assert OUTPUT_PATH.exists()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cache bench: cold/warm wall-clock + store shape."
    )
    parser.add_argument(
        "--assert-overhead", type=float, default=None, metavar="FRACTION",
        help="gate mode: fail if cold overhead vs fresh exceeds FRACTION "
             "(e.g. 0.20 for the 20%% CI gate)",
    )
    arguments = parser.parse_args(argv)

    report = run_bench()
    write_report(report)
    print(json.dumps(report, indent=2))
    check_contract(report)

    if arguments.assert_overhead is not None:
        overhead = report["cold"]["overhead_vs_fresh"]
        if overhead > arguments.assert_overhead:
            print(f"FAIL: cold overhead {overhead:.1%} exceeds the "
                  f"{arguments.assert_overhead:.0%} gate")
            return 1
        print(f"cold overhead {overhead:.1%} within the "
              f"{arguments.assert_overhead:.0%} gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Static equivalent-mutant triage — executions avoided, probe time saved.

Runs the Table 2 workload (the full typed mutant pool over the five sort
methods of ``CSortableObList``, truncated suite) once with the static
triage pass (the default) and once with ``static_triage=False``, and
writes ``BENCH_mutation_triage.json`` at the repository root.

The asserted contract is soundness under real load: the two runs must
pass ``same_verdicts`` (identical kill verdicts on every executed
mutant), every triaged mutant must be withheld from dispatch
(``dispatched == mutants - skipped``), and no statically-equivalent
mutant may be marked killed.  The triage wall-clock, the number of
executions avoided, and the probe time saved on a capped survivor pool
are *recorded* for machines to compare; on this battery the typed pool
contains one redundancy class per ``// 2`` spelling in ``ShellSort`` and
no AST/bytecode-equivalent mutants, so the expected avoidance is small
but non-zero.

A second test triages every builtin scenario battery, built as the sweep
builds it, with the pass and with the reference normalization of
``tests/mutation/triage_reference.py`` (the path the pass replaced), and
requires field-identical ``StaticTriage`` values.  Tier-1 checks one
battery per scenario family; this test checks the whole corpus.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.components import (
    CSortableObList,
    OBLIST_TYPE_MODEL,
    component_by_name,
    type_model_for,
)
from repro.experiments.config import TABLE2_METHODS, sortable_oracle, sortable_suite
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.equivalence import probe_equivalence
from repro.mutation.generate import build_battery, generate_mutants
from repro.mutation.triage import triage_mutants
from repro.scenarios.genspec import GeneratorSpec, synthesize
from repro.scenarios.materialize import materialize
from repro.scenarios.registry import builtin_registry, default_methods

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_mutation_triage.json"

MAX_CASES = 200

#: Cap the probe pool so the benchmark stays tractable; statically-triaged
#: survivors are always force-included so the skip path is exercised.
PROBE_POOL = 18
PROBE_OPTIONS = dict(max_transactions=30, extra_variants=0)


def _workload():
    suite = sortable_suite()
    suite = replace(suite, cases=suite.cases[:MAX_CASES])
    mutants, _ = generate_mutants(
        CSortableObList, TABLE2_METHODS, type_model=OBLIST_TYPE_MODEL
    )
    return suite, mutants


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def run_bench() -> dict:
    suite, mutants = _workload()

    # The triage pass alone.
    triage, triage_seconds = _timed(
        triage_mutants, CSortableObList, mutants, type_model=OBLIST_TYPE_MODEL
    )

    # Full analyses with and without the pass.
    with_triage = MutationAnalysis(
        CSortableObList, suite, oracle=sortable_oracle(),
        triage_type_model=OBLIST_TYPE_MODEL,
    ).analyze(mutants)
    without_triage = MutationAnalysis(
        CSortableObList, suite, oracle=sortable_oracle(), static_triage=False,
    ).analyze(mutants)

    # Probe a capped survivor pool with and without the triage proofs.
    alive = {o.mutant.ident for o in with_triage.outcomes if not o.killed}
    survivors = [m for m in mutants if m.ident in alive]
    forced = [m for m in survivors if with_triage.triage.is_skipped(m.ident)]
    rest = [m for m in survivors if not with_triage.triage.is_skipped(m.ident)]
    pool = (forced + rest)[:max(PROBE_POOL, len(forced))]
    spec = CSortableObList.__tspec__
    probe_plain, probe_plain_seconds = _timed(
        probe_equivalence, CSortableObList, spec, pool, **PROBE_OPTIONS
    )
    probe_triaged, probe_triaged_seconds = _timed(
        probe_equivalence, CSortableObList, spec, pool,
        triage=with_triage.triage, **PROBE_OPTIONS,
    )

    return {
        "benchmark": "mutation_triage",
        "workload": {
            "class": "CSortableObList",
            "methods": list(TABLE2_METHODS),
            "mutants": len(mutants),
            "suite_cases": len(suite),
        },
        "cpu_count": os.cpu_count(),
        "triage": {
            "seconds": round(triage_seconds, 3),
            "ast_equivalent": len(triage.ast_equivalent),
            "bytecode_equivalent": len(triage.bytecode_equivalent),
            "redundant": len(triage.redundant),
            "executions_avoided": triage.skipped,
        },
        "with_triage": {
            "seconds": round(with_triage.elapsed_seconds, 3),
            "dispatched": with_triage.dispatched_count,
            "killed": len(with_triage.killed),
        },
        "without_triage": {
            "seconds": round(without_triage.elapsed_seconds, 3),
            "dispatched": without_triage.dispatched_count,
            "killed": len(without_triage.killed),
        },
        "verdicts_identical": with_triage.same_verdicts(without_triage),
        "probe": {
            "pool": len(pool),
            "skipped_by_triage": len(
                [m for m in pool if with_triage.triage.is_skipped(m.ident)]
            ),
            "plain_seconds": round(probe_plain_seconds, 3),
            "triaged_seconds": round(probe_triaged_seconds, 3),
            "seconds_saved": round(
                probe_plain_seconds - probe_triaged_seconds, 3
            ),
            "classifications_identical": (
                set(probe_plain.likely_equivalent)
                == set(probe_triaged.likely_equivalent)
            ),
        },
    }


def write_report(data: dict) -> None:
    OUTPUT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def test_triage_avoids_executions_soundly(benchmark):
    from conftest import run_once

    data = run_once(benchmark, run_bench)
    write_report(data)

    print()
    print(json.dumps(data, indent=2))

    # The contract under real load: identical verdicts, zero dispatches of
    # triaged mutants, the known ShellSort redundancy class detected.
    assert data["verdicts_identical"]
    triage = data["triage"]
    assert triage["executions_avoided"] == (
        triage["ast_equivalent"] + triage["bytecode_equivalent"]
        + triage["redundant"]
    )
    assert triage["redundant"] >= 2
    assert data["with_triage"]["dispatched"] == (
        data["workload"]["mutants"] - triage["executions_avoided"]
    )
    assert data["without_triage"]["dispatched"] == data["workload"]["mutants"]
    assert data["probe"]["classifications_identical"]
    assert OUTPUT_PATH.exists()


def builtin_scenario_batteries(workspace):
    """``(class, battery, type model)`` for every builtin scenario,
    generated as ``SweepRunner`` generates it."""
    classes = {}
    for scenario in builtin_registry():
        selector = scenario.component
        if selector.is_generated:
            key = (selector.family, selector.seed)
            if key not in classes:
                classes[key] = materialize(
                    synthesize(GeneratorSpec(*key)), workspace
                )
            cls, type_model = classes[key], None
        else:
            cls = component_by_name(selector.ref)
            type_model = type_model_for(selector.ref)
        mutants, _, _ = build_battery(
            cls, scenario.methods or default_methods(cls.__tspec__),
            operator_names=scenario.operators,
            type_model=type_model,
            max_mutants=scenario.budgets.max_mutants,
        )
        yield cls, mutants, type_model


def test_builtin_scenarios_triage_as_the_reference(tmp_path):
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.mutation.triage_reference import assert_same_triage

    checked = mutants_checked = 0
    for cls, mutants, type_model in builtin_scenario_batteries(tmp_path):
        assert_same_triage(cls, mutants, type_model)
        checked += 1
        mutants_checked += len(mutants)
    print(f"\n{checked} builtin scenario batteries, {mutants_checked} "
          f"mutants: every StaticTriage field-identical to the reference")
    assert checked == len(builtin_registry()) == 106


if __name__ == "__main__":
    report = run_bench()
    write_report(report)
    print(json.dumps(report, indent=2))

"""Experiment 2 — Table 3: base-class faults under the incremental suite.

Reproduces sec. 4's second experiment: interface-mutate three methods of
the **base** class ``CObList``, re-derive ``CSortableObList`` over each
mutated base, and run only the subclass's *incremental* test set (the
test cases for transactions containing new methods; inherited-only
transactions are not rerun, per sec. 3.4.2).

The paper's headline: scores drop from 95.7% (Table 2) to **63.5%**,
showing that "not retesting a transaction in the context of the subclass,
although cost effective […], can be dangerous".  For contrast, this module
can also run the base class's own full suite and the subclass's full
(non-incremental) suite over the same mutants.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from ..history.incremental import IncrementalPlan
from ..mutation.analysis import MutationRun, analyze_mutants
from ..mutation.cache import MutationOutcomeCache
from ..mutation.generate import GenerationReport, generate_mutants
from ..mutation.score import ScoreTable, build_score_table
from ..obs import Telemetry
from .cli import (
    add_cache_arguments,
    add_obs_arguments,
    add_workers_argument,
    cache_from_arguments,
    count_at_least,
    exit_on_repro_error,
    finish_telemetry,
    print_cache_stats,
    telemetry_from_arguments,
)
from .config import (
    EXPERIMENT_SEED,
    TABLE3_METHODS,
    incremental_plan,
    oblist_oracle,
    oblist_suite,
    sortable_oracle,
    sortable_suite,
    subclass_over_mutant_base,
    truncated_suite,
)


@dataclass(frozen=True)
class Table3Result:
    """Everything experiment 2 produces."""

    plan: IncrementalPlan
    generation: GenerationReport
    incremental_run: MutationRun
    incremental_table: ScoreTable
    base_suite_run: Optional[MutationRun] = None
    full_suite_run: Optional[MutationRun] = None

    @property
    def base_suite_table(self) -> Optional[ScoreTable]:
        if self.base_suite_run is None:
            return None
        return build_score_table(self.base_suite_run, methods=TABLE3_METHODS)

    @property
    def full_suite_table(self) -> Optional[ScoreTable]:
        if self.full_suite_run is None:
            return None
        return build_score_table(self.full_suite_run, methods=TABLE3_METHODS)

    def summary(self) -> str:
        parts = [
            f"Table 3 (incremental suite, {len(self.plan.executed_suite)} cases): "
            f"score {self.incremental_table.total_score:.1%} over "
            f"{self.incremental_table.total_generated} base-class mutants"
        ]
        base_table = self.base_suite_table
        if base_table is not None:
            parts.append(f"base's own suite: {base_table.total_score:.1%}")
        full_table = self.full_suite_table
        if full_table is not None:
            parts.append(f"full subclass suite: {full_table.total_score:.1%}")
        return "; ".join(parts)


def run_table3(seed: int = EXPERIMENT_SEED,
               methods: Tuple[str, ...] = TABLE3_METHODS,
               with_contrast_runs: bool = False,
               workers: int = 1,
               max_cases: Optional[int] = None,
               cache: Optional[MutationOutcomeCache] = None,
               telemetry: Optional[Telemetry] = None) -> Table3Result:
    """Execute experiment 2 end to end.

    ``with_contrast_runs`` additionally scores the same mutants under the
    base class's own suite and under the subclass's full suite — the
    comparison that substantiates the "retest inherited features" message.
    ``workers > 1`` runs every mutant battery on the parallel engine
    (serial-identical results); ``max_cases`` (at least 1) truncates the
    suites — a smoke/bench hook, not a paper configuration.  ``cache`` is
    shared by all three batteries: each run's record is keyed by its own
    suite, oracle and builder, so the contrast runs never
    cross-contaminate.
    Every battery prunes (base-class mutants are reached via inherited
    subclass methods, which the dynamic coverage recorder observes) and
    triages the shared ``CObList`` mutant pool.  Under ``workers > 1`` the
    batteries share one persistent worker pool, so the contrast runs
    reuse warm processes.
    """
    plan = incremental_plan(seed)
    mutants, generation = generate_mutants(
        CObList, methods, ident_prefix="B", type_model=OBLIST_TYPE_MODEL,
        telemetry=telemetry,
    )
    builder = subclass_over_mutant_base()

    def analysis(original_class, suite, oracle, class_builder=None):
        return analyze_mutants(
            original_class,
            truncated_suite(suite, max_cases),
            mutants,
            workers=workers,
            oracle=oracle,
            class_builder=class_builder,
            cache=cache,
            triage_type_model=OBLIST_TYPE_MODEL,
            telemetry=telemetry,
        )

    incremental_run = analysis(
        CSortableObList, plan.executed_suite, sortable_oracle(), builder
    )
    incremental_table = build_score_table(incremental_run, methods=methods)

    base_suite_run = None
    full_suite_run = None
    if with_contrast_runs:
        base_suite_run = analysis(CObList, oblist_suite(seed), oblist_oracle())
        full_suite_run = analysis(
            CSortableObList, sortable_suite(seed), sortable_oracle(), builder
        )

    return Table3Result(
        plan=plan,
        generation=generation,
        incremental_run=incremental_run,
        incremental_table=incremental_table,
        base_suite_run=base_suite_run,
        full_suite_run=full_suite_run,
    )


@exit_on_repro_error
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.table3 [--workers N] …``."""
    parser = argparse.ArgumentParser(
        description="Run experiment 2 (Table 3: base-class faults, "
                    "incremental subclass suite)."
    )
    add_workers_argument(parser)
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED,
                        help="suite-generation seed")
    parser.add_argument("--methods", nargs="+", default=list(TABLE3_METHODS),
                        help="base-class methods to mutate")
    parser.add_argument("--max-cases", type=count_at_least(1), default=None,
                        help="truncate the suites (smoke runs only)")
    parser.add_argument("--contrast", action="store_true",
                        help="also run the base-suite and full-suite contrasts")
    add_cache_arguments(parser)
    add_obs_arguments(parser)
    arguments = parser.parse_args(argv)
    telemetry = telemetry_from_arguments(arguments)
    cache = cache_from_arguments(arguments, telemetry=telemetry)
    result = run_table3(
        seed=arguments.seed,
        methods=tuple(arguments.methods),
        with_contrast_runs=arguments.contrast,
        workers=arguments.workers,
        max_cases=arguments.max_cases,
        cache=cache,
        telemetry=telemetry,
    )
    print(result.generation.summary())
    print(result.incremental_table.format())
    print(result.summary())
    if arguments.cache_stats:
        print_cache_stats(result.incremental_run, label="cache[incremental]")
        if result.base_suite_run is not None:
            print_cache_stats(result.base_suite_run, label="cache[base-suite]")
        if result.full_suite_run is not None:
            print_cache_stats(result.full_suite_run, label="cache[full-suite]")
    finish_telemetry(telemetry, arguments)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

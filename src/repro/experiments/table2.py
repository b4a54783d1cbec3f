"""Experiment 1 — Table 2: fault-revealing power on ``CSortableObList``.

Reproduces sec. 4's first experiment: interface-mutate the five sorting /
extremum methods of the sortable list, run the consumer-generated
transaction-coverage suite over every mutant, classify kills with the
composite oracle, analyse the survivors for equivalence, and render the
Table-2 score grid.

Paper reference points (for EXPERIMENTS.md):

* 700 mutants over 5 methods; 652 killed; 19 equivalent; score 95.7%;
* per-operator scores between 85.7% (IndVarBitNeg) and 98.2% (IndVarRepLoc);
* 233 new test cases for a 16-node / 43-link model (+329 reused);
* 59 of the 652 kills were due to assertion violation.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..components import CSortableObList, OBLIST_TYPE_MODEL
from ..generator.suite import TestSuite
from ..mutation.analysis import MutationRun, analyze_mutants
from ..mutation.cache import MutationOutcomeCache
from ..mutation.equivalence import EquivalenceReport, probe_equivalence
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
    TABLE2_METHODS,
    sortable_oracle,
    sortable_suite,
    truncated_suite,
)


@dataclass(frozen=True)
class Table2Result:
    """Everything experiment 1 produces."""

    suite: TestSuite
    generation: GenerationReport
    run: MutationRun
    equivalence: Optional[EquivalenceReport]
    table: ScoreTable

    def summary(self) -> str:
        equivalents = self.table.total_equivalent
        return (
            f"Table 2: {self.table.total_generated} mutants, "
            f"{self.table.total_killed} killed, {equivalents} equivalent, "
            f"score {self.table.total_score:.1%} "
            f"({self.table.assertion_kills} kills by assertion)"
        )


def run_table2(seed: int = EXPERIMENT_SEED,
               methods: Tuple[str, ...] = TABLE2_METHODS,
               with_equivalence: bool = True,
               workers: int = 1,
               max_cases: Optional[int] = None,
               cache: Optional[MutationOutcomeCache] = None,
               telemetry: Optional[Telemetry] = None) -> Table2Result:
    """Execute experiment 1 end to end.

    ``workers > 1`` runs the mutant battery on the parallel engine (results
    are field-for-field identical to the serial run).  ``max_cases`` (at
    least 1) truncates the suite — a smoke/bench hook, not a paper
    configuration.
    ``cache`` replays the whole run from the incremental outcome store
    when nothing it depends on changed (cached runs are
    ``same_results``-identical to fresh).  The run always prunes and
    triages: statically-proven mutants are never dispatched and the
    equivalence probe skips them.  ``telemetry`` attaches a run-telemetry
    session (rows are identical with or without it).
    """
    suite = truncated_suite(sortable_suite(seed), max_cases)
    mutants, generation = generate_mutants(
        CSortableObList, methods, type_model=OBLIST_TYPE_MODEL,
        telemetry=telemetry,
    )
    run = analyze_mutants(
        CSortableObList,
        suite,
        mutants,
        workers=workers,
        oracle=sortable_oracle(),
        cache=cache,
        triage_type_model=OBLIST_TYPE_MODEL,
        telemetry=telemetry,
    )

    equivalence = None
    if with_equivalence:
        survivor_idents = {
            outcome.mutant.ident for outcome in run.outcomes if not outcome.killed
        }
        survivors = [m for m in mutants if m.ident in survivor_idents]
        equivalence = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            triage=run.triage, telemetry=telemetry,
        )

    table = build_score_table(run, equivalence, methods=methods)
    return Table2Result(
        suite=suite,
        generation=generation,
        run=run,
        equivalence=equivalence,
        table=table,
    )


@exit_on_repro_error
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.table2 [--workers N] …``."""
    parser = argparse.ArgumentParser(
        description="Run experiment 1 (Table 2: CSortableObList mutation)."
    )
    add_workers_argument(parser)
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED,
                        help="suite-generation seed")
    parser.add_argument("--methods", nargs="+", default=list(TABLE2_METHODS),
                        help="methods to mutate (default: the Table 2 rows)")
    parser.add_argument("--max-cases", type=count_at_least(1), default=None,
                        help="truncate the suite (smoke runs only)")
    parser.add_argument("--no-equivalence", action="store_true",
                        help="skip the equivalence probe")
    add_cache_arguments(parser)
    add_obs_arguments(parser)
    arguments = parser.parse_args(argv)
    telemetry = telemetry_from_arguments(arguments)
    cache = cache_from_arguments(arguments, telemetry=telemetry)
    result = run_table2(
        seed=arguments.seed,
        methods=tuple(arguments.methods),
        with_equivalence=not arguments.no_equivalence,
        workers=arguments.workers,
        max_cases=arguments.max_cases,
        cache=cache,
        telemetry=telemetry,
    )
    print(result.generation.summary())
    print(result.table.format())
    print(result.run.summary())
    print(result.summary())
    if arguments.cache_stats:
        print_cache_stats(result.run)
    finish_telemetry(telemetry, arguments)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

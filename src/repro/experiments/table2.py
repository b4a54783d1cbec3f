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
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..components import CSortableObList, OBLIST_TYPE_MODEL
from ..generator.suite import TestSuite
from ..mutation.analysis import MutationAnalysis, MutationRun
from ..mutation.cache import MutationOutcomeCache
from ..mutation.equivalence import EquivalenceReport, probe_equivalence
from ..mutation.generate import GenerationReport, generate_mutants
from ..mutation.parallel import ParallelMutationAnalysis
from ..mutation.score import ScoreTable, build_score_table
from ..obs import Telemetry
from .config import (
    EXPERIMENT_SEED,
    TABLE2_METHODS,
    sortable_oracle,
    sortable_suite,
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
               stop_on_first_kill: bool = True,
               workers: int = 1,
               max_cases: Optional[int] = None,
               cache: Optional[MutationOutcomeCache] = None,
               prune: bool = True,
               static_triage: bool = True,
               batch_size: Optional[int] = None,
               telemetry: Optional[Telemetry] = None) -> Table2Result:
    """Execute experiment 1 end to end.

    ``workers > 1`` runs the mutant battery on the parallel engine (results
    are field-for-field identical to the serial run).  ``max_cases``
    truncates the suite — a smoke/bench hook, not a paper configuration.
    ``cache`` replays unchanged mutant verdicts from the incremental
    outcome cache (cached runs are ``same_results``-identical to fresh);
    ``prune=False`` disables coverage-guided mutant×case pruning (verdicts
    are identical either way).  ``static_triage=False`` disables the
    static equivalent-mutant triage pass; with it on (the default),
    statically-proven mutants are never dispatched, the equivalence probe
    skips them, and every *executed* mutant's verdict is identical to the
    untriaged run.  ``batch_size`` sets the parallel engine's dispatch
    chunk (default adaptive; verdicts identical at every size).
    ``telemetry`` attaches a run-telemetry session (rows are identical
    with or without it).
    """
    suite = sortable_suite(seed)
    if max_cases is not None:
        suite = replace(suite, cases=suite.cases[:max_cases])
    mutants, generation = generate_mutants(
        CSortableObList, methods, type_model=OBLIST_TYPE_MODEL,
        telemetry=telemetry,
    )
    engine = ParallelMutationAnalysis if workers > 1 else MutationAnalysis
    analysis = engine(
        CSortableObList,
        suite,
        oracle=sortable_oracle(),
        stop_on_first_kill=stop_on_first_kill,
        cache=cache,
        prune=prune,
        static_triage=static_triage,
        triage_type_model=OBLIST_TYPE_MODEL,
        telemetry=telemetry,
        **({"workers": workers, "batch_size": batch_size}
           if workers > 1 else {}),
    )
    run = analysis.analyze(mutants)

    equivalence = None
    if with_equivalence:
        survivor_idents = {
            outcome.mutant.ident for outcome in run.outcomes if not outcome.killed
        }
        survivors = [m for m in mutants if m.ident in survivor_idents]
        equivalence = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            triage=run.triage,
        )

    table = build_score_table(run, equivalence, methods=methods)
    return Table2Result(
        suite=suite,
        generation=generation,
        run=run,
        equivalence=equivalence,
        table=table,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.table2 [--workers N] …``."""
    from .cli import (
        add_cache_arguments,
        add_obs_arguments,
        add_prune_arguments,
        add_throughput_arguments,
        add_triage_arguments,
        add_workers_argument,
        batch_size_from_arguments,
        cache_from_arguments,
        compact_cache,
        finish_telemetry,
        print_cache_stats,
        prune_from_arguments,
        static_triage_from_arguments,
        telemetry_from_arguments,
    )

    parser = argparse.ArgumentParser(
        description="Run experiment 1 (Table 2: CSortableObList mutation)."
    )
    add_workers_argument(parser)
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED,
                        help="suite-generation seed")
    parser.add_argument("--methods", nargs="+", default=list(TABLE2_METHODS),
                        help="methods to mutate (default: the Table 2 rows)")
    parser.add_argument("--max-cases", type=int, default=None,
                        help="truncate the suite (smoke runs only)")
    parser.add_argument("--no-equivalence", action="store_true",
                        help="skip the equivalence probe")
    add_cache_arguments(parser)
    add_throughput_arguments(parser)
    add_prune_arguments(parser)
    add_triage_arguments(parser)
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
        prune=prune_from_arguments(arguments),
        static_triage=static_triage_from_arguments(arguments),
        batch_size=batch_size_from_arguments(arguments),
        telemetry=telemetry,
    )
    print(result.generation.summary())
    print(result.table.format())
    print(result.run.summary())
    print(result.summary())
    if arguments.cache_stats:
        print_cache_stats(result.run)
    compact_cache(cache, arguments)
    finish_telemetry(telemetry, arguments)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

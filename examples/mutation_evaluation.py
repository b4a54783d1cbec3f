#!/usr/bin/env python3
"""A compact mutation-analysis study (sec. 4), end to end.

Runs the full empirical-evaluation machinery on a reduced configuration so
it finishes in a few seconds:

* generate interface mutants for two ``CSortableObList`` methods under the
  C++-typing gate (Table 1 operators);
* run the consumer-generated suite over every mutant with the paper's
  composite oracle (crash → assertion → output);
* deep-probe the survivors for equivalence;
* print the Table-2-style score grid and the kill-reason breakdown.

For the full Tables 2 and 3 see ``benchmarks/bench_table2_sortable.py`` and
``benchmarks/bench_table3_base_escape.py``.

Run:  python examples/mutation_evaluation.py
"""

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.experiments.config import sortable_oracle, sortable_suite
from repro.mutation import (
    MutationAnalysis,
    build_score_table,
    generate_mutants,
    probe_equivalence,
)

METHODS = ("FindMax", "FindMin")


def main() -> None:
    # -- Mutant generation -------------------------------------------------
    mutants, report = generate_mutants(
        CSortableObList, METHODS, type_model=OBLIST_TYPE_MODEL
    )
    print(report.summary())
    print("\nthree example mutants:")
    for mutant in mutants[:3]:
        print(f"  {mutant.record.title()}")

    # -- Suite + analysis -----------------------------------------------------
    suite = sortable_suite()
    print(f"\nsuite: {suite.summary()}")
    analysis = MutationAnalysis(
        CSortableObList, suite, oracle=sortable_oracle()
    )
    run = analysis.analyze(mutants)
    print(run.summary())

    # -- Equivalence probe -----------------------------------------------------
    survivor_idents = {o.mutant.ident for o in run.outcomes if not o.killed}
    survivors = [m for m in mutants if m.ident in survivor_idents]
    print(f"\nprobing {len(survivors)} survivors for equivalence…")
    equivalence = probe_equivalence(
        CSortableObList, CSortableObList.__tspec__, survivors
    )
    print(equivalence.summary())

    # -- The score table ---------------------------------------------------
    print()
    table = build_score_table(run, equivalence, methods=METHODS)
    print(table.format())

    print("\nkill reasons:")
    for reason, count in sorted(run.kill_reason_counts().items()):
        if count:
            print(f"  {reason:<12} {count}")

    # One surviving mutant, for the curious.
    if survivors:
        print("\na mutant the suite did NOT kill:")
        print(f"  {survivors[0].record.title()}")


if __name__ == "__main__":
    main()

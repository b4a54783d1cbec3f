"""Table 1 — the interface mutation operator battery.

Table 1 of the paper lists the five essential interface mutation operators
and their definitions.  The regenerable artefact here is the demonstration
that each operator, applied to the experiment's subject methods, produces
the documented class of mutants: for every operator we report its
definition, how many mutation points it derives (before and after the
C++-typing gate), and one concrete example mutant.

``--with-analysis`` additionally *executes* the typed ``CSortableObList``
pool under the experiment suite and appends per-operator kill counts — the
workload the incremental outcome cache (:mod:`repro.mutation.cache`)
accelerates: a warm rerun with ``--cache-dir`` replays every verdict and
executes zero mutant test cases while printing identical rows.
"""

from __future__ import annotations

import argparse
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from ..mutation.analysis import MutationAnalysis, MutationRun
from ..mutation.cache import MutationOutcomeCache
from ..mutation.generate import MutantGenerator, generate_mutants
from ..mutation.operators import ALL_OPERATORS
from ..mutation.parallel import ParallelMutationAnalysis
from ..obs import Telemetry
from .config import (
    EXPERIMENT_SEED,
    TABLE2_METHODS,
    TABLE3_METHODS,
    sortable_oracle,
    sortable_suite,
)

#: Operator definitions, verbatim from Table 1.
OPERATOR_DEFINITIONS: Dict[str, str] = {
    "IndVarBitNeg": "Inserts bitwise negation at non-interface variable use",
    "IndVarRepGlob": "Replaces non-interface variable by G(R2)",
    "IndVarRepLoc": "Replaces non-interface variable by L(R2)",
    "IndVarRepExt": "Replaces non-interface variable by E(R2)",
    "IndVarRepReq": "Replaces non-interface variable by RC",
}


@dataclass(frozen=True)
class OperatorDemo:
    """One operator's row in the regenerated Table 1."""

    operator: str
    definition: str
    untyped_mutants: int      # without the compile gate
    typed_mutants: int        # surviving the C++-typing gate
    example: str              # one concrete mutant description

    def format(self) -> str:
        return (
            f"{self.operator:<15} {self.definition}\n"
            f"{'':15} {self.typed_mutants} mutants "
            f"({self.untyped_mutants} before typing gate); "
            f"e.g. {self.example}"
        )


@dataclass(frozen=True)
class Table1Result:
    demos: Tuple[OperatorDemo, ...]
    #: The executed battery (``--with-analysis`` only): the typed
    #: ``CSortableObList`` pool under the experiment suite.
    run: Optional[MutationRun] = None

    def format(self) -> str:
        header = "Table 1. Interface mutation operators applied"
        lines = [header] + [demo.format() for demo in self.demos]
        if self.run is not None:
            lines.append(
                f"Kill counts over {self.run.total} analyzed "
                f"CSortableObList mutants ({self.run.suite_size}-case suite):"
            )
            for demo in self.demos:
                outcomes = self.run.outcomes_for_operator(demo.operator)
                killed = sum(1 for outcome in outcomes if outcome.killed)
                lines.append(
                    f"  {demo.operator:<15} {killed}/{len(outcomes)} killed"
                )
            total = self.run.total
            killed = len(self.run.killed)
            equivalent = len(self.run.statically_equivalent)
            raw = killed / total if total else 1.0
            pool = total - equivalent
            adjusted = killed / pool if pool else 1.0
            lines.append(
                f"  score: {raw:.1%} raw, {adjusted:.1%} adjusted "
                f"({equivalent} statically-equivalent mutants excluded; "
                f"{self.run.dispatched_count} of {total} dispatched)"
            )
            if self.run.triage is not None:
                lines.append(f"  {self.run.triage.summary()}")
        return "\n".join(lines)

    def demo_for(self, operator: str) -> OperatorDemo:
        for demo in self.demos:
            if demo.operator == operator:
                return demo
        raise KeyError(operator)


def _operator_demo(operator_name: str) -> OperatorDemo:
    """One operator's row — a pure function of the operator name, so the
    per-operator fan-out can run in worker processes and still merge
    deterministically (generation has no RNG or shared state)."""
    targets = (
        (CSortableObList, TABLE2_METHODS),
        (CObList, TABLE3_METHODS),
    )
    operator = next(op for op in ALL_OPERATORS if op.name == operator_name)
    untyped_total = 0
    typed_total = 0
    example: Optional[str] = None
    for target, methods in targets:
        untyped_mutants, _ = MutantGenerator(
            target, operators=(operator,)
        ).generate(methods)
        typed_mutants, _ = MutantGenerator(
            target, operators=(operator,), type_model=OBLIST_TYPE_MODEL
        ).generate(methods)
        untyped_total += len(untyped_mutants)
        typed_total += len(typed_mutants)
        if example is None and typed_mutants:
            first = typed_mutants[0].record
            example = f"{first.class_name}.{first.method_name}: {first.description}"
    return OperatorDemo(
        operator=operator.name,
        definition=OPERATOR_DEFINITIONS[operator.name],
        untyped_mutants=untyped_total,
        typed_mutants=typed_total,
        example=example or "<no mutants>",
    )


def run_table1(workers: int = 1,
               with_analysis: bool = False,
               seed: int = EXPERIMENT_SEED,
               max_cases: Optional[int] = None,
               cache: Optional[MutationOutcomeCache] = None,
               prune: bool = True,
               static_triage: bool = True,
               batch_size: Optional[int] = None,
               telemetry: Optional[Telemetry] = None) -> Table1Result:
    """Regenerate Table 1 over the experiments' subject methods.

    ``workers > 1`` fans the five operator columns out to a process pool;
    rows come back in operator order, so the result is identical to the
    serial run.  ``with_analysis`` additionally executes the typed
    ``CSortableObList`` pool under the experiment suite (on the parallel
    engine when ``workers > 1``) and reports per-operator kill counts;
    ``cache`` replays unchanged verdicts from the outcome cache,
    ``prune=False`` disables coverage-guided mutant×case pruning (verdicts
    are identical either way), ``static_triage=False`` disables the static
    equivalent-mutant triage pass (triaged mutants are never dispatched;
    every *executed* mutant's verdict is identical either way),
    ``batch_size`` sets the parallel engine's dispatch chunk (default
    adaptive; verdicts identical at every size), and
    ``max_cases`` truncates the suite (smoke/CI hook).  ``telemetry`` attaches a run-telemetry session to
    generation and analysis (the per-operator demo fan-out runs in
    worker processes and stays un-instrumented); rows are identical
    with or without it.
    """
    names = [operator.name for operator in ALL_OPERATORS]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(names))) as pool:
            demos = tuple(pool.map(_operator_demo, names))
    else:
        demos = tuple(_operator_demo(name) for name in names)
    run = None
    if with_analysis:
        suite = sortable_suite(seed)
        if max_cases is not None:
            suite = replace(suite, cases=suite.cases[:max_cases])
        mutants, _ = generate_mutants(
            CSortableObList, TABLE2_METHODS, type_model=OBLIST_TYPE_MODEL,
            telemetry=telemetry,
        )
        engine = ParallelMutationAnalysis if workers > 1 else MutationAnalysis
        run = engine(
            CSortableObList,
            suite,
            oracle=sortable_oracle(),
            cache=cache,
            prune=prune,
            static_triage=static_triage,
            triage_type_model=OBLIST_TYPE_MODEL,
            telemetry=telemetry,
            **({"workers": workers, "batch_size": batch_size}
               if workers > 1 else {}),
        ).analyze(mutants)
    return Table1Result(demos=demos, run=run)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.table1 [--workers N] …``."""
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
        description="Regenerate Table 1 (interface mutation operators)."
    )
    add_workers_argument(parser)
    parser.add_argument(
        "--with-analysis", action="store_true",
        help="also execute the typed CSortableObList pool and report "
             "per-operator kill counts",
    )
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED,
                        help="suite-generation seed (with --with-analysis)")
    parser.add_argument("--max-cases", type=int, default=None,
                        help="truncate the suite (smoke runs only)")
    add_cache_arguments(parser)
    add_throughput_arguments(parser)
    add_prune_arguments(parser)
    add_triage_arguments(parser)
    add_obs_arguments(parser)
    arguments = parser.parse_args(argv)
    telemetry = telemetry_from_arguments(arguments)
    cache = cache_from_arguments(arguments, telemetry=telemetry)
    result = run_table1(
        workers=arguments.workers,
        with_analysis=arguments.with_analysis,
        seed=arguments.seed,
        max_cases=arguments.max_cases,
        cache=cache,
        prune=prune_from_arguments(arguments),
        static_triage=static_triage_from_arguments(arguments),
        batch_size=batch_size_from_arguments(arguments),
        telemetry=telemetry,
    )
    print(result.format())
    if arguments.cache_stats:
        print_cache_stats(result.run)
    compact_cache(cache, arguments)
    finish_telemetry(telemetry, arguments)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

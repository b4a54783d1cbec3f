"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per measured run; it must not be
imported by anything that runs the program twice in one process, since
every run is meant to pay the program's full start-up cost.

    python3 child.py --kind KIND --mode {setup,run,trace} --seed S \
        --state DIR --workers N [--cpu C] --out RESULT.json

``setup`` stops at the workload's first layer call (imports and registry
build only).  ``run`` calls the program's own entry points
(``run_table1/2/3``, ``SweepRunner.run``).  ``trace`` assembles the same
pipeline from the public calls those entry points make, times each call
as a span on a ``repro.obs.Telemetry`` session that it also hands to the
program through the public ``telemetry=`` arguments, and derives the
per-layer metrics from the spans.  The result file carries the
deterministic output, the verdict list and the monotonic timestamps the
parent turns into wall-clock and set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from benchlib import percentile_value, self_times, tail_percentile

#: Span name -> the layer (``src/repro/<module>``) its self time belongs
#: to.  ``e2e.*`` spans are recorded here around public calls; the others
#: are the program's own spans.  Spans not listed are ignored, so their
#: time stays with the enclosing span.
LAYER_OF = {
    "e2e.run": "unattributed",
    "e2e.suite": "generator",
    "e2e.plan": "history",
    "e2e.generate": "mutation.generate",
    "e2e.reference": "mutation.coverage",
    "e2e.analyze": "mutation.analysis",
    "e2e.equivalence": "mutation.equivalence",
    # Cache reads and writes are separate rows: a change that speeds one
    # up at the other's cost must show.
    "e2e.cache.key": "mutation.cache.key",
    "e2e.cache.lookup": "mutation.cache.lookup",
    "e2e.cache.store": "mutation.cache.store",
    "e2e.report": "report",
    "generate.operator": "mutation.generate",
    "analysis.reference": "mutation.coverage",
    "executor.case": "harness.executor",
    "triage.run": "mutation.triage",
    "analysis.mutant": "mutation.analysis",
    "parallel.run": "mutation.parallel",
    "sweep.materialize": "scenarios",
    # The sweep's own time outside its instrumented children is mostly
    # suite generation, which has no span of its own.
    "sweep.run": "unattributed",
}


class _SetupDone(Exception):
    """Raised at the first layer call of a ``setup``-mode run."""


class Context:
    """What a workload function needs: its inputs and the two clocks."""

    def __init__(self, arguments: argparse.Namespace):
        self.seed: int = arguments.seed
        self.state = Path(arguments.state)
        self.workers: int = arguments.workers
        self.mode: str = arguments.mode
        self.telemetry = None
        self.sink = None
        self.t_ready = 0.0
        self.t_done = 0.0

    @property
    def traced(self) -> bool:
        return self.mode == "trace"

    def ready(self) -> None:
        """Mark the first layer call; set-up ends here."""
        self.t_ready = time.monotonic()
        if self.mode == "setup":
            raise _SetupDone
        if self.traced:
            from repro.obs import MemorySink, Telemetry

            self.sink = MemorySink()
            self.telemetry = Telemetry(sink=self.sink)

    def done(self) -> None:
        """Mark the report as rendered; the measured run ends here."""
        self.t_done = time.monotonic()

    def span(self, name: str):
        return self.telemetry.span(name)

    def cache(self, directory: Path):
        """The outcome store: plain when untraced, timed when traced."""
        from repro.mutation.cache import MutationOutcomeCache

        if not self.traced:
            return MutationOutcomeCache(directory)
        return _timed_cache_class()(directory, self.telemetry)


def _timed_cache_class():
    from repro.mutation.cache import MutationOutcomeCache

    class TimedCache(MutationOutcomeCache):
        """Times key derivation, lookups and stores as ``e2e.cache.*``
        spans.  ``store`` runs on the worker pool's dispatcher thread;
        the telemetry session serialises span recording under its lock,
        and the calling thread is blocked in the pool meanwhile, so the
        spans still nest."""

        def __init__(self, directory, telemetry):
            super().__init__(directory, telemetry=telemetry)
            self._spans = telemetry

        def key_for(self, *args, **kwargs):
            with self._spans.span("e2e.cache.key"):
                return super().key_for(*args, **kwargs)

        def lookup(self, *args, **kwargs):
            with self._spans.span("e2e.cache.lookup"):
                return super().lookup(*args, **kwargs)

        def lookup_triage(self, *args, **kwargs):
            with self._spans.span("e2e.cache.lookup"):
                return super().lookup_triage(*args, **kwargs)

        def lookup_scenario(self, *args, **kwargs):
            with self._spans.span("e2e.cache.lookup"):
                return super().lookup_scenario(*args, **kwargs)

        def store(self, *args, **kwargs):
            with self._spans.span("e2e.cache.store"):
                return super().store(*args, **kwargs)

        def store_triage(self, *args, **kwargs):
            with self._spans.span("e2e.cache.store"):
                return super().store_triage(*args, **kwargs)

        def store_scenario(self, *args, **kwargs):
            with self._spans.span("e2e.cache.store"):
                return super().store_scenario(*args, **kwargs)

    return TimedCache


# -- rendering shared by the plain and the traced runs ------------------------


def verdict_lines(runs: Sequence[Tuple[str, Any]]) -> List[str]:
    """``label/ident killed reason killing_case`` per mutant outcome."""
    return [
        f"{label}{outcome.mutant.ident} {int(outcome.killed)} "
        f"{outcome.reason.value} {outcome.killing_case}"
        for label, run in runs
        for outcome in run.outcomes
    ]


def table2_result(result, cache) -> Dict[str, Any]:
    output = "\n".join((result.generation.summary(), result.table.format(),
                        result.summary()))
    facts = {
        "mutants": result.table.total_generated,
        "killed": result.table.total_killed,
        "equivalent": result.table.total_equivalent,
        "score": f"{result.table.total_score:.1%}",
        "step_timeouts": result.run.step_timeouts,
        "dispatched": result.run.dispatched_count,
    }
    if result.run.cache_stats is not None:
        facts["cache_hits"] = result.run.cache_stats.hits
        facts["cache_misses"] = result.run.cache_stats.misses
    return {
        "output": output,
        "records": output.splitlines(),
        "verdicts": verdict_lines([("", result.run)]),
        "ops": result.run.total,
        "op_errors": 0,
        "facts": facts,
        "runs": [result.run],
        "cache": cache,
    }


def table3_result(result) -> Dict[str, Any]:
    output = "\n".join((result.generation.summary(),
                        result.incremental_table.format(), result.summary()))
    runs = [("incremental/", result.incremental_run),
            ("base/", result.base_suite_run),
            ("full/", result.full_suite_run)]
    return {
        "output": output,
        "records": output.splitlines(),
        "verdicts": verdict_lines(runs),
        "ops": sum(run.total for _, run in runs),
        "op_errors": 0,
        "facts": {
            "mutants": result.incremental_table.total_generated,
            "score": f"{result.incremental_table.total_score:.1%}",
        },
        "runs": [run for _, run in runs],
    }


def sweep_result(report, registry, cache) -> Dict[str, Any]:
    ordered = sorted(report.results, key=lambda result: result.ident)
    scenario_stats = cache.scenario_stats()
    return {
        "output": report.to_json(timings=False),
        "records": [json.dumps(result.to_dict(timings=False), sort_keys=True)
                    for result in ordered],
        "verdicts": [
            f"{result.ident} {result.killed} {result.survived} "
            f"{json.dumps(dict(result.kill_reasons), sort_keys=True)} "
            f"{result.error}"
            for result in ordered
        ],
        "ops": len(report.results),
        "op_errors": len(report.errors),
        "facts": {
            "scenarios": len(report.results),
            "oracle_failures": report.total_oracle_failures,
            "errors": len(report.errors),
            "scenario_hits": scenario_stats["hits"],
            "scenario_misses": scenario_stats["misses"],
            "registry_fingerprint": registry.fingerprint(),
        },
        "results": ordered,
        "cache": cache,
    }


# -- workloads ----------------------------------------------------------------


def table1(ctx: Context) -> Dict[str, Any]:
    from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
    from repro.experiments.config import TABLE2_METHODS, TABLE3_METHODS
    from repro.experiments.table1 import (
        OPERATOR_DEFINITIONS,
        OperatorDemo,
        Table1Result,
        run_table1,
    )
    from repro.mutation.generate import MutantGenerator
    from repro.mutation.operators import ALL_OPERATORS

    ctx.ready()
    if not ctx.traced:
        result = run_table1()
        output = result.format()
        ctx.done()
    else:
        targets = ((CSortableObList, TABLE2_METHODS),
                   (CObList, TABLE3_METHODS))
        demos = []
        with ctx.span("e2e.run"):
            for operator in ALL_OPERATORS:
                untyped_total = typed_total = 0
                example = None
                for target, methods in targets:
                    with ctx.span("e2e.generate"):
                        untyped, _ = MutantGenerator(
                            target, operators=(operator,),
                            telemetry=ctx.telemetry,
                        ).generate(methods)
                    with ctx.span("e2e.generate"):
                        typed, _ = MutantGenerator(
                            target, operators=(operator,),
                            type_model=OBLIST_TYPE_MODEL,
                            telemetry=ctx.telemetry,
                        ).generate(methods)
                    untyped_total += len(untyped)
                    typed_total += len(typed)
                    if example is None and typed:
                        first = typed[0].record
                        example = (f"{first.class_name}.{first.method_name}: "
                                   f"{first.description}")
                demos.append(OperatorDemo(
                    operator=operator.name,
                    definition=OPERATOR_DEFINITIONS[operator.name],
                    untyped_mutants=untyped_total,
                    typed_mutants=typed_total,
                    example=example or "<no mutants>",
                ))
            with ctx.span("e2e.report"):
                result = Table1Result(demos=tuple(demos))
                output = result.format()
        ctx.done()
    return {
        "output": output,
        "records": output.splitlines(),
        "verdicts": [],
        "ops": sum(demo.untyped_mutants + demo.typed_mutants
                   for demo in result.demos),
        "op_errors": 0,
        "facts": {"typed_mutants": sum(demo.typed_mutants
                                       for demo in result.demos)},
    }


def _table2(ctx: Context, parallel: bool) -> Dict[str, Any]:
    from repro.components import CSortableObList, OBLIST_TYPE_MODEL
    from repro.experiments.config import (
        TABLE2_METHODS,
        sortable_oracle,
        sortable_suite,
    )
    from repro.experiments.table2 import Table2Result, run_table2
    from repro.mutation.analysis import MutationAnalysis
    from repro.mutation.equivalence import probe_equivalence
    from repro.mutation.generate import generate_mutants
    from repro.mutation.parallel import ParallelMutationAnalysis
    from repro.mutation.score import build_score_table

    ctx.ready()
    workers = ctx.workers if parallel else 1
    cache = ctx.cache(ctx.state / "store") if parallel else None
    if not ctx.traced:
        result = run_table2(seed=ctx.seed, with_equivalence=not parallel,
                            workers=workers, cache=cache)
        payload = table2_result(result, cache)
        ctx.done()
        return payload
    with ctx.span("e2e.run"):
        with ctx.span("e2e.suite") as span:
            suite = sortable_suite(ctx.seed)
            span.set("cases", len(suite.cases))
        with ctx.span("e2e.generate"):
            mutants, generation = generate_mutants(
                CSortableObList, TABLE2_METHODS, type_model=OBLIST_TYPE_MODEL,
                telemetry=ctx.telemetry,
            )
        engine = ParallelMutationAnalysis if workers > 1 else MutationAnalysis
        analysis = engine(
            CSortableObList, suite,
            oracle=sortable_oracle(),
            stop_on_first_kill=True,
            cache=cache,
            prune=True,
            static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
            telemetry=ctx.telemetry,
            **({"workers": workers, "batch_size": None}
               if workers > 1 else {}),
        )
        with ctx.span("e2e.reference"):
            analysis.reference_results()
        with ctx.span("e2e.analyze"):
            run = analysis.analyze(mutants)
        equivalence = None
        if not parallel:
            survivor_idents = {outcome.mutant.ident
                               for outcome in run.outcomes
                               if not outcome.killed}
            survivors = [mutant for mutant in mutants
                         if mutant.ident in survivor_idents]
            with ctx.span("e2e.equivalence") as span:
                equivalence = probe_equivalence(
                    CSortableObList, CSortableObList.__tspec__, survivors,
                    triage=run.triage,
                )
                span.set("probed", len(survivors))
                span.set("equivalent", equivalence.equivalent_count)
        with ctx.span("e2e.report"):
            table = build_score_table(run, equivalence,
                                      methods=TABLE2_METHODS)
            result = Table2Result(suite=suite, generation=generation, run=run,
                                  equivalence=equivalence, table=table)
            payload = table2_result(result, cache)
    ctx.done()
    return payload


def table2(ctx: Context) -> Dict[str, Any]:
    return _table2(ctx, parallel=False)


def table2_par(ctx: Context) -> Dict[str, Any]:
    return _table2(ctx, parallel=True)


def table3(ctx: Context) -> Dict[str, Any]:
    from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
    from repro.experiments.config import (
        TABLE3_METHODS,
        oblist_oracle,
        oblist_suite,
        sortable_oracle,
        sortable_suite,
        subclass_over_mutant_base,
    )
    from repro.experiments.table3 import Table3Result, run_table3
    from repro.history.incremental import plan_subclass_testing
    from repro.mutation.analysis import MutationAnalysis
    from repro.mutation.generate import generate_mutants
    from repro.mutation.score import build_score_table

    ctx.ready()
    if not ctx.traced:
        payload = table3_result(run_table3(seed=ctx.seed,
                                           with_contrast_runs=True))
        ctx.done()
        return payload

    def suite_of(build):
        with ctx.span("e2e.suite") as span:
            suite = build(ctx.seed)
            span.set("cases", len(suite.cases))
        return suite

    def battery(original_class, suite, oracle, class_builder=None):
        analysis = MutationAnalysis(
            original_class, suite,
            oracle=oracle,
            class_builder=class_builder,
            cache=None,
            prune=True,
            static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
            telemetry=ctx.telemetry,
        )
        with ctx.span("e2e.reference"):
            analysis.reference_results()
        with ctx.span("e2e.analyze"):
            return analysis.analyze(mutants)

    with ctx.span("e2e.run"):
        reuse_pool = suite_of(oblist_suite)
        with ctx.span("e2e.plan"):
            plan = plan_subclass_testing(
                CObList.__tspec__, CSortableObList.__tspec__, reuse_pool,
                seed=ctx.seed,
            )
        with ctx.span("e2e.generate"):
            mutants, generation = generate_mutants(
                CObList, TABLE3_METHODS, ident_prefix="B",
                type_model=OBLIST_TYPE_MODEL, telemetry=ctx.telemetry,
            )
        builder = subclass_over_mutant_base()
        incremental_run = battery(CSortableObList, plan.executed_suite,
                                  sortable_oracle(), builder)
        with ctx.span("e2e.report"):
            incremental_table = build_score_table(incremental_run,
                                                  methods=TABLE3_METHODS)
        base_suite_run = battery(CObList, suite_of(oblist_suite),
                                 oblist_oracle())
        full_suite_run = battery(CSortableObList, suite_of(sortable_suite),
                                 sortable_oracle(), builder)
        with ctx.span("e2e.report"):
            payload = table3_result(Table3Result(
                plan=plan,
                generation=generation,
                incremental_run=incremental_run,
                incremental_table=incremental_table,
                base_suite_run=base_suite_run,
                full_suite_run=full_suite_run,
            ))
    ctx.done()
    return payload


def sweep_smoke(ctx: Context) -> Dict[str, Any]:
    from repro.scenarios.registry import builtin_registry
    from repro.scenarios.sweep import SweepRunner

    registry = builtin_registry()
    ctx.ready()
    cache = ctx.cache(ctx.state / "store")
    runner = SweepRunner(registry, workers=ctx.workers,
                         workspace=ctx.state / "workspace", cache=cache,
                         telemetry=ctx.telemetry)
    if not ctx.traced:
        payload = sweep_result(runner.run("smoke"), registry, cache)
        ctx.done()
        return payload
    with ctx.span("e2e.run"):
        report = runner.run("smoke")
        with ctx.span("e2e.report"):
            payload = sweep_result(report, registry, cache)
    ctx.done()
    return payload


KINDS = {
    "table1": table1,
    "table2": table2,
    "table2-par": table2_par,
    "table3": table3,
    "sweep-smoke": sweep_smoke,
}


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(ctx: Context, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Self time by layer, counts and the per-mutant distribution from one
    traced run.

    Set-up, the unattributed remainder and ``trace.overhead_frac`` need
    the parent's spawn time and an untraced run, so the parent derives
    them.
    """
    from repro.mutation.parallel import shutdown_shared_pool

    # Reaping the pool's workers is what makes their CPU time and peak
    # RSS visible in RUSAGE_CHILDREN.
    shutdown_shared_pool()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    events = [event for event in ctx.sink.events
              if event["kind"] == "span" and event["name"] in LAYER_OF]
    own = self_times([(event["t"], event["t"] + event["dur"])
                      for event in events])
    by_layer: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    for event, seconds in zip(events, own):
        by_layer[LAYER_OF[event["name"]]] += seconds
        count[event["name"]] += 1
        for key, value in event["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[f"{event['name']}.{key}"] += value
    mutant_ms = [event["dur"] * 1000.0 for event in events
                 if event["name"] == "analysis.mutant"]
    tail = tail_percentile(len(mutant_ms))
    counters = ctx.telemetry.counters()
    outcomes = [outcome for run in payload.get("runs", ())
                for outcome in run.outcomes]
    cases_run = sum(outcome.cases_run for outcome in outcomes)
    cases_skipped = sum(outcome.cases_skipped for outcome in outcomes)
    step_timeouts = sum(run.step_timeouts for run in payload.get("runs", ()))
    for result in payload.get("results", ()):
        cases_run += result.cases_executed
        cases_skipped += result.cases_skipped
        step_timeouts += result.step_timeouts
    cache = payload.get("cache")
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    case_count = count["executor.case"]
    pool_s = by_layer["mutation.parallel"]
    worker_cpu = children.ru_utime + children.ru_stime
    return {
        "layers": dict(by_layer),
        # The highest percentile with ten mutants beyond it; the report
        # states it beside ``mutant.tail_ms``.
        "mutant_tail_pct": tail,
        "metrics": {
            "generator.cases": attrs["e2e.suite.cases"],
            "generate.mutants": attrs["generate.operator.mutants"],
            "reference.cases": attrs["analysis.reference.cases"],
            "triage.skipped": attrs["triage.run.skipped"],
            "mutant.count": len(mutant_ms),
            "mutant.p50_ms": (percentile_value(mutant_ms, 50.0)
                              if mutant_ms else 0.0),
            "mutant.tail_ms": (percentile_value(mutant_ms, tail)
                               if tail is not None else 0.0),
            "case.executed": case_count,
            "case.skipped": cases_skipped,
            "case.prune_ratio": (cases_skipped / (cases_run + cases_skipped)
                                 if cases_run + cases_skipped else 0.0),
            "case.us": (by_layer["harness.executor"] / case_count * 1e6
                        if case_count else 0.0),
            "sandbox.step_timeouts": step_timeouts,
            "equivalence.probed": attrs["e2e.equivalence.probed"],
            "equivalence.equivalent": attrs["e2e.equivalence.equivalent"],
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.stores": counters.get("cache.stores", 0),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.store_bytes": cache.segment_bytes() if cache else 0,
            "cache.invalidations": counters.get("cache.invalidations", 0),
            "pool.batches": counters.get("parallel.batches", 0),
            "pool.battery_shipped": counters.get("parallel.battery_shipped", 0),
            "pool.workers_spawned": counters.get("parallel.workers_spawned", 0),
            "pool.worker_cpu_s": worker_cpu,
            "pool.busy_frac": (worker_cpu / (ctx.workers * pool_s)
                               if pool_s else 0.0),
            "pool.worker_peak_rss_mb": children.ru_maxrss / 1024.0,
            "sweep.scenarios": counters.get("sweep.scenarios", 0),
            "sweep.scenario_hits": counters.get("sweep.scenario_cache_hits", 0),
        },
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(KINDS), required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--cpu", type=int,
                        help="run on this CPU only (serial workloads)")
    parser.add_argument("--out", required=True)
    arguments = parser.parse_args(argv)
    if arguments.cpu is not None:
        os.sched_setaffinity(0, {arguments.cpu})
    ctx = Context(arguments)
    try:
        payload = KINDS[arguments.kind](ctx)
    except _SetupDone:
        payload = {}
    result: Dict[str, Any] = {"t_ready": ctx.t_ready, "t_done": ctx.t_done}
    if ctx.mode != "setup":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            key: payload[key]
            for key in ("output", "records", "verdicts", "ops", "op_errors",
                        "facts")
        })
        result["rss_mb"] = usage.ru_maxrss / 1024.0
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
    if ctx.traced:
        result.update(layer_metrics(ctx, payload))
    Path(arguments.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

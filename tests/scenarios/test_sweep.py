"""Sweep runner and CLI: determinism, warm replay, shard merging, gating.

The determinism contract under test is the acceptance criterion: same
registry + same seeds ⇒ byte-identical report JSON modulo timings
(``to_json(timings=False)``), whatever the worker count and cache
temperature.  On top of that, a fully-warm sweep of an unchanged registry
must replay from the scenario store without executing a single mutant or
reference pass (or starting a worker), the store holds scenario records
only, one scenario dying of an arbitrary ``Exception`` must cost exactly
its own row, and a worker process dying costs exactly its task's rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.components import CObList, type_model_for
from repro.core.errors import ScenarioError
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.parallel import shutdown_shared_pool
from repro.obs import MemorySink, Telemetry
from repro.obs.schema import validate_event
from repro.scenarios import (
    ScenarioResult,
    SweepReport,
    SweepRunner,
    merge_reports,
    registry_from_mappings,
    report_from_mapping,
    scenario_to_mapping,
)
from repro.scenarios.cli import main as cli_main
from repro.tspec.model import MethodCategory
import repro.scenarios.sweep as sweep_module

#: A small fast corpus: two recipes of one generated family (sharing one
#: synthesis), one catalog component, tight budgets.
SMALL_ENTRIES = [
    {
        "ident": "small-stack-bitneg",
        "component": {"family": "stack", "seed": 3},
        "operators": ["IndVarBitNeg"],
        "budgets": {"max_mutants": 8},
        "groups": ["small"],
    },
    {
        "ident": "small-stack-glob",
        "component": {"family": "stack", "seed": 3},
        "operators": ["IndVarRepGlob"],
        "budgets": {"max_mutants": 8},
        "groups": ["small"],
    },
    {
        "ident": "small-account",
        "component": {"ref": "BankAccount"},
        "operators": ["IndVarRepGlob"],
        "suite": {"max_cases": 6},
        "budgets": {"max_mutants": 8},
        "groups": ["small"],
    },
]


#: Generated, catalog and shared-synthesis scenarios with tiny suites, for
#: the worker-count × cache-temperature matrix and the warm replay.
MIXED_ENTRIES = [
    {
        "ident": "mixed-stack-bitneg",
        "component": {"family": "stack", "seed": 5},
        "operators": ["IndVarBitNeg"],
        "suite": {"max_cases": 6},
        "budgets": {"max_mutants": 6},
    },
    {
        "ident": "mixed-stack-glob",
        "component": {"family": "stack", "seed": 5},
        "operators": ["IndVarRepGlob"],
        "suite": {"max_cases": 6},
        "budgets": {"max_mutants": 6},
    },
    {
        "ident": "mixed-queue",
        "component": {"family": "queue", "seed": 2},
        "operators": ["IndVarRepGlob"],
        "suite": {"max_cases": 6},
        "budgets": {"max_mutants": 6},
    },
    {
        "ident": "mixed-account",
        "component": {"ref": "BankAccount"},
        "operators": ["IndVarRepGlob"],
        "suite": {"max_cases": 6},
        "budgets": {"max_mutants": 6},
    },
]

#: One catalog scenario that reads its component's type model and t-spec.
TYPED_ENTRIES = [
    {
        "ident": "typed-oblist",
        "component": {"ref": "CObList"},
        "operators": ["IndVarRepGlob"],
        "suite": {"max_cases": 6},
        "budgets": {"max_mutants": 6},
    },
]


def _retyped(ref):
    """The type model with ``_block_size`` a node, as an edit of
    ``components/specs.py`` would give it."""
    model = type_model_for(ref)
    return replace(model, attribute_types={**model.attribute_types,
                                           "_block_size": "node"})


def _respecified(monkeypatch):
    """``GetCount`` a process method instead of an access method: the
    default methods and the experiment oracle change, the suite does not."""
    spec = CObList.__tspec__
    methods = tuple(
        replace(method, category=MethodCategory.PROCESS)
        if method.name == "GetCount" else method
        for method in spec.methods
    )
    monkeypatch.setattr(CObList, "__tspec__", replace(spec, methods=methods))


#: Component inputs outside the class's files, changed.
COMPONENT_CHANGES = {
    "type-model": lambda monkeypatch: monkeypatch.setattr(
        sweep_module, "type_model_for", _retyped),
    "spec": _respecified,
}

#: Spans whose presence means real work happened (reference execution,
#: mutant execution, battery compilation) — a fully-warm sweep emits none.
WORK_SPANS = ("analysis.reference", "analysis.mutant", "parallel.run",
              "executor.case", "generate.operator")


@pytest.fixture(scope="module", autouse=True)
def _shared_pool_cleanup():
    yield
    shutdown_shared_pool()


@pytest.fixture
def fresh_pool():
    """Fork the shared pool's workers after the test's patches, and drop
    them afterwards: a worker keeps whatever code it was forked with."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


@pytest.fixture
def small_registry():
    return registry_from_mappings(SMALL_ENTRIES)


@pytest.fixture(scope="module")
def mixed_registry():
    return registry_from_mappings(MIXED_ENTRIES)


@pytest.fixture(scope="module")
def baseline(mixed_registry, tmp_path_factory):
    workspace = tmp_path_factory.mktemp("baseline-ws")
    report = SweepRunner(mixed_registry, workspace=workspace).run()
    assert report.passed
    return report.to_json(timings=False)


def _run(registry, workspace, **kwargs):
    return SweepRunner(registry, workspace=workspace).run(**kwargs)


def test_sweep_report_is_deterministic(small_registry, tmp_path):
    first = _run(small_registry, tmp_path / "ws1")
    second = _run(small_registry, tmp_path / "ws2")
    assert first.to_json(timings=False) == second.to_json(timings=False)
    assert first.passed
    assert len(first.results) == 3
    assert all(result.mutants_total > 0 for result in first.results)


def test_sweep_shares_generated_components(small_registry, tmp_path):
    runner = SweepRunner(small_registry, workspace=tmp_path / "ws")
    runner.run()
    # Two stack scenarios, one (family, seed) — synthesized exactly once.
    assert len(runner._classes) == 1
    # Suites memoized per (component, suite-config).
    assert len(runner._suites) == 2


def test_shard_merge_equals_full_run(small_registry, tmp_path):
    full = _run(small_registry, tmp_path / "ws")
    parts = [
        _run(small_registry, tmp_path / "ws", shard=(index, 2))
        for index in (1, 2)
    ]
    merged = merge_reports(parts)
    assert merged.to_json(timings=False) == full.to_json(timings=False)


def test_report_json_roundtrip(small_registry, tmp_path):
    report = _run(small_registry, tmp_path / "ws")
    reloaded = report_from_mapping(json.loads(report.to_json(timings=True)))
    assert reloaded.to_json(timings=False) == report.to_json(timings=False)
    assert reloaded.total_oracle_failures == 0


def test_max_scenarios_truncates(small_registry, tmp_path):
    report = _run(small_registry, tmp_path / "ws", max_scenarios=1)
    assert len(report.results) == 1


class TestDifferentialMatrix:
    """workers {1,2} × cache cold/warm ⇒ same bytes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_is_byte_identical(self, mixed_registry, baseline,
                                      tmp_path, workers):
        cache_dir = tmp_path / "cache"
        cold = SweepRunner(
            mixed_registry, workers=workers,
            workspace=tmp_path / "ws-cold",
            cache=MutationOutcomeCache(cache_dir),
        ).run()
        assert cold.to_json(timings=False) == baseline
        warm = SweepRunner(
            mixed_registry, workers=workers,
            workspace=tmp_path / "ws-warm",
            cache=MutationOutcomeCache(cache_dir),
        ).run()
        assert warm.to_json(timings=False) == baseline

    def test_results_keep_registry_order(self, mixed_registry, tmp_path):
        for workers in (1, 2):
            report = SweepRunner(mixed_registry, workers=workers,
                                 workspace=tmp_path / "ws").run()
            assert [result.ident for result in report.results] == \
                [scenario.ident for scenario in mixed_registry], workers

    def test_workers_get_resolved_inputs(self, mixed_registry, baseline,
                                         tmp_path, monkeypatch, fresh_pool):
        # The calling process synthesizes each component and generates
        # each suite; a worker only builds the battery, records the
        # reference run and runs the analysis.
        test_process = os.getpid()

        def parent_only(build):
            def guarded(*args, **kwargs):
                if os.getpid() != test_process:
                    raise RuntimeError(f"{build.__name__} ran in a worker")
                return build(*args, **kwargs)
            return guarded

        for name in ("synthesize", "DriverGenerator"):
            monkeypatch.setattr(sweep_module, name,
                                parent_only(getattr(sweep_module, name)))
        report = SweepRunner(mixed_registry, workers=2,
                             workspace=tmp_path / "ws").run()
        assert report.to_json(timings=False) == baseline

    def test_progress_positions_stay_dense(self, mixed_registry, tmp_path):
        for workers in (1, 2):
            seen = []
            SweepRunner(mixed_registry, workers=workers,
                        workspace=tmp_path / "ws").run(
                progress=lambda position, total, scenario, result:
                    seen.append((position, total, scenario.ident,
                                 result.ident))
            )
            assert seen == [
                (index, len(MIXED_ENTRIES), scenario.ident, scenario.ident)
                for index, scenario in enumerate(mixed_registry, start=1)
            ], workers


class TestWarmReplay:
    """A fully-warm sweep executes zero mutants and zero reference passes."""

    def test_warm_sweep_does_no_work(self, mixed_registry, baseline,
                                     tmp_path):
        cache_dir = tmp_path / "cache"
        cold_cache = MutationOutcomeCache(cache_dir)
        cold = SweepRunner(
            mixed_registry, workspace=tmp_path / "ws-cold", cache=cold_cache,
        ).run()
        assert cold.passed
        assert cold_cache.scenario_stats()["stores"] == len(MIXED_ENTRIES)

        telemetry = Telemetry(sink=MemorySink())
        warm_cache = MutationOutcomeCache(cache_dir, telemetry=telemetry)
        runner = SweepRunner(
            mixed_registry, workspace=tmp_path / "ws-warm",
            cache=warm_cache, telemetry=telemetry,
        )
        warm = runner.run()
        counters = telemetry.counters()
        spans = telemetry.span_stats()
        telemetry.close()

        assert warm.to_json(timings=False) == baseline
        assert warm.mutants_total == cold.mutants_total > 0
        # Every scenario replayed from the store …
        assert warm_cache.scenario_stats()["hits"] == len(MIXED_ENTRIES)
        assert counters.get("sweep.scenario_cache_hits", 0) == \
            len(MIXED_ENTRIES)
        assert counters.get("sweep.scenario_cache_misses", 0) == 0
        # … and no engine ever ran: no reference memo was built, no
        # reference/mutant/battery span was emitted.
        assert len(runner._references) == 0
        assert not any(name in spans for name in WORK_SPANS)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_holds_scenario_records_only(self, mixed_registry,
                                               tmp_path, workers):
        cache_dir = tmp_path / "cache"
        telemetry = Telemetry(sink=MemorySink())
        cache = MutationOutcomeCache(cache_dir, telemetry=telemetry)
        SweepRunner(mixed_registry, workers=workers,
                    workspace=tmp_path / "ws", cache=cache).run()
        assert cache.scenario_stats()["stores"] == len(MIXED_ENTRIES)
        # No engine saw the store: the run kind's counters stayed at 0.
        counters = telemetry.counters()
        assert not any(counters.get(f"cache.{event}", 0)
                       for event in ("hits", "misses", "stores"))
        # Reopened, the segment indexes the scenario records and nothing
        # else: no run record was written.
        assert MutationOutcomeCache(cache_dir).live_records() == \
            len(MIXED_ENTRIES)

    def test_warm_pooled_sweep_starts_no_worker(self, mixed_registry,
                                                baseline, tmp_path,
                                                fresh_pool):
        cache_dir = tmp_path / "cache"
        SweepRunner(
            mixed_registry, workspace=tmp_path / "ws-cold",
            cache=MutationOutcomeCache(cache_dir),
        ).run()
        telemetry = Telemetry(sink=MemorySink())
        warm_cache = MutationOutcomeCache(cache_dir)
        warm = SweepRunner(
            mixed_registry, workers=2, workspace=tmp_path / "ws-warm",
            cache=warm_cache, telemetry=telemetry,
        ).run()
        counters = telemetry.counters()
        spans = telemetry.span_stats()
        telemetry.close()

        assert warm.to_json(timings=False) == baseline
        assert counters.get("sweep.scenario_cache_hits", 0) == \
            len(MIXED_ENTRIES)
        assert counters.get("parallel.workers_spawned", 0) == 0
        assert not any(name in spans for name in WORK_SPANS)
        # A replayed row is not written back.
        assert warm_cache.scenario_stats()["stores"] == 0

    def test_editing_the_component_misses(self, mixed_registry, tmp_path,
                                          monkeypatch):
        cache_dir = tmp_path / "cache"
        SweepRunner(
            mixed_registry, workspace=tmp_path / "ws-cold",
            cache=MutationOutcomeCache(cache_dir),
        ).run()
        # A different component source hash must address a different
        # record: simulate the edit by perturbing the canonical rendering
        # of classes.
        real_canonical = sweep_module.canonical
        monkeypatch.setattr(
            sweep_module, "canonical",
            lambda value: "edited:" + real_canonical(value),
        )
        warm_cache = MutationOutcomeCache(cache_dir)
        report = SweepRunner(
            mixed_registry, workspace=tmp_path / "ws-warm", cache=warm_cache,
        ).run()
        assert report.passed
        assert warm_cache.scenario_stats()["hits"] == 0
        assert warm_cache.scenario_stats()["misses"] == len(MIXED_ENTRIES)


    @pytest.mark.parametrize("change", sorted(COMPONENT_CHANGES))
    def test_changed_type_model_or_spec_misses(self, change, tmp_path,
                                               monkeypatch):
        registry = registry_from_mappings(TYPED_ENTRIES)
        cache_dir = tmp_path / "cache"

        def sweep():
            cache = MutationOutcomeCache(cache_dir)
            report = SweepRunner(registry, workspace=tmp_path / "ws",
                                 cache=cache).run()
            assert report.passed
            return report.results[0], cache.scenario_stats()

        cold, _ = sweep()
        COMPONENT_CHANGES[change](monkeypatch)
        changed, stats = sweep()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        assert changed.suite_fingerprint == cold.suite_fingerprint
        monkeypatch.undo()
        reverted, stats = sweep()
        assert (stats["hits"], stats["misses"]) == (1, 0)
        assert reverted.to_dict(timings=False) == cold.to_dict(timings=False)


class TestErrorIsolation:
    """One scenario's crash never takes down the rest of the sweep."""

    def test_non_repro_error_is_contained(self, mixed_registry, tmp_path,
                                          monkeypatch, fresh_pool):
        real_synthesize = sweep_module.synthesize

        def hostile_synthesize(genspec):
            if genspec.family == "queue":
                raise RuntimeError("synthetic fault")
            return real_synthesize(genspec)

        monkeypatch.setattr(sweep_module, "synthesize", hostile_synthesize)
        for workers in (1, 2):
            telemetry = Telemetry(sink=MemorySink())
            report = SweepRunner(
                mixed_registry, workers=workers, workspace=tmp_path / "ws",
                telemetry=telemetry,
            ).run()
            counters = telemetry.counters()
            telemetry.close()

            assert not report.passed
            assert len(report.errors) == 1
            assert report.errors[0].ident == "mixed-queue"
            assert report.errors[0].error == "RuntimeError: synthetic fault"
            assert counters.get("sweep.errors", 0) == 1
            # The three survivors are complete, green rows.
            healthy = [result for result in report.results
                       if not result.error]
            assert len(healthy) == 3
            assert all(result.mutants_total > 0 for result in healthy)
            assert all(result.oracle_failures == 0 for result in healthy)

    def test_dead_worker_costs_only_its_task(self, mixed_registry, baseline,
                                             tmp_path, monkeypatch,
                                             fresh_pool):
        # The two stack scenarios share a component, so they form one
        # task; the worker dies on the second, after finishing the first.
        real_execute = SweepRunner._execute

        def dying_execute(self, item, started):
            if item.scenario.ident == "mixed-stack-glob":
                os._exit(3)
            return real_execute(self, item, started)

        monkeypatch.setattr(SweepRunner, "_execute", dying_execute)
        telemetry = Telemetry(sink=MemorySink())
        report = SweepRunner(
            mixed_registry, workers=2, workspace=tmp_path / "ws",
            telemetry=telemetry,
        ).run()
        counters = telemetry.counters()
        telemetry.close()

        assert [result.ident for result in report.errors] == \
            ["mixed-stack-bitneg", "mixed-stack-glob"]
        for result in report.errors:
            assert result.error.startswith("WorkerCrash: worker process "
                                           "died (exitcode 3)")
        assert counters.get("parallel.worker_crashes", 0) == 1
        assert counters.get("sweep.errors", 0) == 2
        serial = {item["ident"]: item
                  for item in json.loads(baseline)["results"]}
        healthy = [result for result in report.results if not result.error]
        assert [result.ident for result in healthy] == \
            ["mixed-queue", "mixed-account"]
        for result in healthy:
            assert result.to_dict(timings=False) == serial[result.ident]


class TestPooledTelemetry:
    """The parent traces its wait on the scenario pool as one span."""

    def test_one_parallel_run_span(self, mixed_registry, baseline,
                                   tmp_path):
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        report = SweepRunner(
            mixed_registry, workers=2, workspace=tmp_path / "ws",
            cache=MutationOutcomeCache(tmp_path / "cache"),
            telemetry=telemetry,
        ).run()
        telemetry.close()

        assert report.to_json(timings=False) == baseline
        for event in sink.events:
            validate_event(event)
        pool_spans = [event for event in sink.events
                      if event["kind"] == "span"
                      and event["name"] == "parallel.run"]
        assert len(pool_spans) == 1
        # Two stack scenarios share one task; queue and account get theirs.
        assert pool_spans[0]["attrs"] == {"scenarios": 4, "tasks": 3,
                                          "workers": 2}


def test_workers_below_one_rejected(mixed_registry):
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        SweepRunner(mixed_registry, workers=0)


def test_merge_rejects_mismatched_registries():
    base = ScenarioResult(ident="x", component="c", scenario_fingerprint="f")
    one = SweepReport(registry_fingerprint="aaaa", results=(base,))
    two = SweepReport(registry_fingerprint="bbbb", results=())
    with pytest.raises(ScenarioError, match="different registries"):
        merge_reports([one, two])
    with pytest.raises(ScenarioError, match="nothing to merge"):
        merge_reports([])


def test_negative_max_scenarios_rejected(mixed_registry, tmp_path):
    # -1 used to slice from the end and run all but the last scenario.
    runner = SweepRunner(mixed_registry, workspace=tmp_path / "ws")
    with pytest.raises(ScenarioError, match="must be at least 0, got -1"):
        runner.run(max_scenarios=-1)


def test_merge_rejects_overlapping_shards():
    result = ScenarioResult(ident="x", component="c",
                            scenario_fingerprint="f")
    one = SweepReport(registry_fingerprint="aaaa", results=(result,),
                      shard="1/2")
    two = SweepReport(registry_fingerprint="aaaa", results=(result,),
                      shard="2/2")
    with pytest.raises(ScenarioError, match="more than one report"):
        merge_reports([one, two])


def test_gate_fails_on_oracle_failures_and_errors():
    clean = SweepReport(registry_fingerprint="a", results=(
        ScenarioResult(ident="ok", component="c", scenario_fingerprint="f"),
    ))
    assert clean.passed
    failing = SweepReport(registry_fingerprint="a", results=(
        ScenarioResult(ident="bad", component="c", scenario_fingerprint="f",
                       oracle_failures=2),
    ))
    assert not failing.passed
    erroring = SweepReport(registry_fingerprint="a", results=(
        ScenarioResult(ident="boom", component="c", scenario_fingerprint="f",
                       error="GenerationError: nope"),
    ))
    assert not erroring.passed and erroring.errors


# ---------------------------------------------------------------------------
# CLI (in-process)
# ---------------------------------------------------------------------------

def _registry_file(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(SMALL_ENTRIES))
    return str(path)


def test_cli_list_and_validate(tmp_path, capsys):
    registry = _registry_file(tmp_path)
    assert cli_main(["list", "--registry", registry, "-v"]) == 0
    out = capsys.readouterr().out
    assert "small-stack-bitneg" in out and "3 scenarios" in out
    assert cli_main(["validate", "--registry", registry]) == 0
    assert "ok: 3 scenarios" in capsys.readouterr().out


def test_cli_validate_reports_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"ident": "bad", "component": {"family": "btree"}}
    ))
    assert cli_main(["validate", "--registry", str(bad)]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_cli_run_writes_report_and_gates_green(tmp_path, capsys):
    registry = _registry_file(tmp_path)
    out_path = tmp_path / "report.json"
    code = cli_main([
        "run", "--registry", registry,
        "--workspace", str(tmp_path / "ws"),
        "--report-out", str(out_path), "-v",
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["scenarios"] == 3
    assert payload["oracle_failures"] == 0
    console = capsys.readouterr().out
    assert "sweep: 3 scenarios" in console
    # -v progress lines, one per scenario in order
    assert [line[:8] for line in console.splitlines()
            if line.startswith("[")] == ["[   1/3]", "[   2/3]", "[   3/3]"]


def test_cli_run_filter_and_shard(tmp_path, capsys):
    registry = _registry_file(tmp_path)
    code = cli_main([
        "run", "--registry", registry, "--filter", "small-stack",
        "--shard", "1/1", "--workspace", str(tmp_path / "ws"),
    ])
    assert code == 0
    assert "sweep: 2 scenarios" in capsys.readouterr().out


def test_cli_run_refuses_a_negative_max_scenarios(tmp_path, capsys):
    # It used to run all but the last scenario and pass the gate.
    registry = _registry_file(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--registry", registry, "--max-scenarios", "-1",
                  "--workspace", str(tmp_path / "ws")])
    assert exit_info.value.code == 2
    assert ("--max-scenarios: must be at least 0, got -1"
            in capsys.readouterr().err)


def test_cli_report_merges_shards(tmp_path, capsys):
    registry = _registry_file(tmp_path)
    shard_paths = []
    for index in (1, 2):
        path = tmp_path / f"shard{index}.json"
        assert cli_main([
            "run", "--registry", registry, "--shard", f"{index}/2",
            "--workspace", str(tmp_path / "ws"),
            "--report-out", str(path),
        ]) == 0
        shard_paths.append(str(path))
    capsys.readouterr()
    merged_path = tmp_path / "merged.json"
    assert cli_main(
        ["report", *shard_paths, "--report-out", str(merged_path)]
    ) == 0
    assert json.loads(merged_path.read_text())["scenarios"] == 3


def test_cli_report_gate_fails_on_failures(tmp_path, capsys):
    failing = SweepReport(registry_fingerprint="a", results=(
        ScenarioResult(ident="bad", component="c", scenario_fingerprint="f",
                       oracle_failures=1),
    ))
    path = tmp_path / "failing.json"
    path.write_text(failing.to_json(timings=True))
    assert cli_main(["report", str(path)]) == 1
    assert "oracle failure" in capsys.readouterr().err


def test_scenario_mapping_roundtrip_through_cli_formats(small_registry):
    mappings = [scenario_to_mapping(s) for s in small_registry]
    assert registry_from_mappings(mappings) == small_registry

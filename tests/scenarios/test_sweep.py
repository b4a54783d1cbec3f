"""Sweep runner and CLI: determinism, warm replay, shard merging, gating.

The determinism contract under test is the acceptance criterion: same
registry + same seeds ⇒ byte-identical report JSON modulo timings
(``to_json(timings=False)``), whatever the worker count and cache
temperature.  On top of that, a fully-warm sweep of an unchanged registry
must replay from the scenario store without resolving a scenario or
executing a single mutant or reference pass (or starting a worker), a
real edit of the code misses and its revert hits again, the store holds
scenario records only, one scenario dying of an arbitrary ``Exception``
must cost exactly its own row, a worker process dying costs exactly
its task's rows, a pooled sweep's workers resolve what they run (forked
or spawned) while the calling process resolves nothing, and no worker
outlives a pooled sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core.errors import ScenarioError
from repro.generator.driver import DriverGenerator
from repro.generator.suite import TestSuite
from repro.mutation import parallel
from repro.mutation.cache import MutationOutcomeCache
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


#: Real edits of the files a catalog scenario reads, as
#: ``(file below the repro tree, old text, new text)``: the component's
#: module, and its type model and t-spec in ``components/specs.py``.
SOURCE_EDITS = {
    "component-module": ("components/oblist.py",
                         "BLOCK_SIZE = 10\n", "BLOCK_SIZE = 2\n"),
    "type-model": ("components/specs.py",
                   '"_block_size": "int"', '"_block_size": "node"'),
    "spec": ("components/specs.py",
             '.method("GetCount", category="access"',
             '.method("GetCount", category="process"'),
}

#: What a warm sweep must not call: resolving a scenario synthesizes and
#: materializes its generated component, generates its suite and hashes
#: it.  ``(owner, attribute)`` of each.
RESOLUTION_CALLS = {
    "synthesize": (sweep_module, "synthesize"),
    "materialize": (sweep_module, "materialize"),
    "generate": (DriverGenerator, "generate"),
    "suite-fingerprint": (TestSuite, "fingerprint"),
}

#: Spans whose presence means real work happened (reference execution,
#: mutant execution, battery compilation) — a fully-warm sweep emits none.
WORK_SPANS = ("analysis.reference", "analysis.mutant", "parallel.run",
              "executor.case", "generate.operator", "sweep.materialize")


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
    # Every field comes back as it was, lists as tuples; only the clock
    # is rounded, and the rows are in ident order.
    assert [replace(result, elapsed_seconds=0.0)
            for result in reloaded.results] == \
        [replace(result, elapsed_seconds=0.0)
         for result in sorted(report.results, key=lambda row: row.ident)]


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

    def test_calling_process_resolves_nothing(self, mixed_registry,
                                              baseline, tmp_path,
                                              monkeypatch):
        # Each task carries recipes only: its worker synthesizes,
        # materializes and generates what it runs, and the calling
        # process only looks up, writes and reports.
        counts, resolved = count_resolutions(monkeypatch)
        report = SweepRunner(mixed_registry, workers=2,
                             workspace=tmp_path / "ws").run()
        assert report.to_json(timings=False) == baseline
        assert dict(counts) == {} and resolved == []

    def test_spawned_workers_match_serial(self, mixed_registry, baseline,
                                          tmp_path, monkeypatch):
        # A spawned worker starts a fresh interpreter: it unpickles its
        # recipes and synthesizes and materializes the generated
        # components itself, so a patch in this process never reaches it.
        monkeypatch.setattr(parallel, "_mp_context",
                            lambda: multiprocessing.get_context("spawn"))

        def parent_synthesize(genspec):
            raise RuntimeError("synthesized in the calling process")

        monkeypatch.setattr(sweep_module, "synthesize", parent_synthesize)
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
        # Reopened, the store holds the scenario records and nothing
        # else: no run record was written.
        assert MutationOutcomeCache(cache_dir).live_records() == \
            len(MIXED_ENTRIES)

    def test_warm_pooled_sweep_starts_no_worker(self, mixed_registry,
                                                baseline, tmp_path):
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


def count_resolutions(monkeypatch):
    """From now on, count each of :data:`RESOLUTION_CALLS` and list the
    idents ``SweepRunner._resolve`` resolves, in this process."""
    counts = Counter()
    resolved = []
    for name, (owner, attribute) in RESOLUTION_CALLS.items():
        real = getattr(owner, attribute)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)
    real_resolve = SweepRunner._resolve

    def resolve(self, scenario):
        resolved.append(scenario.ident)
        return real_resolve(self, scenario)

    monkeypatch.setattr(SweepRunner, "_resolve", resolve)
    return counts, resolved


class TestHitResolvesNothing:
    """A scenario's key is its recipe plus one digest of the code, so it
    is looked up before the scenario is resolved: a hit synthesizes,
    materializes, generates and hashes nothing, serially and pooled."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_sweep_resolves_nothing(self, mixed_registry, baseline,
                                         tmp_path, monkeypatch, workers):
        cache_dir = tmp_path / "cache"
        SweepRunner(mixed_registry, workspace=tmp_path / "ws-cold",
                    cache=MutationOutcomeCache(cache_dir)).run()
        counts, resolved = count_resolutions(monkeypatch)
        telemetry = Telemetry(sink=MemorySink())
        warm = SweepRunner(
            mixed_registry, workers=workers, workspace=tmp_path / "ws-warm",
            cache=MutationOutcomeCache(cache_dir), telemetry=telemetry,
        ).run()
        spans = telemetry.span_stats()
        telemetry.close()

        assert warm.to_json(timings=False) == baseline
        assert dict(counts) == {} and resolved == []
        assert "sweep.materialize" not in spans

    @pytest.mark.parametrize("workers", [1, 2])
    def test_half_warm_sweep_resolves_exactly_its_misses(
            self, mixed_registry, baseline, tmp_path, monkeypatch, workers):
        cache_dir = tmp_path / "cache"
        SweepRunner(mixed_registry, workspace=tmp_path / "ws-cold",
                    cache=MutationOutcomeCache(cache_dir)).run("mixed-stack")
        counts, resolved = count_resolutions(monkeypatch)
        sink = MemorySink()
        cache = MutationOutcomeCache(cache_dir)
        report = SweepRunner(
            mixed_registry, workers=workers, workspace=tmp_path / "ws-warm",
            cache=cache, telemetry=Telemetry(sink=sink),
        ).run()

        assert report.to_json(timings=False) == baseline
        assert cache.scenario_stats() == {"hits": 2, "misses": 2,
                                          "stores": 2, "corrupt": 0}
        if workers == 1:
            assert resolved == ["mixed-queue", "mixed-account"]
            # One generated component and two suites: the queue's and
            # the account's.
            assert counts["synthesize"] == counts["materialize"] == 1
            assert counts["generate"] == 2
        else:
            # The workers resolve the two misses, one task each.
            assert [event["attrs"]["idents"] for event in sink.events
                    if event["name"] == "parallel.dispatch"] == \
                ["mixed-queue", "mixed-account"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_resolution_error_is_the_same_row_and_never_stored(
            self, mixed_registry, tmp_path, monkeypatch, workers):
        real_synthesize = sweep_module.synthesize

        def hostile_synthesize(genspec):
            if genspec.family == "queue":
                raise RuntimeError("synthetic fault")
            return real_synthesize(genspec)

        monkeypatch.setattr(sweep_module, "synthesize", hostile_synthesize)
        cache_dir = tmp_path / "cache"
        rows, stats = [], []
        for temperature in ("cold", "warm"):
            cache = MutationOutcomeCache(cache_dir)
            report = SweepRunner(
                mixed_registry, workers=workers,
                workspace=tmp_path / f"ws-{temperature}", cache=cache,
            ).run()
            [failed] = report.errors
            rows.append(failed.to_dict(timings=False))
            stats.append(cache.scenario_stats())

        assert rows[0] == rows[1]
        assert rows[0]["ident"] == "mixed-queue"
        assert rows[0]["error"] == "RuntimeError: synthetic fault"
        assert stats == [
            {"hits": 0, "misses": 4, "stores": 3, "corrupt": 0},
            {"hits": 3, "misses": 1, "stores": 0, "corrupt": 0},
        ]
        assert MutationOutcomeCache(cache_dir).live_records() == 3


class SourceCopy:
    """A copy of the ``repro`` tree that sweeps ``TYPED_ENTRIES`` in a
    subprocess, into one store and workspace."""

    def __init__(self, root: Path):
        self.root = root
        self.tree = root / "src"
        shutil.copytree(Path(repro.__file__).parent, self.tree / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.registry = root / "registry.json"
        self.registry.write_text(json.dumps(TYPED_ENTRIES))

    def edit(self, path: str, old: str, new: str) -> None:
        """Replace ``old`` by ``new`` in one file below the copy's
        ``repro`` directory."""
        target = self.tree / "repro" / path
        text = target.read_text()
        assert text.count(old) == 1, f"{old!r} is not once in {path}"
        target.write_text(text.replace(old, new))

    def sweep(self):
        """``(hits, misses)`` of one sweep of the copy, and its one row's
        deterministic projection."""
        report = self.root / "report.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.scenarios", "run",
             "--registry", str(self.registry),
             "--workspace", str(self.root / "ws"),
             "--cache-dir", str(self.root / "store"), "--cache-stats",
             "--report-out", str(report)],
            capture_output=True, text=True, cwd=self.root, timeout=120,
            env={**os.environ, "PYTHONPATH": str(self.tree)},
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        hits, misses = re.search(r"scenario cache: (\d+) hits, (\d+) misses",
                                 completed.stdout).groups()
        [row] = report_from_mapping(json.loads(report.read_text())).results
        return (int(hits), int(misses)), row.to_dict(timings=False)


@pytest.fixture(scope="module")
def source_copy(tmp_path_factory):
    """A :class:`SourceCopy` whose store one cold sweep filled, and that
    sweep's row."""
    copy = SourceCopy(tmp_path_factory.mktemp("source-copy"))
    stats, row = copy.sweep()
    assert stats == (0, 1)
    return copy, row


class TestSourceEdits:
    """A real edit of a file the scenario reads misses its stored row,
    and reverting the edit hits it again; each run is a fresh process on
    a copy of the tree, against the same store."""

    @pytest.mark.parametrize("edit", sorted(SOURCE_EDITS))
    def test_edit_misses_and_revert_hits(self, edit, source_copy):
        copy, cold = source_copy
        path, old, new = SOURCE_EDITS[edit]
        copy.edit(path, old, new)
        try:
            edited, _ = copy.sweep()
        finally:
            copy.edit(path, new, old)
        assert edited == (0, 1)
        reverted, row = copy.sweep()
        assert reverted == (1, 0)
        assert row == cold


class TestErrorIsolation:
    """One scenario's crash never takes down the rest of the sweep."""

    def test_non_repro_error_is_contained(self, mixed_registry, tmp_path,
                                          monkeypatch):
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
                                             tmp_path, monkeypatch):
        # The two stack scenarios share a component, so they form one
        # task; the worker dies on the second, after finishing the first.
        real_run = SweepRunner._run

        def dying_run(self, scenario):
            if scenario.ident == "mixed-stack-glob":
                os._exit(3)
            return real_run(self, scenario)

        monkeypatch.setattr(SweepRunner, "_run", dying_run)
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

    def test_no_worker_outlives_the_sweep(self, mixed_registry, tmp_path):
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        SweepRunner(mixed_registry, workers=2, workspace=tmp_path / "ws",
                    telemetry=telemetry).run()
        telemetry.close()

        pids = {event["attrs"]["pid"] for event in sink.events
                if event["name"] == "parallel.worker_spawned"}
        assert len(pids) == 2
        assert not pids & {child.pid
                           for child in multiprocessing.active_children()}


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

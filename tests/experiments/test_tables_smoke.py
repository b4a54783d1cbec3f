"""Smoke tests for the frozen experiment tables on tiny configurations.

These are deliberately small: one method, a truncated suite.  They pin
down the *shape* of each table (rows, operators, totals that must agree),
that ``workers=2`` reaches the parallel engine and reproduces the
``workers=1`` rows, and that the runners and CLIs refuse counts they
cannot honour — without paying for the full paper workloads.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import TABLE2_METHODS, TABLE3_METHODS
from repro.experiments.table1 import OPERATOR_DEFINITIONS, run_table1
from repro.experiments.table2 import main as table2_main, run_table2
from repro.experiments.table3 import main as table3_main, run_table3
from repro.mutation.operators import ALL_OPERATORS
from repro.obs import MemorySink, Telemetry, validate_jsonl

OPERATOR_NAMES = tuple(operator.name for operator in ALL_OPERATORS)
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1()

    def test_row_shape(self, result):
        assert len(result.demos) == len(OPERATOR_NAMES)
        assert tuple(demo.operator for demo in result.demos) == OPERATOR_NAMES
        for demo in result.demos:
            assert demo.definition == OPERATOR_DEFINITIONS[demo.operator]
            assert 0 < demo.typed_mutants <= demo.untyped_mutants
            assert demo.example != "<no mutants>"

    def test_format_contains_table_header(self, result):
        assert "Table 1" in result.format()

    def test_demo_lookup(self, result):
        assert result.demo_for("IndVarBitNeg").operator == "IndVarBitNeg"
        with pytest.raises(KeyError):
            result.demo_for("Bogus")


class TestTable2:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_table2(methods=("FindMax",), with_equivalence=False,
                          max_cases=120)

    def test_row_shape(self, serial):
        table = serial.table
        assert table.class_name == "CSortableObList"
        assert table.methods == ("FindMax",)
        assert table.operators == OPERATOR_NAMES
        assert table.total_generated == serial.run.total
        assert sum(table.per_method.values()) == table.total_generated
        assert len(serial.suite) == 120
        assert serial.run.suite_size == 120

    def test_workers_2_reproduces_serial(self, serial):
        parallel = run_table2(methods=("FindMax",), with_equivalence=False,
                              max_cases=120, workers=2)
        assert parallel.run.same_results(serial.run)
        assert parallel.table == serial.table
        assert parallel.suite == serial.suite

    def test_probe_traces_into_the_run_session(self):
        sink = MemorySink()
        result = run_table2(methods=("FindMax",), max_cases=40,
                            telemetry=Telemetry(sink=sink))
        spans = [event for event in sink.events if event["kind"] == "span"]
        probes = [span["attrs"] for span in spans
                  if span["name"] == "equivalence.probe"]
        equivalence = result.equivalence
        assert probes == [{
            "pending": probes[0]["pending"],
            "suite": equivalence.probe_suite_size,
            "kills": len(equivalence.probe_kill_reasons),
        }]
        assert probes[0]["pending"] > 0
        # One analysis.mutant span per mutant of the main run, then one per
        # survivor the probe executes.
        assert (sum(span["name"] == "analysis.mutant" for span in spans)
                == result.run.total + probes[0]["pending"])

    def test_methods_default_is_table2(self):
        assert TABLE2_METHODS == (
            "Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"
        )


class TestTable3:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_table3(methods=("RemoveHead",), max_cases=80)

    def test_row_shape(self, serial):
        table = serial.incremental_table
        assert table.class_name == "CSortableObList"
        assert table.methods == ("RemoveHead",)
        assert table.operators == OPERATOR_NAMES
        assert table.total_generated == serial.incremental_run.total
        # Contrast runs are off by default.
        assert serial.base_suite_run is None
        assert serial.full_suite_run is None
        assert serial.plan.executed_suite is not None

    def test_workers_2_reproduces_serial(self, serial):
        parallel = run_table3(methods=("RemoveHead",), max_cases=80, workers=2)
        assert parallel.incremental_run.same_results(serial.incremental_run)
        assert parallel.incremental_table == serial.incremental_table

    def test_methods_default_is_table3(self):
        assert TABLE3_METHODS == ("AddHead", "RemoveAt", "RemoveHead")


class TestRunnersRefuseCounts:
    @pytest.mark.parametrize("max_cases", [-620, 0])
    @pytest.mark.parametrize("runner,options", [
        (run_table2, {"methods": ("FindMax",), "with_equivalence": False}),
        (run_table3, {"methods": ("RemoveHead",)}),
    ], ids=("table2", "table3"))
    def test_max_cases_below_one(self, runner, options, max_cases):
        # A negative count sliced from the end and 0 left an empty suite;
        # either scored 0.0 % instead of failing as --max-cases does.
        with pytest.raises(ValueError, match="max_cases must be at least 1"):
            runner(max_cases=max_cases, **options)


class TestCommandLine:
    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    def test_module_runs_without_runpy_warning(self, table):
        # The package used to import the table modules, so runpy found
        # each one already imported before running it as __main__.
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", f"repro.experiments.{table}", "--help"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr

    def test_table2_cli_smoke(self, capsys):
        exit_code = table2_main([
            "--methods", "FindMax", "--max-cases", "40",
            "--workers", "2", "--no-equivalence",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Mutation results for class CSortableObList" in output
        assert "Table 2" in output

    def test_table2_cli_store_and_trace_flags(self, tmp_path, capsys):
        # Cold, then warm into the same store: the warm run replays every
        # verdict the cold run stored.
        arguments = ["--methods", "FindMax", "--max-cases", "40",
                     "--no-equivalence", "--cache-dir", str(tmp_path / "store"),
                     "--cache-stats"]
        trace = tmp_path / "trace.jsonl"
        assert table2_main([*arguments, "--trace-out", str(trace)]) == 0
        cold = capsys.readouterr().out
        misses = re.search(r"^cache: 0 hits, (\d+) misses", cold, re.M)
        assert misses is not None, cold
        assert int(misses.group(1)) > 0
        assert validate_jsonl(trace.read_text().splitlines()) > 0

        assert table2_main([*arguments, "--obs-summary"]) == 0
        warm = capsys.readouterr().out
        assert f"cache: {misses.group(1)} hits, 0 misses" in warm
        assert re.search(r"^obs", warm, re.M)

    def test_table3_cli_smoke(self, capsys):
        exit_code = table3_main([
            "--methods", "RemoveHead", "--max-cases", "40",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 3" in output

    @pytest.mark.parametrize("arguments,refusal", [
        (["--max-cases", "-620"], "--max-cases: must be at least 1, got -620"),
        (["--max-cases", "0"], "--max-cases: must be at least 1, got 0"),
        (["--workers", "-3", "--max-cases", "5"],
         "--workers: must be at least 1, got -3"),
    ], ids=("negative-max-cases", "zero-max-cases", "negative-workers"))
    def test_table2_cli_refuses_counts_it_cannot_honour(self, arguments,
                                                        refusal, capsys):
        # A negative slice counted from the end, an empty suite scored
        # 0.0%, and a negative worker count ran serially.
        with pytest.raises(SystemExit) as exit_info:
            table2_main(["--methods", "FindMax", "--no-equivalence",
                         *arguments])
        assert exit_info.value.code == 2
        assert refusal in capsys.readouterr().err

    def test_table2_cli_reports_an_unknown_method(self, capsys):
        exit_code = table2_main([
            "--methods", "NoSuchMethod", "--max-cases", "5",
            "--no-equivalence",
        ])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert "NoSuchMethod" in error
        assert "Traceback" not in error

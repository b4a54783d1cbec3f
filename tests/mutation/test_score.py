"""Tests for the Table-2/3-shaped score tables."""

from __future__ import annotations

import pytest

from repro.harness.oracles import KillReason
from repro.harness.outcomes import SuiteResult
from repro.mutation.analysis import MutantOutcome, MutationRun
from repro.mutation.equivalence import EquivalenceReport
from repro.mutation.mutant import Mutant
from repro.mutation.score import build_score_table


def mutant(ident, method, operator):
    return Mutant(
        ident=ident,
        operator=operator,
        class_name="X",
        method_name=method,
        variable="v",
        occurrence=0,
        line=1,
        replacement="w",
        description="replace v with w",
        mutated_source="def m(): pass",
    )


def outcome(ident, method, operator, killed, reason=KillReason.CRASH):
    return MutantOutcome(
        mutant=mutant(ident, method, operator),
        killed=killed,
        reason=reason if killed else KillReason.NONE,
        killing_case="TC0" if killed else "",
    )


def run_of(outcomes):
    return MutationRun(
        class_name="X",
        suite_size=10,
        outcomes=tuple(outcomes),
        reference=SuiteResult(class_name="X", results=()),
        elapsed_seconds=0.1,
    )


class TestBuildScoreTable:
    def test_counts_and_scores(self):
        run = run_of([
            outcome("M1", "Sort", "IndVarBitNeg", True),
            outcome("M2", "Sort", "IndVarBitNeg", False),
            outcome("M3", "Sort", "IndVarRepLoc", True, KillReason.ASSERTION),
            outcome("M4", "Find", "IndVarRepLoc", True),
        ])
        table = build_score_table(run)
        assert table.total_generated == 4
        assert table.total_killed == 3
        assert table.total_equivalent == 0
        assert table.total_score == pytest.approx(0.75)
        assert table.assertion_kills == 1

    def test_per_method_grid(self):
        run = run_of([
            outcome("M1", "Sort", "IndVarBitNeg", True),
            outcome("M2", "Sort", "IndVarRepLoc", True),
            outcome("M3", "Find", "IndVarRepLoc", False),
        ])
        table = build_score_table(run)
        assert table.per_method[("Sort", "IndVarBitNeg")] == 1
        assert table.per_method[("Sort", "IndVarRepLoc")] == 1
        assert table.per_method[("Find", "IndVarRepLoc")] == 1
        assert table.method_total("Sort") == 2

    def test_equivalents_excluded_from_denominator(self):
        run = run_of([
            outcome("M1", "Sort", "IndVarRepReq", True),
            outcome("M2", "Sort", "IndVarRepReq", False),  # equivalent
            outcome("M3", "Sort", "IndVarRepReq", False),  # real escape
        ])
        equivalence = EquivalenceReport(
            likely_equivalent=("M2",),
            escaped=("M3",),
            probe_kill_reasons={"M3": KillReason.OUTPUT_DIFFERENCE},
            probe_suite_size=100,
        )
        table = build_score_table(run, equivalence)
        column = table.column("IndVarRepReq")
        assert column.generated == 3
        assert column.equivalent == 1
        assert column.score == pytest.approx(0.5)  # 1 killed / (3-1)

    def test_method_order_preserved(self):
        run = run_of([
            outcome("M1", "Zeta", "IndVarBitNeg", True),
            outcome("M2", "Alpha", "IndVarBitNeg", True),
        ])
        table = build_score_table(run)
        assert table.methods == ("Zeta", "Alpha")  # first-appearance order

    def test_explicit_method_order(self):
        run = run_of([outcome("M1", "B", "IndVarBitNeg", True)])
        table = build_score_table(run, methods=("A", "B"))
        assert table.methods == ("A", "B")
        assert table.method_total("A") == 0

    def test_empty_column_scores_one(self):
        run = run_of([outcome("M1", "Sort", "IndVarBitNeg", True)])
        table = build_score_table(run)
        assert table.column("IndVarRepGlob").score == 1.0


class TestFormatting:
    def test_paper_layout(self):
        run = run_of([
            outcome("M1", "Sort1", "IndVarBitNeg", True),
            outcome("M2", "Sort1", "IndVarRepGlob", False),
        ])
        text = build_score_table(run).format()
        assert "Mutation results for class X" in text
        for header in ("Method", "IndVarBitNeg", "IndVarRepGlob", "Total"):
            assert header in text
        for aggregate in ("#mutants", "#killed", "#equivalent", "Score"):
            assert aggregate in text
        assert "kills by assertion violation" in text

    def test_percentages_rendered(self):
        run = run_of([
            outcome("M1", "Sort1", "IndVarBitNeg", True),
            outcome("M2", "Sort1", "IndVarBitNeg", False),
        ])
        assert "50.0%" in build_score_table(run).format()

    def test_unknown_column_lookup(self):
        run = run_of([outcome("M1", "Sort1", "IndVarBitNeg", True)])
        with pytest.raises(KeyError):
            build_score_table(run).column("Bogus")

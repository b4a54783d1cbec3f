"""Integration tests over the frozen experiment modules (quick variants).

Full experiment runs live in ``benchmarks/``; here we verify the experiment
plumbing and the *shape* claims on reduced configurations so the test suite
stays fast.
"""

from __future__ import annotations

from repro.experiments import (
    figure1_product_interface,
    figure2_product_tfm,
    figure3_tspec_roundtrip,
    figure45_bit_demo,
    figure67_generated_driver,
    edge_bound_ablation,
    incremental_plan,
    test_mode_overhead as _test_mode_overhead,
)
from repro.experiments.table1 import OPERATOR_DEFINITIONS, run_table1


class TestTable1:
    def test_all_operators_demonstrated(self):
        result = run_table1()
        assert len(result.demos) == 5
        for demo in result.demos:
            assert demo.typed_mutants > 0
            assert demo.untyped_mutants >= demo.typed_mutants
            assert demo.definition == OPERATOR_DEFINITIONS[demo.operator]
            assert demo.example != "<no mutants>"


class TestFigures:
    def test_figure1_interface(self):
        text = figure1_product_interface()
        assert "Product" in text
        assert "constructor" in text
        assert "UpdateQty" in text

    def test_figure2_tfm(self):
        result = figure2_product_tfm()
        assert result.metrics.nodes == 6
        assert result.use_case_path.length == 4  # create → show → remove → destroy
        assert "*" in result.ascii_rendering
        assert "digraph" in result.dot_rendering
        assert result.transaction_count > 10

    def test_figure3_roundtrip(self):
        text, roundtrips = figure3_tspec_roundtrip()
        assert roundtrips
        assert "Class ('Product'" in text

    def test_figure45_bit(self):
        result = figure45_bit_demo()
        assert set(result.violations_in_test_mode) == {"pre", "post", "invariant"}
        assert result.silent_outside_test_mode
        assert result.bit_blocked_outside_test_mode
        assert result.reporter_state["reading"] == 3

    def test_figure67_driver(self):
        result = figure67_generated_driver(max_cases=8)
        assert result.test_case_count == 8
        assert result.passed == 8
        assert result.failed == 0
        assert "def test_case_" in result.driver_source


class TestIncrementalPlanShape:
    def test_paper_shape(self):
        plan = incremental_plan()
        stats = plan.stats()
        # New and reused pools both substantial (paper: 233 / 329).
        assert stats["new_cases"] > 100
        assert stats["reused_cases"] > 100
        assert stats["executed_cases"] == stats["new_cases"]


class TestAblationPlumbing:
    def test_edge_bound_rows_monotone(self):
        rows = edge_bound_ablation(bounds=(1, 2))
        by_class = {}
        for row in rows:
            by_class.setdefault(row.class_name, []).append(row.transactions)
        for counts in by_class.values():
            assert counts[0] < counts[1]

    def test_overhead_production_is_free(self):
        # The identity claim is what matters (timing is noisy in CI): the
        # production build IS the original class, so its cost is the plain
        # cost by construction.
        from repro.bit.instrument import compile_component
        from repro.components import BoundedStack

        assert compile_component(BoundedStack, test_mode=False) is BoundedStack
        result = _test_mode_overhead(rounds=300)
        assert result.plain_seconds > 0
        # Instrumentation in test mode does real work: measurably slower.
        assert result.instrumented_on_seconds > result.plain_seconds
        assert "test-mode overhead" in result.format()

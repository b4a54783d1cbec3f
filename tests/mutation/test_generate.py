"""Tests for the mutant generation pipeline."""

from __future__ import annotations

import ast

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.mutation.generate import MutantGenerator, generate_mutants
from repro.mutation.operators import (
    ALL_OPERATORS,
    OPERATOR_NAMES,
    IndVarBitNeg,
    IndVarRepReq,
    MutationOperator,
    MutationPoint,
)


class TestGeneration:
    def test_all_mutants_compile(self):
        mutants, report = generate_mutants(CSortableObList, ["FindMax"])
        assert mutants
        assert report.compile_failures == 0
        for mutant in mutants:
            assert callable(mutant.function)

    def test_idents_sequential_and_prefixed(self):
        mutants, _ = generate_mutants(CObList, ["RemoveHead"], ident_prefix="B")
        assert mutants[0].ident == "B0001"
        idents = [mutant.ident for mutant in mutants]
        assert idents == sorted(idents)
        assert len(set(idents)) == len(idents)

    def test_records_carry_location_and_description(self):
        mutants, _ = generate_mutants(CSortableObList, ["FindMin"])
        for mutant in mutants:
            record = mutant.record
            assert record.method_name == "FindMin"
            assert record.class_name == "CSortableObList"
            assert record.operator in OPERATOR_NAMES
            assert record.line > 0
            assert record.variable in record.description
            assert record.mutated_source

    def test_mutated_source_differs_from_original(self):
        import inspect
        import textwrap

        original = textwrap.dedent(inspect.getsource(CSortableObList.FindMax))
        mutants, _ = generate_mutants(CSortableObList, ["FindMax"])
        for mutant in mutants[:20]:
            assert mutant.record.mutated_source != original

    def test_no_duplicate_sources_per_method(self):
        mutants, report = generate_mutants(CSortableObList, ["Sort2"])
        sources = [mutant.record.mutated_source for mutant in mutants]
        assert len(sources) == len(set(sources))

    def test_operator_subset(self):
        mutants, _ = generate_mutants(
            CSortableObList, ["FindMax"], operators=(IndVarBitNeg(),)
        )
        assert {mutant.operator for mutant in mutants} == {"IndVarBitNeg"}

    def test_report_accounting(self):
        mutants, report = generate_mutants(CSortableObList, ["FindMax", "FindMin"])
        assert report.generated == len(mutants)
        assert sum(report.per_method_operator.values()) == len(mutants)
        assert set(report.methods) == {"FindMax", "FindMin"}
        assert "2 methods" in report.summary()

    def test_type_gate_accounting(self):
        _, report = generate_mutants(
            CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
        )
        assert report.type_incompatible > 0
        assert "type-incompatible" in report.summary()

    def test_generator_reuse(self):
        generator = MutantGenerator(CSortableObList)
        first, _ = generator.generate(["FindMax"])
        second, _ = generator.generate(["FindMin"])
        assert first and second

    def test_doubled_operator_counts_duplicates(self):
        """A second copy of an operator re-derives every source the first
        generated: each counts as one duplicate and adds no mutant."""
        operator = ALL_OPERATORS[-1]
        single, _ = generate_mutants(CObList, ["AddHead"],
                                     operators=(operator,))
        doubled, report = generate_mutants(CObList, ["AddHead"],
                                           operators=(operator, operator))
        assert report.duplicates == len(single) > 0
        assert [m.record for m in doubled] == [m.record for m in single]

    def test_textual_noop_counts_as_one_duplicate(self):
        class SelfReplace(MutationOperator):
            name = "IndVarRepLoc"

            def points(self, context):
                for point in IndVarRepReq().points(context):
                    yield MutationPoint(
                        site=point.site,
                        replacement=ast.Name(id=point.site.variable,
                                             ctx=ast.Load()),
                        description="self replacement (no-op)",
                    )
                    return

        mutants, report = generate_mutants(
            CObList, ["AddHead"], operators=(SelfReplace(),)
        )
        assert mutants == []
        assert report.duplicates == 1


class TestPaperScale:
    def test_table2_pool_close_to_700(self):
        mutants, _ = generate_mutants(
            CSortableObList,
            ["Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"],
            type_model=OBLIST_TYPE_MODEL,
        )
        # Paper: 700 mutants for the five methods.
        assert 500 <= len(mutants) <= 900

    def test_table3_pool_close_to_159(self):
        mutants, _ = generate_mutants(
            CObList,
            ["AddHead", "RemoveAt", "RemoveHead"],
            type_model=OBLIST_TYPE_MODEL,
        )
        # Paper: 159 mutants for the three base methods.
        assert 100 <= len(mutants) <= 260

    def test_every_operator_contributes_to_table2(self):
        mutants, _ = generate_mutants(
            CSortableObList,
            ["Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"],
            type_model=OBLIST_TYPE_MODEL,
        )
        operators = {mutant.operator for mutant in mutants}
        assert operators == set(OPERATOR_NAMES)


class TestMutantBehaviour:
    def test_mutant_class_is_separate(self):
        mutants, _ = generate_mutants(CSortableObList, ["FindMax"])
        mutant_class = mutants[0].build_class()
        assert mutant_class is not CSortableObList
        assert mutant_class.__name__ == "CSortableObList"
        # Original class unaffected.
        pristine = CSortableObList()
        pristine.AddTail(3)
        pristine.AddTail(1)
        assert pristine.FindMax() == 0

    def test_mutant_class_cached(self):
        mutants, _ = generate_mutants(CSortableObList, ["FindMax"])
        mutant = mutants[0]
        assert mutant.build_class() is mutant.build_class()

    def test_some_mutant_changes_behaviour(self):
        from repro.mutation.sandbox import StepBudgetGuard

        # Some mutants loop forever (e.g. a cursor replaced by self._head):
        # every direct execution must run under the step-budget guard.
        guard = StepBudgetGuard(budget=5_000)
        mutants, _ = generate_mutants(CSortableObList, ["FindMax"])
        changed = 0
        for mutant in mutants:
            mutant_class = mutant.build_class()
            instance = mutant_class()
            instance.AddTail(3)
            instance.AddTail(7)
            instance.AddTail(1)
            try:
                if guard(instance.FindMax) != 1:
                    changed += 1
            except Exception:
                changed += 1
        assert changed > 0

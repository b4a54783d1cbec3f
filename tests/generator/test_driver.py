"""Tests for the DriverGenerator (transaction coverage + alternatives)."""

from __future__ import annotations

import pytest

from repro.components import (
    PRODUCT_SPEC,
    SORTABLE_OBLIST_SPEC,
    STACK_SPEC,
)
from repro.core.errors import GenerationError
from repro.generator.driver import DriverGenerator, generate_suite
from repro.generator.testcase import TestCaseCounter
from repro.generator.values import TypeBinding
from repro.tfm.graph import TransactionFlowGraph
from repro.tfm.transactions import enumerate_transactions


class TestTransactionCoverage:
    def test_every_transaction_has_a_case(self):
        suite = DriverGenerator(STACK_SPEC).generate()
        graph = TransactionFlowGraph(STACK_SPEC)
        enumerated = {t.ident for t in enumerate_transactions(graph)}
        exercised = {case.transaction.ident for case in suite.cases}
        assert exercised == enumerated

    def test_cases_match_transaction_structure(self):
        suite = DriverGenerator(STACK_SPEC).generate()
        graph = TransactionFlowGraph(STACK_SPEC)
        for case in suite.cases:
            assert len(case.steps) == case.transaction.length
            for step, node_ident in zip(case.steps, case.transaction.path):
                assert step.node_ident == node_ident
                node_methods = {m.ident for m in graph.node_methods(node_ident)}
                assert step.method_ident in node_methods

    def test_first_step_is_construction_last_is_destruction(self):
        suite = DriverGenerator(STACK_SPEC).generate()
        for case in suite.cases:
            assert case.steps[0].is_construction
            assert case.steps[-1].is_destruction


class TestAlternativeCoverage:
    def test_every_alternative_chosen_somewhere(self):
        suite = DriverGenerator(SORTABLE_OBLIST_SPEC).generate()
        graph = TransactionFlowGraph(SORTABLE_OBLIST_SPEC)
        for transaction in suite.transactions:
            cases = suite.cases_for_transaction(transaction)
            for position, node_ident in enumerate(transaction.path):
                alternatives = {m.ident for m in graph.node_methods(node_ident)}
                chosen = {case.steps[position].method_ident for case in cases}
                assert chosen == alternatives

    def test_alternatives_disabled_yields_one_case_each(self):
        generator = DriverGenerator(SORTABLE_OBLIST_SPEC, cover_alternatives=False)
        suite = generator.generate()
        assert len(suite) == suite.transactions_total

    def test_extra_variants(self):
        base = DriverGenerator(STACK_SPEC).generate()
        extra = DriverGenerator(STACK_SPEC, extra_variants=2).generate()
        assert len(extra) == len(base) + 2 * base.transactions_total

    def test_negative_extra_variants_rejected(self):
        with pytest.raises(GenerationError):
            DriverGenerator(STACK_SPEC, extra_variants=-1)


class TestValueBinding:
    def test_samplable_arguments_bound(self):
        suite = DriverGenerator(STACK_SPEC).generate()
        for case in suite.cases:
            assert case.is_complete

    def test_argument_values_within_domains(self):
        suite = DriverGenerator(STACK_SPEC).generate()
        spec_by_ident = {method.ident: method for method in STACK_SPEC.methods}
        for case in suite.cases:
            for step in case.steps:
                method = spec_by_ident[step.method_ident]
                for argument, parameter in zip(step.arguments, method.parameters):
                    assert parameter.domain.contains(argument)

    def test_structured_parameters_become_holes(self):
        suite = DriverGenerator(PRODUCT_SPEC).generate()
        assert suite.incomplete_cases
        hole_classes = {
            hole.class_name
            for case in suite.incomplete_cases
            for _, hole in case.holes
        }
        assert hole_classes == {"Provider"}

    def test_bindings_fill_structured_parameters(self):
        from repro.components import Provider

        bindings = TypeBinding({
            "Provider": lambda rng: Provider("p", rng.randint(0, 9)),
        })
        suite = DriverGenerator(PRODUCT_SPEC, bindings=bindings).generate()
        assert suite.is_executable


class TestDeterminism:
    def test_same_seed_same_suite(self):
        first = DriverGenerator(STACK_SPEC, seed=5).generate()
        second = DriverGenerator(STACK_SPEC, seed=5).generate()
        assert first == second

    def test_different_seed_different_values(self):
        first = DriverGenerator(STACK_SPEC, seed=5).generate()
        second = DriverGenerator(STACK_SPEC, seed=6).generate()
        assert first != second
        # Structure is identical, only values differ.
        assert [c.transaction.ident for c in first.cases] == [
            c.transaction.ident for c in second.cases
        ]

    def test_case_idents_are_sequential(self):
        suite = DriverGenerator(STACK_SPEC).generate()
        assert [case.ident for case in suite.cases] == [
            f"TC{i}" for i in range(len(suite))
        ]

    def test_shared_counter_across_generators(self):
        counter = TestCaseCounter()
        generator = DriverGenerator(STACK_SPEC)
        transaction = generator.enumerate()[0]
        first = generator.generate_for_transaction(transaction, counter)
        second = generator.generate_for_transaction(transaction, counter)
        all_idents = [case.ident for case in first + second]
        assert len(all_idents) == len(set(all_idents))


class TestConvenience:
    def test_generate_suite_helper(self):
        suite = generate_suite(STACK_SPEC, seed=1)
        assert len(suite) > 0
        assert suite.class_name == "BoundedStack"

    def test_suite_metadata(self):
        suite = DriverGenerator(STACK_SPEC, seed=11, edge_bound=1).generate()
        assert suite.seed == 11
        assert suite.edge_bound == 1
        assert suite.transactions_total == len(suite.transactions)
        assert not suite.truncated

    def test_truncation_propagates(self):
        suite = DriverGenerator(STACK_SPEC, max_transactions=2).generate()
        assert suite.truncated

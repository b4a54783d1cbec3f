"""Tests for the TestCase/TestStep model."""

from __future__ import annotations

import pytest

from repro.core.domains import ObjectDomain
from repro.core.errors import IncompleteTestCaseError
from repro.core.rng import ReproRandom
from repro.generator.testcase import TestCase, TestCaseCounter, TestStep
from repro.generator.values import Hole
from repro.tfm.transactions import Transaction


def build_case(with_hole=False) -> TestCase:
    arguments = (Hole("prv", ObjectDomain("Widget")),) if with_hole else (5,)
    return TestCase(
        ident="TC0",
        transaction=Transaction(("n1", "n2", "n3")),
        steps=(
            TestStep("m1", "Thing", (), node_ident="n1", is_construction=True),
            TestStep("m2", "Work", arguments, node_ident="n2"),
            TestStep("m3", "~Thing", (), node_ident="n3", is_destruction=True),
        ),
        class_name="Thing",
        seed=99,
    )


class TestStructure:
    def test_construction_processing_destruction(self):
        case = build_case()
        assert case.construction.method_name == "Thing"
        assert [step.method_name for step in case.processing_steps] == ["Work"]
        assert case.destruction is not None
        assert case.destruction.method_name == "~Thing"

    def test_must_start_with_construction(self):
        with pytest.raises(ValueError, match="construction"):
            TestCase(
                ident="TC1",
                transaction=Transaction(("n1",)),
                steps=(TestStep("m2", "Work", ()),),
                class_name="Thing",
            )

    def test_needs_steps(self):
        with pytest.raises(ValueError, match="no steps"):
            TestCase(
                ident="TC1",
                transaction=Transaction(("n1",)),
                steps=(),
                class_name="Thing",
            )

    def test_container_protocol(self):
        case = build_case()
        assert len(case) == 3
        assert [step.method_ident for step in case] == ["m1", "m2", "m3"]

    def test_method_names(self):
        assert build_case().method_names == ("Thing", "Work", "~Thing")

    def test_no_destruction(self):
        case = TestCase(
            ident="TC2",
            transaction=Transaction(("n1",)),
            steps=(TestStep("m1", "Thing", (), is_construction=True),),
            class_name="Thing",
        )
        assert case.destruction is None


class TestHoles:
    def test_complete_case(self):
        case = build_case()
        assert case.is_complete
        case.require_complete()

    def test_incomplete_case(self):
        case = build_case(with_hole=True)
        assert not case.is_complete
        holes = case.holes
        assert len(holes) == 1
        step_index, hole = holes[0]
        assert step_index == 1
        assert hole.parameter == "prv"

    def test_require_complete_raises(self):
        with pytest.raises(IncompleteTestCaseError, match="prv"):
            build_case(with_hole=True).require_complete()

    def test_complete_fills_holes(self):
        case = build_case(with_hole=True)

        class Widget:
            pass

        filled = case.complete(lambda hole, rng: Widget())
        assert filled.is_complete
        assert isinstance(filled.steps[1].arguments[0], Widget)
        # Original untouched (frozen value semantics).
        assert not case.is_complete

    def test_complete_uses_case_seed(self):
        case = build_case(with_hole=True)
        seeds = []
        case.complete(lambda hole, rng: seeds.append(rng.seed) or 1)
        assert seeds == [case.seed]

    def test_complete_with_explicit_rng(self):
        case = build_case(with_hole=True)
        seeds = []
        case.complete(lambda hole, rng: seeds.append(rng.seed) or 1,
                      rng=ReproRandom(123))
        assert seeds == [123]


class TestFormatting:
    def test_step_format(self):
        step = TestStep("m2", "Work", (5, "x"), node_ident="n2")
        assert step.format() == "Work(5, 'x')"

    def test_construction_format(self):
        step = TestStep("m1", "Thing", (1,), is_construction=True)
        assert step.format() == "new Thing(1)"

    def test_destruction_format(self):
        step = TestStep("m3", "~Thing", (), is_destruction=True)
        assert "delete" in step.format()

    def test_hole_format(self):
        step = TestStep("m2", "Work", (Hole("p", ObjectDomain("W")),))
        assert "<hole p" in step.format()

    def test_case_format_lists_steps(self):
        text = build_case().format()
        assert "TC0" in text
        assert "new Thing()" in text
        assert "Work(5)" in text


class TestCounter:
    def test_sequence(self):
        counter = TestCaseCounter()
        assert [counter.next_ident() for _ in range(3)] == ["TC0", "TC1", "TC2"]

    def test_custom_prefix(self):
        counter = TestCaseCounter(prefix="STC")
        assert counter.next_ident() == "STC0"

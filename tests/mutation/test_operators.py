"""Tests for the five interface mutation operators and their machinery."""

from __future__ import annotations

import ast

import pytest

from repro.core.errors import MutationError
from repro.mutation.operators import (
    ALL_OPERATORS,
    IndVarBitNeg,
    IndVarRepExt,
    IndVarRepGlob,
    IndVarRepLoc,
    IndVarRepReq,
    MethodContext,
    REQUIRED_CONSTANTS,
)
from repro.mutation.mutant import define_mutant_function
from repro.mutation.operators.base import infer_attribute_universe, render_expr


class Machine:
    """Small subject with known L/G/E structure."""

    def __init__(self):
        self.fuel = 10
        self.speed = 0
        self.odometer = 0

    def drive(self, distance):
        # L = {steps, used}; parameters (distance) are interface variables.
        steps = 0
        used = distance // 2
        while steps < distance:
            steps = steps + 1
            self.odometer = self.odometer + 1
        self.fuel = self.fuel - used
        return steps

    def idle(self):
        burn = 1
        self.fuel = self.fuel - burn
        return burn


def context_for(method="drive"):
    return MethodContext(Machine, method)


class TestMethodContext:
    def test_locals_exclude_parameters(self):
        context = context_for()
        assert set(context.L) == {"steps", "used"}
        assert "distance" not in context.L

    def test_globals_are_used_attributes(self):
        context = context_for()
        assert set(context.G) == {"fuel", "odometer"}

    def test_externals_are_unused_attributes(self):
        context = context_for()
        assert set(context.E) == {"speed"}

    def test_use_sites_in_load_context_only(self):
        context = context_for()
        variables = [site.variable for site in context.use_sites]
        # 'steps' is read in the while test, the assignment RHS and the
        # return; 'used' is read once in the fuel update.
        assert variables.count("used") == 1
        assert variables.count("steps") >= 3

    def test_missing_method_rejected(self):
        with pytest.raises(MutationError):
            MethodContext(Machine, "absent")

    def test_inherited_method_rejected(self):
        class Sub(Machine):
            pass

        with pytest.raises(MutationError, match="defining class"):
            MethodContext(Sub, "drive")

    def test_attribute_universe(self):
        assert infer_attribute_universe(Machine) == {"fuel", "speed", "odometer"}

    def test_splice_replaces_use_then_restores_tree(self):
        context = context_for()
        site = context.use_sites[0]
        parsed = ast.dump(context.tree)
        with context.splice(site, ast.Constant(value=42)) as module:
            assert module is context.tree
            assert "42" in ast.unparse(module)
        assert ast.dump(context.tree) == parsed
        # Original source untouched.
        assert "42" not in context.source

    def test_compile_mutant_returns_function(self):
        context = context_for("idle")
        site = context.use_sites[0]
        parsed = ast.dump(context.tree)
        code = context.compile_mutant(site, ast.Constant(value=5))
        assert ast.dump(context.tree) == parsed  # the splice is undone
        function = define_mutant_function(code, Machine)
        # The module code that defines it holds the function's own code.
        assert function.__code__ in code.co_consts
        machine = Machine()
        function(machine)  # the mutated body executes
        assert machine.fuel == 5  # burn use replaced by 5


class TestOperatorPoints:
    def test_bitneg_one_per_use(self):
        context = context_for()
        points = IndVarBitNeg().points(context)
        assert len(points) == len(context.use_sites)
        assert all("~" in render_expr(point.replacement) for point in points)

    def test_repglob_uses_times_globals(self):
        context = context_for()
        points = IndVarRepGlob().points(context)
        assert len(points) == len(context.use_sites) * len(context.G)
        rendered = {render_expr(point.replacement) for point in points}
        assert rendered == {"self.fuel", "self.odometer"}

    def test_reploc_skips_self_replacement(self):
        context = context_for()
        points = IndVarRepLoc().points(context)
        for point in points:
            assert render_expr(point.replacement) != point.site.variable

    def test_repext_uses_times_externals(self):
        context = context_for()
        points = IndVarRepExt().points(context)
        assert len(points) == len(context.use_sites) * len(context.E)
        assert {render_expr(p.replacement) for p in points} == {"self.speed"}

    def test_repreq_uses_times_constants(self):
        context = context_for()
        points = IndVarRepReq().points(context)
        assert len(points) == len(context.use_sites) * len(REQUIRED_CONSTANTS)

    def test_repreq_custom_constants(self):
        context = context_for()
        points = IndVarRepReq(constants=(None,)).points(context)
        assert len(points) == len(context.use_sites)

    def test_required_constants_match_table1(self):
        # RC contains NULL, MAXINT, MININT "and so on".
        assert None in REQUIRED_CONSTANTS
        assert 2_147_483_647 in REQUIRED_CONSTANTS
        assert -2_147_483_648 in REQUIRED_CONSTANTS

    def test_battery_names_match_table1(self):
        assert [operator.name for operator in ALL_OPERATORS] == [
            "IndVarBitNeg",
            "IndVarRepGlob",
            "IndVarRepLoc",
            "IndVarRepExt",
            "IndVarRepReq",
        ]

    def test_descriptions_are_informative(self):
        context = context_for()
        for operator in ALL_OPERATORS:
            for point in operator.points(context)[:3]:
                assert point.site.variable in point.description

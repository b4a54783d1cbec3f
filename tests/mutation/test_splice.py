"""The in-place splice and the template render against the per-mutant
re-parse and unparse they replaced.

``MethodContext.splice`` puts each replacement into the method's one parsed
tree and takes it out again, and ``MethodContext.render`` writes the
mutant's source from one template of the method.  Generation used to
re-parse the method for every mutant, run a ``NodeTransformer`` over the
fresh module, fix the locations of the whole module and ``ast.unparse``
it; that path is kept here, test-only, as the reference.  On every battery
the experiments and the scenario families generate, both paths must give
the same mutant records, the same ``GenerationReport`` and code objects
equal field by field.
"""

from __future__ import annotations

import ast
import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.core.errors import MutationError
from repro.experiments.config import TABLE2_METHODS, TABLE3_METHODS
from repro.mutation.generate import MutantGenerator, generate_mutants
from repro.mutation.mutant import compile_mutant_function
from repro.mutation.operators import (
    ALL_OPERATORS, REQUIRED_CONSTANTS, MethodContext, UseSite,
)
from repro.mutation.operators import base
from repro.mutation.operators.base import (
    attribute_expr,
    bitneg_expr,
    constant_expr,
    infer_attribute_universe,
    name_expr,
)
from repro.scenarios.families import FAMILY_NAMES
from repro.scenarios.genspec import GeneratorSpec, synthesize
from repro.scenarios.materialize import materialize
from repro.scenarios.registry import default_methods

from .context_reference import assert_same_code
from .test_operators import Machine


# ---------------------------------------------------------------------------
# The reference: one fresh parse and one tree rewrite per mutant
# ---------------------------------------------------------------------------


class _UseReplacer(ast.NodeTransformer):
    """Replaces the N-th load use of one local variable with an expression."""

    def __init__(self, site, replacement):
        self._site = site
        self._replacement = replacement
        self._seen = 0
        self.replaced = False

    def visit_Name(self, node):  # noqa: N802 — ast API
        if (isinstance(node.ctx, ast.Load)
                and node.id == self._site.variable
                and not self.replaced):
            if self._seen == self._site.occurrence:
                self.replaced = True
                return ast.copy_location(self._replacement, node)
            self._seen += 1
        return node


@contextmanager
def reparse_splice(context, site, replacement):
    """A fresh module with the use replaced: the retired per-mutant path."""
    module = ast.parse(context.source)
    transformer = _UseReplacer(site, replacement)
    mutated = transformer.visit(module)
    if not transformer.replaced:
        raise MutationError(f"use site {site.describe()} not found")
    ast.fix_missing_locations(mutated)
    yield mutated


def unparse_render(context, site, replacement):
    """The mutant's source as ``ast.unparse`` of the re-parsed splice."""
    with reparse_splice(context, site, replacement) as module:
        return ast.unparse(module)


def assert_same_generation(generate, monkeypatch):
    """``generate()`` spliced in place and rendered from templates agrees
    with fresh parses and unparses; each template is the unparse."""
    built = []
    build = MutantGenerator._context

    def spy(generator, method_name):
        built.append(build(generator, method_name))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(MutantGenerator, "_context", spy)
        mutants, report = generate()
    for context in built:
        assert context.unparsed == ast.unparse(context.tree)
    with monkeypatch.context() as patch:
        patch.setattr(MethodContext, "splice", reparse_splice)
        patch.setattr(MethodContext, "render", unparse_render)
        reference_mutants, reference_report = generate()
    assert mutants, "the battery should not be empty"
    assert [m.record for m in mutants] == [m.record for m in reference_mutants]
    assert report == reference_report
    # dict equality ignores insertion order; compare that too.
    assert (list(report.per_method_operator.items())
            == list(reference_report.per_method_operator.items()))
    for mutant, reference in zip(mutants, reference_mutants):
        assert_same_code(mutant.function.__code__,
                         reference.function.__code__, mutant.ident)


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------


TABLE1_RUNS = [
    pytest.param(operator, target, methods, typed,
                 id=f"{operator.name}-{target.__name__}-"
                    f"{'typed' if typed else 'untyped'}")
    for operator in ALL_OPERATORS
    for target, methods in ((CSortableObList, TABLE2_METHODS),
                            (CObList, TABLE3_METHODS))
    for typed in (False, True)
]


class TestSpliceMatchesReparse:
    @pytest.mark.parametrize("operator, target, methods, typed", TABLE1_RUNS)
    def test_table1_run(self, operator, target, methods, typed, monkeypatch):
        model = OBLIST_TYPE_MODEL if typed else None
        assert_same_generation(
            lambda: MutantGenerator(target, operators=(operator,),
                                    type_model=model).generate(methods),
            monkeypatch,
        )

    def test_table2_battery(self, monkeypatch):
        assert_same_generation(
            lambda: generate_mutants(CSortableObList, TABLE2_METHODS,
                                     type_model=OBLIST_TYPE_MODEL),
            monkeypatch,
        )

    def test_table3_battery(self, monkeypatch):
        assert_same_generation(
            lambda: generate_mutants(CObList, TABLE3_METHODS,
                                     ident_prefix="B",
                                     type_model=OBLIST_TYPE_MODEL),
            monkeypatch,
        )

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_scenario_family(self, family, tmp_path, monkeypatch):
        cls = materialize(synthesize(GeneratorSpec(family, 1)), tmp_path)
        methods = default_methods(cls.__tspec__)
        assert_same_generation(lambda: generate_mutants(cls, methods),
                               monkeypatch)


# ---------------------------------------------------------------------------
# What a pool worker rebuilds
# ---------------------------------------------------------------------------


#: What recompiling a function from its text rather than from the spliced
#: tree may change: the file name and the line data.
LINE_DATA = frozenset({"co_filename", "co_firstlineno", "co_linetable",
                       "co_lines", "co_positions"})


class TestRebuiltFromSource:
    """``compile_mutant_function`` compiles a mutant anew from its
    ``mutated_source``.  For every typed Table 2 and Table 3 mutant that
    gives the generated code, line data aside.  Untyped batteries do not
    round-trip: unparse writes ``-1 .next``, which parses as
    ``-(1 .next)``, so the pool ships each mutant's compiled code instead
    (DESIGN.md §5 item 17)."""

    @pytest.mark.parametrize("target, methods, prefix, count", [
        (CSortableObList, TABLE2_METHODS, "M", 709),
        (CObList, TABLE3_METHODS, "B", 176),
    ], ids=["table2", "table3"])
    def test_typed_mutant_rebuilds_to_its_code(self, target, methods,
                                               prefix, count):
        mutants, _ = generate_mutants(target, methods, ident_prefix=prefix,
                                      type_model=OBLIST_TYPE_MODEL)
        assert len(mutants) == count
        for mutant in mutants:
            rebuilt, _ = compile_mutant_function(mutant.record, target)
            assert_same_code(rebuilt.__code__,
                             mutant.function.__code__, mutant.ident,
                             skip=LINE_DATA)


# ---------------------------------------------------------------------------
# The renderer's edge cases
# ---------------------------------------------------------------------------


class Shapes:
    """Uses where unparse writes text around what fills the slot."""

    def __init__(self):
        self.head = None
        self.count = 0

    def power(self):
        x = self.count
        return x ** 2 + 2 ** x

    def positions(self, call):
        node = self.head
        return (node.next, node[0], node(), call(node), -node, not node)

    def formatted(self):
        value = self.count
        return f"{value}" + f"{value.real!r:>{value}}"

    def marked(self):
        # The template's placeholder marker, in string constants.
        text = "\u2400"
        return text + "\u2400\u24000\u2400"


SHAPES = ("power", "positions", "formatted", "marked")


def rendered(method, occurrence, build):
    """The last line of one render, checked against the spliced unparse."""
    context = MethodContext(Shapes, method)
    site = [site for site in context.use_sites
            if site.occurrence == occurrence][0]
    replacement = build(site.variable)
    text = context.render(site, replacement)
    with context.splice(site, replacement) as module:
        assert text == ast.unparse(module)
    return text.splitlines()[-1].strip()


def minus_one(variable):
    return constant_expr(-1)


class TestRender:
    @pytest.mark.parametrize("method", SHAPES)
    def test_every_operator_shape_renders_as_unparse(self, method):
        context = MethodContext(Shapes, method)
        assert context.unparsed == ast.unparse(context.tree)
        for site in context.use_sites:
            for replacement in (
                    bitneg_expr(site.variable), attribute_expr("count"),
                    name_expr("other"),
                    *map(constant_expr, REQUIRED_CONSTANTS)):
                with context.splice(site, replacement) as module:
                    expected = ast.unparse(module)
                assert context.render(site, replacement) == expected

    def test_int_before_an_attribute_dot(self):
        # unparse writes `-1 .next`, which parses as `-(1 .next)`;
        # mutated sources keep that text.
        assert rendered("positions", 0, minus_one).startswith(
            "return (-1 .next, ")
        assert rendered("positions", 0, lambda _: constant_expr(0)
                        ).startswith("return (0 .next, ")
        assert rendered("positions", 0, lambda _: constant_expr(None)
                        ).startswith("return (None.next, ")
        assert rendered("formatted", 1, minus_one) == (
            "return f'{value}' + f'{-1 .real!r:>{value}}'")

    def test_negation_wrapped_where_unparse_wraps_it(self):
        assert rendered("power", 0, bitneg_expr) == "return (~x) ** 2 + 2 ** x"
        assert rendered("power", 1, bitneg_expr) == "return x ** 2 + 2 ** (~x)"
        line = "return (node.next, node[0], node(), call(node), -node, not node)"
        for occurrence, old, new in (
                (0, "node.next", "(~node).next"),
                (1, "node[0]", "(~node)[0]"),
                (2, "node()", "(~node)()"),
                (3, "call(node)", "call(~node)"),
                (4, "-node", "-~node"),
                (5, "not node", "not ~node")):
            assert rendered("positions", occurrence, bitneg_expr) == (
                line.replace(old, new, 1))

    def test_name_inside_an_fstring(self):
        assert rendered("formatted", 0, bitneg_expr) == (
            "return f'{~value}' + f'{value.real!r:>{value}}'")
        assert rendered("formatted", 1, bitneg_expr) == (
            "return f'{value}' + f'{(~value).real!r:>{value}}'")
        assert rendered("formatted", 2, lambda _: attribute_expr("count")
                        ) == ("return f'{value}' + "
                              "f'{value.real!r:>{self.count}}'")

    def test_marker_in_a_string_constant(self):
        assert rendered("marked", 0, lambda _: attribute_expr("count")) == (
            "return self.count + '\u2400\u24000\u2400'")

    @pytest.mark.parametrize("replacement", [
        ast.BinOp(left=name_expr("x"), op=ast.Add(), right=constant_expr(1)),
        ast.UnaryOp(op=ast.USub(), operand=name_expr("x")),
        ast.UnaryOp(op=ast.Invert(), operand=constant_expr(1)),
        ast.Attribute(value=attribute_expr("head"), attr="next",
                      ctx=ast.Load()),
        constant_expr("text"),
        constant_expr(1.5),
    ], ids=["binop", "minus", "invert-constant", "nested-attribute", "str",
            "float"])
    def test_other_replacements_rejected(self, replacement):
        context = MethodContext(Shapes, "power")
        with pytest.raises(TypeError, match="cannot render"):
            context.render(context.use_sites[0], replacement)

    def test_unknown_site_rejected(self):
        context = MethodContext(Shapes, "power")
        site = context.use_sites[0]
        beyond = UseSite(site.variable, occurrence=2, line=site.line,
                         column=site.column)
        with pytest.raises(MutationError, match="not found"):
            context.render(beyond, constant_expr(0))


# ---------------------------------------------------------------------------
# The shared tree is restored
# ---------------------------------------------------------------------------


def dump(context):
    return ast.dump(context.tree, include_attributes=True)


class TestTreeRestored:
    def test_generate_leaves_each_tree_as_parsed(self, monkeypatch):
        built = []
        build = MutantGenerator._context

        def spy(generator, method_name):
            context = build(generator, method_name)
            built.append((context, dump(context)))
            return context

        monkeypatch.setattr(MutantGenerator, "_context", spy)
        mutants, _ = MutantGenerator(Machine).generate(["drive", "idle"])
        assert mutants
        # One context per method, each back to its parsed state.
        assert [context.method_name for context, _ in built] == [
            "drive", "idle"]
        for context, parsed in built:
            assert dump(context) == parsed

    @pytest.mark.parametrize("method", SHAPES)
    def test_template_leaves_the_tree_as_parsed(self, method):
        context = MethodContext(Shapes, method)
        parsed = dump(context)
        assert context.unparsed
        assert dump(context) == parsed

    def test_body_that_raises_still_restores(self):
        context = MethodContext(Machine, "drive")
        parsed = dump(context)
        with pytest.raises(RuntimeError):
            with context.splice(context.use_sites[-1],
                                ast.Constant(value=0)):
                raise RuntimeError("compile blew up")
        assert dump(context) == parsed

    def test_occurrences_count_in_preorder(self):
        # `steps` is read in the while test, the increment and the return;
        # occurrence 0 is the while test, first in pre-order.
        context = MethodContext(Machine, "drive")
        first = next(site for site in context.use_sites
                     if site.variable == "steps" and site.occurrence == 0)
        with context.splice(first, ast.Constant(value=7)) as module:
            assert "while 7 < distance" in ast.unparse(module)

    def test_unknown_site_rejected(self):
        context = MethodContext(Machine, "idle")
        site = context.use_sites[0]
        beyond = UseSite(site.variable, occurrence=len(context.use_sites),
                         line=site.line, column=site.column)
        with pytest.raises(MutationError, match="not found"):
            with context.splice(beyond, ast.Constant(value=0)):
                pass


# ---------------------------------------------------------------------------
# The attribute-universe memo
# ---------------------------------------------------------------------------


class TestUniverseMemo:
    def test_frozen_and_equal_to_uncached(self, monkeypatch):
        universe = infer_attribute_universe(CSortableObList)
        assert isinstance(universe, frozenset)
        assert infer_attribute_universe(CSortableObList) is universe
        monkeypatch.setattr(base, "_UNIVERSES", weakref.WeakKeyDictionary())
        uncached = infer_attribute_universe(CSortableObList)
        assert uncached is not universe
        assert uncached == universe

    def test_memo_does_not_keep_class_alive(self):
        dynamic = type("Dynamic", (Machine,), {})
        assert infer_attribute_universe(dynamic) == {
            "fuel", "speed", "odometer"}
        alive = weakref.ref(dynamic)
        del dynamic
        gc.collect()
        assert alive() is None

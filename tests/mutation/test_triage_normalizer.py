"""The single-pass static triage against the path it replaced.

Static triage parses, normalizes and locates each source once
(``repro.mutation.triage``).  ``triage_reference`` keeps the path it
replaced: a stock ``NodeTransformer``, a whole-tree
``fix_missing_locations`` walk and one parse per check.  On every battery
the experiments generate and on one battery per scenario family, the two
must give field-identical ``StaticTriage`` values; on small sources that
reach each fold, the same tree, locations included, and the same digest.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.experiments.config import TABLE2_METHODS, TABLE3_METHODS
from repro.mutation import triage
from repro.mutation.generate import MutantGenerator, generate_mutants
from repro.mutation.operators import ALL_OPERATORS
from repro.mutation.triage import (
    normalize_method_source,
    normalized_bytecode_digest,
    normalized_source_text,
    triage_mutants,
)
from repro.scenarios.families import FAMILY_NAMES
from repro.scenarios.genspec import GeneratorSpec, synthesize
from repro.scenarios.materialize import materialize
from repro.scenarios.registry import default_methods

from . import triage_reference as reference
from .triage_reference import assert_same_triage


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


@pytest.fixture(scope="module")
def typed_batteries():
    return {
        "table2": (CSortableObList, generate_mutants(
            CSortableObList, TABLE2_METHODS,
            type_model=OBLIST_TYPE_MODEL)[0]),
        "table3": (CObList, generate_mutants(
            CObList, TABLE3_METHODS, ident_prefix="B",
            type_model=OBLIST_TYPE_MODEL)[0]),
    }


class TestTriageMatchesReference:
    @pytest.mark.parametrize("operator, target, methods, typed", TABLE1_RUNS)
    def test_table1_run(self, operator, target, methods, typed):
        model = OBLIST_TYPE_MODEL if typed else None
        mutants, _ = MutantGenerator(target, operators=(operator,),
                                     type_model=model).generate(methods)
        assert mutants
        assert_same_triage(target, mutants, type_model=model)

    @pytest.mark.parametrize("table", ("table2", "table3"))
    @pytest.mark.parametrize("folds", (True, False),
                             ids=("type-model", "no-type-model"))
    def test_typed_battery(self, typed_batteries, table, folds):
        target, mutants = typed_batteries[table]
        result = assert_same_triage(
            target, mutants,
            type_model=OBLIST_TYPE_MODEL if folds else None,
        )
        assert result.typed_folds is folds
        if table == "table2":
            assert result.groups() == {"M0494": ("M0495",),
                                       "M0603": ("M0604",)}

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_scenario_family(self, family, tmp_path):
        cls = materialize(synthesize(GeneratorSpec(family, 1)), tmp_path)
        mutants, _ = generate_mutants(cls, default_methods(cls.__tspec__))
        assert mutants
        assert_same_triage(cls, mutants)


class TestOneParsePerSource:
    def test_one_parse_per_mutant_and_per_original(self, monkeypatch):
        methods = ("ShellSort", "FindMax")
        mutants, _ = generate_mutants(CSortableObList, methods,
                                      type_model=OBLIST_TYPE_MODEL)
        parsed = []
        parse = ast.parse

        def spy(source, *args, **kwargs):
            parsed.append(source)
            return parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", spy)
        triage_mutants(CSortableObList, mutants,
                       type_model=OBLIST_TYPE_MODEL)
        originals = [
            textwrap.dedent(inspect.getsource(getattr(CSortableObList, name)))
            for name in methods
        ]
        assert sorted(parsed) == sorted(
            [mutant.record.mutated_source for mutant in mutants] + originals
        )


# ---------------------------------------------------------------------------
# The traversal and the one node it creates
# ---------------------------------------------------------------------------


def assert_normalizes_as_reference(source, integral=frozenset()):
    """Same tree, every location included, same text and same digest."""
    tree = normalize_method_source(source, integral)
    assert (ast.dump(tree, include_attributes=True)
            == ast.dump(reference.normalize(source, integral),
                        include_attributes=True))
    assert (normalized_source_text(source, integral)
            == reference.source_text(source, integral))
    assert (normalized_bytecode_digest(source, integral)
            == reference.bytecode_digest(source, integral))
    return tree


SPAN = ("lineno", "col_offset", "end_lineno", "end_col_offset")

#: A body of ``pass`` statements under each owner that keeps one.
LONE_PASS = {
    "def": (ast.FunctionDef, "def f(self):\n    pass\n    pass\n"),
    "class": (ast.ClassDef,
              "def f(self):\n    class Inner:\n        pass\n\n"
              "        pass\n    return Inner\n"),
    "if": (ast.If,
           "def f(self, x):\n    if x:\n        pass\n        pass\n"
           "    else:\n        pass\n    return x\n"),
    "while": (ast.While,
              "def f(self, x):\n    while x.step():\n        pass\n"
              "    return x\n"),
    "for": (ast.For,
            "def f(self, x):\n    for item in x:\n        pass\n"
            "        pass\n    return x\n"),
}


#: Definitions whose body is only a docstring: (owner type, source, the
#: same with a one-line ``pass`` body).
DOCSTRING_ONLY = {
    "def": (ast.FunctionDef,
            'def f(self):\n    def g():\n        """doc"""\n    return g\n',
            "def f(self):\n    def g(): pass\n    return g\n"),
    "class": (ast.ClassDef,
              'def f(self):\n    class A:\n        """doc"""\n    return A\n',
              "def f(self):\n    class A: pass\n    return A\n"),
    "method": (ast.FunctionDef, 'def f(self):\n    """doc"""\n',
               "def f(self): pass\n"),
}


class DocstringBodies:
    """A method holding a class and a function that are only docstrings."""

    def __init__(self):
        self.count = 0

    def build(self):
        total = self.count

        class Holder:
            """holder"""

        def helper():
            """helper"""

        return total + 1 if Holder and helper else total


class TestTraversal:
    @pytest.mark.parametrize("owner", sorted(LONE_PASS))
    def test_lone_pass_sits_on_its_owner(self, owner):
        owner_type, source = LONE_PASS[owner]
        tree = assert_normalizes_as_reference(source)
        parents = [(node, child) for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)
                   if isinstance(child, ast.Pass)]
        assert len(parents) == 1
        node, kept = parents[0]
        assert type(node) is owner_type
        assert ([getattr(kept, name) for name in SPAN]
                == [getattr(node, name) for name in SPAN])

    def test_pass_line_reaches_the_digest(self):
        # The compiler drops the pass's NOP on the while's line and keeps
        # it on a line of its own, so a misplaced pass moves co_code.
        tree = normalize_method_source(LONE_PASS["while"][1])
        digest = triage._bytecode_digest(tree)
        kept = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.Pass))
        kept.lineno = kept.end_lineno = kept.lineno + 1
        assert triage._bytecode_digest(tree) != digest

    def test_pass_kept_only_where_the_body_would_empty(self):
        tree = assert_normalizes_as_reference(LONE_PASS["if"][1])
        branch = tree.body[0].body[0]
        assert branch.orelse == []
        assert len(branch.body) == 1

    @pytest.mark.parametrize("folded, plain", [
        ("return [y for y in x if not not y]",
         "return [y for y in x if y]"),
        ("return {y for y in x if y if not not not not y}",
         "return {y for y in x if y if y}"),
        ("return 1 if not not x else 2", "return 1 if x else 2"),
        ("assert not not x\n    return x", "assert x\n    return x"),
        ("while not not x.step():\n        x.go()\n    return x",
         "while x.step():\n        x.go()\n    return x"),
    ], ids=["listcomp", "setcomp", "ifexp", "assert", "while"])
    def test_not_not_in_test_positions(self, folded, plain):
        header = "def f(self, x):\n    "
        assert_normalizes_as_reference(header + folded)
        assert (normalized_source_text(header + folded)
                == normalized_source_text(header + plain))

    def test_nested_integral_folds(self):
        integral = frozenset({"x"})
        source = "def f(self, x):\n    return ~~x + 0\n"
        assert_normalizes_as_reference(source, integral)
        assert normalized_source_text(source, integral) == (
            "def f(self, x):\n    return x")
        # Not integral: nothing folds.
        assert_normalizes_as_reference(source)
        assert "~~x + 0" in normalized_source_text(source)

    def test_nested_docstrings(self):
        source = textwrap.dedent('''\
            def f(self):
                """outer"""
                def helper():
                    """inner"""
                    return 1
                class Holder:
                    """holder"""
                    value = 2
                return helper() + Holder.value
            ''')
        assert_normalizes_as_reference(source)
        text = normalized_source_text(source)
        assert '"""' not in text and "'" not in text

    @pytest.mark.parametrize("owner", sorted(DOCSTRING_ONLY))
    def test_docstring_only_body_keeps_a_pass(self, owner):
        owner_type, source, one_line = DOCSTRING_ONLY[owner]
        tree = normalize_method_source(source)
        kept = [(node, child) for node in ast.walk(tree)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.Pass)]
        assert len(kept) == 1
        node, lone = kept[0]
        assert type(node) is owner_type and node.body == [lone]
        assert ([getattr(lone, name) for name in SPAN]
                == [getattr(node, name) for name in SPAN])
        # As if the body had been a `pass` on its owner's line.
        assert (normalized_bytecode_digest(source)
                == normalized_bytecode_digest(one_line))

    def test_docstring_only_bodies_triage(self):
        mutants, _ = generate_mutants(DocstringBodies, ["build"])
        assert mutants
        result = triage_mutants(DocstringBodies, mutants)
        assert len(result.entries) == len(mutants)
        assert all(entry.digest for entry in result.entries)

    def test_async_def(self):
        source = textwrap.dedent('''\
            async def f(self, x):
                """doc"""
                if not not x:
                    pass
                pass
                return await x
            ''')
        tree = assert_normalizes_as_reference(source)
        function = tree.body[0]
        assert isinstance(function, ast.AsyncFunctionDef)
        assert [type(stmt) for stmt in function.body] == [ast.If, ast.Return]

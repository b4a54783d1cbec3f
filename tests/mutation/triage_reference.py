"""Static triage's normalization before it parsed each source once.

``repro.mutation.triage`` parses, normalizes and locates each source once:
check 2 compiles the tree check 1 unparsed, the original's integral locals
are read from that same parse, the normalizer rewrites in place and skips
leaves, and the one node it creates, a lone ``pass``, takes its owner's
span.  The path it replaced is kept here, test-only, as the reference: a
stock ``ast.NodeTransformer``, a whole-tree ``ast.fix_missing_locations``
walk, and one parse per check.  :func:`reference_triage` patches it over
the pass and :func:`assert_same_triage` requires every ``StaticTriage``
field to match; tier-1 runs it on the experiments' batteries and one per
scenario family, and ``benchmarks/bench_mutation_triage.py`` on every
builtin scenario battery.
"""

from __future__ import annotations

import ast
import textwrap
from typing import List, Optional, Sequence
from unittest import mock

from repro.core.errors import MutationError
from repro.mutation import triage
from repro.mutation.typemodel import TypeModel


class ReferenceNormalizer(ast.NodeTransformer):
    """The folds as a stock ``NodeTransformer``."""

    def __init__(self, integral_locals: frozenset):
        self._integral = integral_locals

    def visit_FunctionDef(self, node):  # noqa: N802
        self.generic_visit(node)
        node.body = self._clean_body(node.body)
        return node

    visit_AsyncFunctionDef = visit_FunctionDef  # noqa: N815

    def visit_ClassDef(self, node):  # noqa: N802
        self.generic_visit(node)
        node.body = self._clean_body(node.body)
        return node

    def visit_If(self, node):  # noqa: N802
        self.generic_visit(node)
        node.test = self._fold_test(node.test)
        node.body = self._strip_pass(node.body)
        node.orelse = self._strip_pass(node.orelse, allow_empty=True)
        return node

    visit_While = visit_If  # noqa: N815

    def visit_For(self, node):  # noqa: N802
        self.generic_visit(node)
        node.body = self._strip_pass(node.body)
        node.orelse = self._strip_pass(node.orelse, allow_empty=True)
        return node

    def visit_Assert(self, node):  # noqa: N802
        self.generic_visit(node)
        node.test = self._fold_test(node.test)
        return node

    visit_IfExp = visit_Assert  # noqa: N815

    def visit_comprehension(self, node):  # noqa: N802
        self.generic_visit(node)
        node.ifs = [self._fold_test(test) for test in node.ifs]
        return node

    def visit_BinOp(self, node):  # noqa: N802
        self.generic_visit(node)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if self._is_int_const(node.right, 0) and self._integral_expr(node.left):
                return node.left
            if (isinstance(node.op, ast.Add)
                    and self._is_int_const(node.left, 0)
                    and self._integral_expr(node.right)):
                return node.right
        if isinstance(node.op, ast.Mult):
            if self._is_int_const(node.right, 1) and self._integral_expr(node.left):
                return node.left
            if self._is_int_const(node.left, 1) and self._integral_expr(node.right):
                return node.right
        return node

    def visit_UnaryOp(self, node):  # noqa: N802
        self.generic_visit(node)
        operand = node.operand
        if isinstance(node.op, ast.UAdd) and self._integral_expr(operand):
            return operand
        if (isinstance(node.op, (ast.Invert, ast.USub))
                and isinstance(operand, ast.UnaryOp)
                and type(operand.op) is type(node.op)
                and self._integral_expr(operand.operand)):
            return operand.operand
        return node

    def _clean_body(self, body: List[ast.stmt]) -> List[ast.stmt]:
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        return self._strip_pass(body)

    @staticmethod
    def _strip_pass(body: List[ast.stmt],
                    allow_empty: bool = False) -> List[ast.stmt]:
        kept = [stmt for stmt in body if not isinstance(stmt, ast.Pass)]
        if kept or allow_empty:
            return kept
        return [ast.Pass()] if body else body

    @staticmethod
    def _fold_test(test: ast.expr) -> ast.expr:
        while (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
               and isinstance(test.operand, ast.UnaryOp)
               and isinstance(test.operand.op, ast.Not)):
            test = test.operand.operand
        return test

    def _integral_expr(self, expression: ast.expr) -> bool:
        if isinstance(expression, ast.Name):
            return expression.id in self._integral
        if isinstance(expression, ast.Constant):
            return (isinstance(expression.value, int)
                    and not isinstance(expression.value, bool))
        return False

    @staticmethod
    def _is_int_const(expression: ast.expr, value: int) -> bool:
        return (isinstance(expression, ast.Constant)
                and isinstance(expression.value, int)
                and not isinstance(expression.value, bool)
                and expression.value == value)


def normalize(source: str,
              integral_locals: frozenset = frozenset()) -> ast.Module:
    """A fresh parse, normalized and located whole."""
    try:
        module = ast.parse(textwrap.dedent(source))
    except SyntaxError as error:
        raise MutationError(f"cannot parse method source: {error}") from error
    normalized = ReferenceNormalizer(integral_locals).visit(module)
    return ast.fix_missing_locations(normalized)


def source_text(source: str, integral_locals: frozenset = frozenset()) -> str:
    return ast.unparse(normalize(source, integral_locals)).strip()


def bytecode_digest(source: str,
                    integral_locals: frozenset = frozenset()) -> str:
    """The digest of a tree of its own parse (hashed as the pass hashes)."""
    return triage._bytecode_digest(normalize(source, integral_locals))


def integral_locals(source: str,
                    type_model: Optional[TypeModel]) -> frozenset:
    """The original's integral locals, from a parse of their own."""
    if type_model is None:
        return frozenset()
    try:
        module = ast.parse(source)
    except SyntaxError:
        return frozenset()
    return triage._integral_locals(module, type_model)


def original_forms(source: str, type_model: Optional[TypeModel]):
    integral = integral_locals(source, type_model)
    return (source_text(source, integral), bytecode_digest(source, integral),
            integral)


def checks(source: str, integral: frozenset, original_text: str,
           original_digest: str):
    if source_text(source, integral) == original_text:
        return triage.TriageStatus.AST_EQUIVALENT, original_digest
    digest = bytecode_digest(source, integral)
    status = (triage.TriageStatus.BYTECODE_EQUIVALENT
              if digest == original_digest
              else triage.TriageStatus.UNDECIDED)
    return status, digest


def reference_triage(original_class: type, mutants: Sequence,
                     type_model: Optional[TypeModel] = None
                     ) -> triage.StaticTriage:
    """``triage_mutants`` with the reference patched over its two checks
    and the original's forms."""
    with mock.patch.object(triage, "_original_forms", original_forms), \
            mock.patch.object(triage, "_checks", checks):
        return triage.triage_mutants(original_class, mutants,
                                     type_model=type_model)


def assert_same_triage(original_class: type, mutants: Sequence,
                       type_model: Optional[TypeModel] = None
                       ) -> triage.StaticTriage:
    """The pass and the reference triage ``mutants`` field for field;
    returns the pass's triage.  A failure names the mutant and the
    fields."""
    fast = triage.triage_mutants(original_class, mutants,
                                 type_model=type_model)
    reference = reference_triage(original_class, mutants, type_model)
    assert (fast.class_name, fast.typed_folds) == (
        reference.class_name, reference.typed_folds)
    assert len(fast.entries) == len(reference.entries)
    for mine, theirs in zip(fast.entries, reference.entries):
        assert mine == theirs, f"{theirs.ident}: {mine} != {theirs}"
    assert fast == reference
    return fast

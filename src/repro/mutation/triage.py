"""Static equivalent-mutant triage: proving equivalence before execution.

"The determination of equivalent mutants is a non-decidable problem, so
they were obtained manually, by analyzing the mutants that were alive
after the tests" (sec. 4).  The dynamic deep probe
(:mod:`repro.mutation.equivalence`) approximates that manual pass by
re-executing every survivor under stronger suites — expensive, and it can
only ever say *likely* equivalent.  This module adds the cheap static half
of the story: three escalating checks, each of which **proves** its
verdict, run before a single mutant is dispatched.

1. **Normalized-AST identity.**  The original and the mutated method are
   parsed, stripped of docstrings and dead ``pass`` padding, run through
   a small set of provably value-preserving folds, and canonically
   unparsed.  Identical text means the mutant compiles to the same program
   as the original — equivalent by construction.

2. **Bytecode identity.**  The same normalized trees are compiled — each
   source is parsed and normalized once (CPython's
   compiler constant-folds genuinely constant expressions, so ``1 + 1``
   and ``2`` meet here even though their ASTs differ) and the resulting
   code objects are compared facet by facet — ``co_code``, ``co_consts``
   (recursively, with constant *types* distinguished so ``1`` never equals
   ``1.0`` or ``True``), ``co_names``, ``co_varnames``, free/cell vars and
   flags; filenames and line tables are ignored.  Identical facets mean
   the interpreter executes the very same instructions — again equivalent
   by construction, catching same-value replacements the AST check
   misses.

3. **Cross-mutant redundancy.**  Mutants of one method whose normalized
   bytecode is pairwise identical behave identically under *every* suite
   (:mod:`repro.mutation.generate` only drops *textually* identical
   sources).  The first member of each class, in submission order, is the
   **representative**; only it is executed, and its verdict is propagated
   to the rest of the group.

**Soundness of the folds.**  Every fold claims semantic identity, so each
is either universally valid in Python or gated on the producer-declared
type model (:mod:`repro.mutation.typemodel` — the same C++-typing fiction
the generation gate uses):

* docstring removal — docstrings are inert data (they only change
  ``__doc__``, which no oracle observes);
* dead ``pass`` removal — ``pass`` is a no-op; it is only removed from
  bodies that keep at least one other statement;
* ``not not E`` → ``E`` in *test position only* (``if``/``while``/
  ``assert``/conditional-expression tests, comprehension guards): both
  sides call ``__bool__`` once and branch identically, for every Python
  value;
* ``E + 0``, ``0 + E``, ``E - 0``, ``E * 1``, ``1 * E`` → ``E`` and
  ``~~E``, ``--E``, ``+E`` → ``E`` **only** when ``E`` is a local variable
  whose inferred tag is integral under the supplied type model (Python
  ints are closed under these identities; without a model the folds are
  off, because ``x + 0`` is *not* an identity for, say, ``True`` or a
  float ``-0.0``).

The soundness property test (``tests/mutation/test_triage.py``) checks the
whole construction empirically: no statically-equivalent mutant is ever
killed by any generated suite, across seeds, operators and every shipped
component.

A run stored in the outcome store (:mod:`repro.mutation.cache`) keeps
its :class:`StaticTriage`, and the run key names the triage setting
(on or off, and the type model): a warm run replays the triage with the
verdicts and never re-runs this pass.

On the paper subjects the pass proves no mutant equivalent: Table 2's
typed battery holds one redundancy class per ``ShellSort`` ``// 2``
spelling, and Table 3's none.  Its verdicts reach users only through the
engines (:attr:`~repro.mutation.analysis.MutationRun.triage`) and the
score table's count of proven equivalents.
"""

from __future__ import annotations

import ast
import enum
import textwrap
import types
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import MutationError
from ..core.fingerprint import sha256_hex
from ..core.parsing import parse_module
from ..obs import Telemetry, coalesce
from .operators.base import method_context
from .typemodel import INTEGRAL_TAGS, TypeModel, infer_local_types

if TYPE_CHECKING:  # imported lazily to keep triage <- analysis acyclic
    from .mutant import CompiledMutant


class TriageStatus(enum.Enum):
    """What the static pass proved about one mutant."""

    #: Normalized AST identical to the original — equivalent, never run.
    AST_EQUIVALENT = "ast_equivalent"
    #: Normalized bytecode identical to the original — equivalent, never run.
    BYTECODE_EQUIVALENT = "bytecode_equivalent"
    #: Normalized bytecode identical to an earlier mutant (the group
    #: representative) — only the representative runs; its verdict is
    #: propagated.
    REDUNDANT = "redundant"
    #: Nothing proven; the mutant is executed normally.
    UNDECIDED = "undecided"


#: The two statuses that prove equivalence *to the original* (redundant
#: mutants are equivalent to each other, not to the original).
EQUIVALENT_STATUSES = (
    TriageStatus.AST_EQUIVALENT,
    TriageStatus.BYTECODE_EQUIVALENT,
)


@dataclass(frozen=True)
class MutantTriage:
    """The static verdict for one mutant."""

    ident: str
    method_name: str
    status: TriageStatus
    #: Normalized-bytecode digest of the mutated method (the redundancy
    #: grouping key).  Empty when the mutated source does not parse: an
    #: untyped battery can hold such text (``-1 .next = after``), and
    #: that mutant stays ``UNDECIDED`` and out of every group.
    digest: str = ""
    #: For ``REDUNDANT``: the ident of the executed group representative.
    representative: str = ""


@dataclass(frozen=True)
class StaticTriage:
    """The complete static triage of one mutant battery.

    Pure value object (picklable, comparable): the serial and parallel
    engines attach it to :class:`~repro.mutation.analysis.MutationRun`,
    and both consult it the same way, so the two engines skip exactly the
    same mutants.
    """

    class_name: str
    entries: Tuple[MutantTriage, ...] = ()
    #: Whether the integral folds were active (a type model was supplied);
    #: recorded so reports can say which normalization produced verdicts.
    typed_folds: bool = False
    _by_ident: Mapping[str, MutantTriage] = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_ident", {entry.ident: entry for entry in self.entries}
        )

    def __getstate__(self):
        # The ident index is derived; rebuild it on unpickle.
        return (self.class_name, self.entries, self.typed_folds)

    def __setstate__(self, state) -> None:
        class_name, entries, typed_folds = state
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "typed_folds", typed_folds)
        self.__post_init__()

    # -- lookups --------------------------------------------------------

    def status_of(self, ident: str) -> TriageStatus:
        entry = self._by_ident.get(ident)
        return entry.status if entry is not None else TriageStatus.UNDECIDED

    def representative_of(self, ident: str) -> str:
        """The executed stand-in for a redundant mutant ('' otherwise)."""
        entry = self._by_ident.get(ident)
        return entry.representative if entry is not None else ""

    def is_equivalent(self, ident: str) -> bool:
        """Proven equivalent to the original (never dispatched, survives)."""
        return self.status_of(ident) in EQUIVALENT_STATUSES

    def is_skipped(self, ident: str) -> bool:
        """Never dispatched: proven equivalent or redundant."""
        return self.status_of(ident) is not TriageStatus.UNDECIDED

    # -- aggregates -----------------------------------------------------

    @property
    def ast_equivalent(self) -> Tuple[str, ...]:
        return self._with_status(TriageStatus.AST_EQUIVALENT)

    @property
    def bytecode_equivalent(self) -> Tuple[str, ...]:
        return self._with_status(TriageStatus.BYTECODE_EQUIVALENT)

    @property
    def equivalent(self) -> Tuple[str, ...]:
        """All idents proven equivalent to the original."""
        return tuple(
            entry.ident for entry in self.entries
            if entry.status in EQUIVALENT_STATUSES
        )

    @property
    def redundant(self) -> Tuple[str, ...]:
        return self._with_status(TriageStatus.REDUNDANT)

    @property
    def skipped(self) -> int:
        """Executions avoided: equivalent + redundant mutants."""
        return sum(
            1 for entry in self.entries
            if entry.status is not TriageStatus.UNDECIDED
        )

    def groups(self) -> Dict[str, Tuple[str, ...]]:
        """Representative ident → the redundant idents it stands in for."""
        grouped: Dict[str, List[str]] = {}
        for entry in self.entries:
            if entry.status is TriageStatus.REDUNDANT:
                grouped.setdefault(entry.representative, []).append(entry.ident)
        return {rep: tuple(members) for rep, members in grouped.items()}

    def _with_status(self, status: TriageStatus) -> Tuple[str, ...]:
        return tuple(
            entry.ident for entry in self.entries if entry.status is status
        )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


#: Nodes no fold rewrites or looks inside: names, constants, expression
#: contexts and operators.  The normalizer returns them untouched.
_LEAVES = frozenset({
    ast.Name, ast.Constant,
    *ast.expr_context.__subclasses__(),
    *ast.operator.__subclasses__(),
    *ast.unaryop.__subclasses__(),
    *ast.cmpop.__subclasses__(),
    *ast.boolop.__subclasses__(),
})


class _Normalizer:
    """Applies the provably value-preserving folds documented above.

    A bottom-up rewrite, like ``ast.NodeTransformer``, but in place: it
    dispatches on ``type(node)`` through :data:`_FOLDS` (built once),
    stores each child it rewrites back into its field or list slot, and
    skips the :data:`_LEAVES`.
    """

    def __init__(self, integral_locals: frozenset):
        self._integral = integral_locals

    def visit(self, node: ast.AST) -> ast.AST:
        kind = type(node)
        if kind in _LEAVES:
            return node
        for name in kind._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if isinstance(item, ast.AST):
                        value[index] = self.visit(item)
            elif isinstance(value, ast.AST):
                folded = self.visit(value)
                if folded is not value:
                    setattr(node, name, folded)
        fold = _FOLDS.get(kind)
        return node if fold is None else fold(self, node)

    # -- docstrings and dead pass ---------------------------------------

    def _clean_definition(self, node):
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        node.body = self._strip_pass(body, node)
        return node

    def _clean_conditional(self, node):
        node.test = self._fold_test(node.test)
        return self._clean_bodies(node)

    def _clean_bodies(self, node):
        node.body = self._strip_pass(node.body, node)
        node.orelse = self._strip_pass(node.orelse, node, allow_empty=True)
        return node

    def _clean_test(self, node):
        node.test = self._fold_test(node.test)
        return node

    def _clean_guards(self, node: ast.comprehension):
        node.ifs = [self._fold_test(test) for test in node.ifs]
        return node

    # -- integral identity folds ----------------------------------------

    def _fold_binop(self, node: ast.BinOp):
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

    def _fold_unaryop(self, node: ast.UnaryOp):
        operand = node.operand
        if isinstance(node.op, ast.UAdd) and self._integral_expr(operand):
            # +x is the identity on ints.
            return operand
        if (isinstance(node.op, (ast.Invert, ast.USub))
                and isinstance(operand, ast.UnaryOp)
                and type(operand.op) is type(node.op)
                and self._integral_expr(operand.operand)):
            # ~~x and --x are identities on (unbounded) Python ints.
            return operand.operand
        return node

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _strip_pass(body: List[ast.stmt], owner: ast.stmt,
                    allow_empty: bool = False) -> List[ast.stmt]:
        """Remove ``pass`` padding, keeping one when the body would empty
        (a definition whose body was only its docstring included).

        That ``pass`` is the one node normalization creates.  It takes its
        owner's span, which is what ``ast.fix_missing_locations`` gives
        it: the compiler keeps or drops a ``NOP`` by its line, and check 2
        hashes ``co_code``.
        """
        kept = [stmt for stmt in body if not isinstance(stmt, ast.Pass)]
        if kept or allow_empty:
            return kept
        return [ast.copy_location(ast.Pass(), owner)]

    def _fold_test(self, test: ast.expr) -> ast.expr:
        # not not E in a test position branches identically to E.
        while (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
               and isinstance(test.operand, ast.UnaryOp)
               and isinstance(test.operand.op, ast.Not)):
            test = test.operand.operand
        return test

    def _integral_expr(self, expression: ast.expr) -> bool:
        """Is this expression provably integral under the type model?"""
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


#: The node types a fold applies to, and the fold.
_FOLDS = {
    ast.FunctionDef: _Normalizer._clean_definition,
    ast.AsyncFunctionDef: _Normalizer._clean_definition,
    ast.ClassDef: _Normalizer._clean_definition,
    ast.If: _Normalizer._clean_conditional,
    ast.While: _Normalizer._clean_conditional,
    ast.For: _Normalizer._clean_bodies,
    ast.Assert: _Normalizer._clean_test,
    ast.IfExp: _Normalizer._clean_test,
    ast.comprehension: _Normalizer._clean_guards,
    ast.BinOp: _Normalizer._fold_binop,
    ast.UnaryOp: _Normalizer._fold_unaryop,
}


def _integral_locals(module: ast.Module,
                     type_model: Optional[TypeModel]) -> frozenset:
    """Locals of the *original* method whose inferred tag is integral.

    The folds run over both the original and the mutated source; inferring
    tags once, from the original, keeps the two sides normalized under the
    same assumptions (the operators replace uses, not definitions, so the
    original's assignments still govern each local's type).  ``module`` is
    the original's parse, read before it is normalized.
    """
    if type_model is None or not module.body:
        return frozenset()
    function = module.body[0]
    if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return frozenset()
    tags = infer_local_types(function, type_model)
    integral = {
        name for name, tag in tags.items() if tag in INTEGRAL_TAGS
    }
    # Typed parameters are integral too (they are never reassigned to a
    # different tag under the C++ fiction the model encodes).
    for argument in function.args.args:
        if type_model.parameter_types.get(argument.arg) in INTEGRAL_TAGS:
            integral.add(argument.arg)
    return frozenset(integral)


def _parse(source: str) -> ast.Module:
    try:
        return parse_module(textwrap.dedent(source))
    except SyntaxError as error:
        raise MutationError(f"cannot parse method source: {error}") from error


def normalize_method_source(source: str,
                            integral_locals: frozenset = frozenset(),
                            ) -> ast.Module:
    """Parse and normalize one method's source (see the module docstring)."""
    return _Normalizer(integral_locals).visit(_parse(source))


def normalized_source_text(source: str,
                           integral_locals: frozenset = frozenset()) -> str:
    """Check 1's canonical form: the normalized AST, unparsed."""
    return ast.unparse(normalize_method_source(source, integral_locals)).strip()


def _code_facets(code: types.CodeType) -> tuple:
    """The semantically relevant facets of a code object, recursively.

    Filenames, first line numbers and line tables are excluded — they
    never change what the interpreter does.  Constant values are rendered
    with their type name so ``1``, ``1.0`` and ``True`` stay distinct.
    """
    consts = tuple(
        _code_facets(const) if isinstance(const, types.CodeType)
        else (type(const).__name__, repr(const))
        for const in code.co_consts
    )
    return (
        "code",
        code.co_argcount,
        code.co_posonlyargcount,
        code.co_kwonlyargcount,
        code.co_nlocals,
        code.co_flags,
        code.co_code,
        consts,
        code.co_names,
        code.co_varnames,
        code.co_freevars,
        code.co_cellvars,
        getattr(code, "co_exceptiontable", b""),
    )


def _bytecode_digest(module: ast.Module) -> str:
    """Check 2's identity of a normalized tree.

    The tree is *compiled but never executed* — CPython's own compiler
    supplies the genuine constant folding (``1 + 1`` meets ``2`` here) and
    the comparison walks the resulting code objects.  ``compile`` leaves
    the tree as it was.
    """
    with warnings.catch_warnings():
        # Injected faults like `0 is None` trip SyntaxWarning by design.
        warnings.simplefilter("ignore", SyntaxWarning)
        module_code = compile(module, "<triage>", "exec")
    facets = tuple(
        _code_facets(const) for const in module_code.co_consts
        if isinstance(const, types.CodeType)
    )
    return sha256_hex("triage-bytecode", repr(facets))


def normalized_bytecode_digest(source: str,
                               integral_locals: frozenset = frozenset(),
                               ) -> str:
    """Check 2's identity: a digest over the normalized method's code."""
    return _bytecode_digest(normalize_method_source(source, integral_locals))


# ---------------------------------------------------------------------------
# The triage pass
# ---------------------------------------------------------------------------


def _original_method_source(owner: type, method_name: str) -> str:
    """The defining class's source for one method (dedented), read from
    the method's one context."""
    for klass in owner.__mro__:
        if klass.__dict__.get(method_name) is None:
            continue
        try:
            return method_context(klass, method_name).source
        except (OSError, TypeError) as error:
            raise MutationError(
                f"cannot read source of {owner.__name__}.{method_name}: "
                f"{error}"
            ) from error
    raise MutationError(
        f"{owner.__name__} has no method {method_name!r} anywhere in its MRO"
    )


def _original_forms(source: str, type_model: Optional[TypeModel]
                    ) -> Tuple[str, str, frozenset]:
    """(normalized text, bytecode digest, integral locals) of an original
    method, from one parse: the tags are read before the tree is
    normalized."""
    module = _parse(source)
    integral = _integral_locals(module, type_model)
    _Normalizer(integral).visit(module)
    return ast.unparse(module).strip(), _bytecode_digest(module), integral


def _checks(source: str, integral_locals: frozenset, original_text: str,
            original_digest: str) -> Tuple[TriageStatus, str]:
    """Checks 1 and 2 on one mutated source, from one parse: check 2
    compiles the tree check 1 unparsed.  Returns ``(status, digest)``;
    the status is ``UNDECIDED`` unless one check proves equivalence."""
    module = normalize_method_source(source, integral_locals)
    if ast.unparse(module).strip() == original_text:
        return TriageStatus.AST_EQUIVALENT, original_digest
    digest = _bytecode_digest(module)
    if digest == original_digest:
        return TriageStatus.BYTECODE_EQUIVALENT, digest
    return TriageStatus.UNDECIDED, digest


def triage_mutants(original_class: type,
                   mutants: Sequence["CompiledMutant"],
                   type_model: Optional[TypeModel] = None,
                   telemetry: Optional[Telemetry] = None) -> StaticTriage:
    """Run the three static checks over a battery, in submission order.

    ``type_model`` enables the integral identity folds (the experiments
    pass the same model the generation gate uses); without it only the
    universally sound normalizations apply.  ``telemetry`` receives the
    ``triage.*`` counters and a ``triage.run`` span.
    """
    obs = coalesce(telemetry)
    entries: List[MutantTriage] = []
    original_cache: Dict[str, Tuple[str, str, frozenset]] = {}
    representatives: Dict[Tuple[str, str], str] = {}

    def original_forms(method_name: str) -> Tuple[str, str, frozenset]:
        cached = original_cache.get(method_name)
        if cached is None:
            cached = original_cache[method_name] = _original_forms(
                _original_method_source(original_class, method_name),
                type_model,
            )
        return cached

    with obs.span("triage.run", component=original_class.__name__,
                  mutants=len(mutants)) as span:
        for mutant in mutants:
            record = mutant.record
            original_text, original_digest, integral = original_forms(
                record.method_name
            )
            try:
                status, digest = _checks(record.mutated_source, integral,
                                         original_text, original_digest)
            except MutationError:
                # A source ast.unparse rendered in a way that does not
                # re-parse (possible for untyped batteries, e.g. an
                # attribute assignment on an int constant).  Nothing is
                # proven: the mutant executes normally, and the empty
                # digest below keeps it out of redundancy grouping.
                status, digest = TriageStatus.UNDECIDED, ""
            representative = ""
            if status is TriageStatus.UNDECIDED and digest:
                group = (record.method_name, digest)
                earlier = representatives.get(group)
                if earlier is not None:
                    status = TriageStatus.REDUNDANT
                    representative = earlier
                else:
                    representatives[group] = record.ident
            entries.append(MutantTriage(
                ident=record.ident,
                method_name=record.method_name,
                status=status,
                digest=digest,
                representative=representative,
            ))

        triage = StaticTriage(
            class_name=original_class.__name__,
            entries=tuple(entries),
            typed_folds=type_model is not None,
        )
        if triage.ast_equivalent:
            obs.count("triage.ast_equivalent", len(triage.ast_equivalent))
        if triage.bytecode_equivalent:
            obs.count("triage.bytecode_equivalent",
                      len(triage.bytecode_equivalent))
        if triage.redundant:
            obs.count("triage.redundant_grouped", len(triage.redundant))
        span.set("skipped", triage.skipped)
    return triage

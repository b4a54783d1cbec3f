"""Interface-mutation machinery: variable classification and AST rewriting.

Interface mutation (Delamaro; paper sec. 4, Table 1) models faults in the
interaction between a caller R1 and a callee R2 by perturbing, inside R2,
the points where values flow across the interface.  For OO components the
paper instantiates it per *method*: R2 is a method of the class, its
"global variables" are the class's attributes, and the operators act on
uses of **non-interface variables** — the set L(R2) ∪ E(R2), where

* ``L(R2)`` — local variables defined in R2 (formal parameters are
  *interface* variables and are excluded);
* ``G(R2)`` — "globals" (class attributes, ``self.<attr>``) used in R2;
* ``E(R2)`` — class attributes *not* used in R2;
* ``RC``    — required constants: NULL (``None``), MAXINT, MININT, 0, 1, -1.

A *use site* is an occurrence of a local variable in load (read) context.
Each operator derives one mutant per (use site × replacement) pair.  The
paper compiled every mutant "to assure that all faulty classes compiled
cleanly"; here a replacement can fail to compile only in a method that
declares a name ``global`` or ``nonlocal`` (a use before the declaration),
so the generator compiles those methods' mutants at once and discards the
failures, and every other mutant compiles on first use
(:func:`compile_splice`).
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
import threading
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from types import CodeType
from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

from ...core.errors import MutationError
from ...core.parsing import parse_module

#: The RC set (Table 1): NULL plus the classic integer edge constants.
#: MAXINT/MININT are the 32-bit C limits the paper's setting implies.
MAXINT = 2_147_483_647
MININT = -2_147_483_648
REQUIRED_CONSTANTS: Tuple = (None, 0, 1, -1, MAXINT, MININT)


@dataclass(frozen=True)
class UseSite:
    """One load-context occurrence of a local variable in a method body."""

    variable: str
    occurrence: int  # 0-based index among load uses, in AST walk order
    # ``line``/``column`` are those of the occurrence-th use in ``ast.walk``
    # (breadth-first) order, but ``MethodContext.splice`` rewrites the
    # occurrence-th use in pre-order: the two can be different nodes.
    line: int
    column: int

    def describe(self) -> str:
        return f"{self.variable}@{self.line}:{self.column}"


#: Where one load-context ``Name`` sits in a method's tree: the parent
#: node, the field holding the ``Name``, and its index when that field is a
#: list (``None`` when the field holds the node itself).
_Slot = Tuple[ast.AST, str, Optional[int]]


class _Span(NamedTuple):
    """Where one slot's ``Name`` sits in the method's unparse."""

    start: int
    end: int
    #: unparse puts a unary operand here in parentheses: ``(~x) ** 2``.
    parenthesized: bool
    #: the slot is an attribute's object: ``x.next``, so ``-1 .next``.
    before_dot: bool


class MethodContext:
    """Parsed view of one method: AST, variable sets, use sites.

    E(R2) needs the instance attributes the *class* owns, which
    :func:`infer_attribute_universe` reads from the class hierarchy's
    source.

    The method is parsed once: :meth:`splice` puts each replacement into
    ``tree`` in place and takes it out again.  :meth:`render` gives a
    mutant's text from one template of the method, which fills ``tree``
    with placeholders on first use.  One context must not be spliced or
    rendered from two threads at once; :func:`method_context` gives each
    thread its own, and :func:`compile_splice` compiles through the
    context of the calling thread.  The context holds its owner weakly, so
    a context kept for a class does not keep the class alive.
    """

    def __init__(self, owner: type, method_name: str):
        self._owner = weakref.ref(owner)
        self.method_name = method_name
        function = _find_defining_dict(owner, method_name)
        self.source = textwrap.dedent(inspect.getsource(function))
        try:
            module = parse_module(self.source)
        except SyntaxError as error:
            raise MutationError(
                f"cannot parse source of {owner.__name__}.{method_name}: {error}"
            ) from error
        if not module.body or not isinstance(
            module.body[0], (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            raise MutationError(
                f"source of {owner.__name__}.{method_name} is not a function"
            )
        self.tree: ast.Module = module
        self.function: ast.FunctionDef = module.body[0]

        self.parameters: Tuple[str, ...] = tuple(
            argument.arg for argument in self.function.args.args
            if argument.arg != "self"
        )
        self.locals: Tuple[str, ...] = tuple(sorted(_assigned_names(self.function)
                                                    - set(self.parameters) - {"self"}))
        universe = infer_attribute_universe(owner)
        # G(R2) holds *data* attributes only: a `self.helper()` call names a
        # method, not a "global variable" in Table 1's sense.
        self.attributes_used: Tuple[str, ...] = tuple(
            sorted(_self_attributes(self.function) & universe)
        )
        self.attributes_unused: Tuple[str, ...] = tuple(
            sorted(universe - set(self.attributes_used))
        )
        self.use_sites: Tuple[UseSite, ...] = tuple(self._collect_use_sites())
        #: A ``global`` or ``nonlocal`` statement anywhere in the method:
        #: the one way a replacement can fail to compile (a name used
        #: before its declaration), so generation compiles these mutants.
        self.declares_global_or_nonlocal = any(
            isinstance(node, (ast.Global, ast.Nonlocal))
            for node in ast.walk(self.function)
        )
        self._slots = _load_slots(module, set(self.locals))
        self._body_nodes: Optional[Set[int]] = None
        self._unparsed: Optional[str] = None
        self._spans: Dict[str, List[_Span]] = {}

    @property
    def owner(self) -> type:
        return self._owner()

    # -- variable sets (Table 1 notation) ----------------------------------

    @property
    def L(self) -> Tuple[str, ...]:  # noqa: N802 — paper notation
        """Local variables defined in R2."""
        return self.locals

    @property
    def G(self) -> Tuple[str, ...]:  # noqa: N802
        """Class attributes ("globals") used in R2."""
        return self.attributes_used

    @property
    def E(self) -> Tuple[str, ...]:  # noqa: N802
        """Class attributes not used in R2."""
        return self.attributes_unused

    # -- use sites ------------------------------------------------------------

    def _collect_use_sites(self) -> Iterator[UseSite]:
        local_set = set(self.locals)
        counters: Dict[str, int] = {}
        for node in ast.walk(self.function):
            if (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in local_set):
                index = counters.get(node.id, 0)
                counters[node.id] = index + 1
                yield UseSite(
                    variable=node.id,
                    occurrence=index,
                    line=getattr(node, "lineno", 0),
                    column=getattr(node, "col_offset", 0),
                )

    # -- mutation --------------------------------------------------------------

    @contextmanager
    def splice(self, site: UseSite,
               replacement: ast.expr) -> Iterator[ast.Module]:
        """The method's tree with the given use replaced by ``replacement``.

        The replacement takes the location of the ``Name`` it displaces
        (its own children inherit it) and goes into that ``Name``'s slot of
        the one shared tree; the ``Name`` goes back on exit, however the
        ``with`` body leaves.  Compile the yielded tree inside the body
        only (:meth:`compile_mutant`); :meth:`render` gives its
        ``ast.unparse``.
        """
        slot = self._slots[site.variable][self._occurrence(site)]
        original = _slot_node(slot)
        ast.fix_missing_locations(ast.copy_location(replacement, original))
        _fill_slot(slot, replacement)
        try:
            yield self.tree
        finally:
            _fill_slot(slot, original)

    @property
    def unparsed(self) -> str:
        """``ast.unparse`` of the method as parsed."""
        if self._unparsed is None:
            self._unparsed, self._spans = _template(self.tree, self._slots)
        return self._unparsed

    def render(self, site: UseSite, replacement: ast.expr) -> str:
        """Exactly what ``ast.unparse`` gives for the tree that
        ``splice(site, replacement)`` yields, without splicing.

        The text is :attr:`unparsed` with the use's name swapped for the
        replacement's text.  ``replacement`` must have a shape the
        operators build: ``name_expr``, ``attribute_expr``,
        ``constant_expr`` of None or an int, or ``bitneg_expr``; any other
        node raises ``TypeError``.
        """
        occurrence = self._occurrence(site)
        template = self.unparsed
        span = self._spans[site.variable][occurrence]
        text = _replacement_text(replacement, span)
        return template[:span.start] + text + template[span.end:]

    def _occurrence(self, site: UseSite) -> int:
        if not 0 <= site.occurrence < len(self._slots.get(site.variable, ())):
            raise MutationError(
                f"use site {site.describe()} not found in "
                f"{self.owner.__name__}.{self.method_name}"
            )
        return site.occurrence

    def rewritten_line(self, variable: str, occurrence: int) -> Optional[int]:
        """The line of the ``Name`` that :meth:`splice` replaces for this
        use, counted from 1 at the method's first source line.

        ``None`` when the use is not found, or when it lies outside the
        body (a parameter default or a decorator): that code runs when the
        class is built, not on a line of the method.  Unlike
        :attr:`UseSite.line`, this is the pre-order node the splice
        rewrites.
        """
        slots = self._slots.get(variable, ())
        if not 0 <= occurrence < len(slots):
            return None
        if self._body_nodes is None:
            self._body_nodes = {
                id(node) for statement in self.function.body
                for node in ast.walk(statement)
            }
        node = _slot_node(slots[occurrence])
        return node.lineno if id(node) in self._body_nodes else None

    def compile_mutant(self, site: UseSite,
                       replacement: ast.expr) -> CodeType:
        """The module code of the method with one use replaced: its one
        ``def`` defines the mutated function
        (:func:`~repro.mutation.mutant.define_mutant_function`).

        Raises ``SyntaxError`` for a splice that does not compile, which
        only a ``global`` or ``nonlocal`` declaration allows.
        """
        with self.splice(site, replacement) as module, \
                warnings.catch_warnings():
            # Replacements like `x is None` → `0 is None` trip SyntaxWarning;
            # the "weird" comparison is the injected fault itself.
            warnings.simplefilter("ignore", SyntaxWarning)
            return compile(module, filename=f"<mutant of {self.method_name}>",
                           mode="exec")


#: Per thread, per owner class, the context of each method
#: :func:`method_context` built.  Weak keys keep generated classes
#: collectable; the thread-local keeps a context off every other thread.
_CONTEXTS = threading.local()


def method_context(owner: type, method_name: str) -> MethodContext:
    """The one :class:`MethodContext` of ``owner.method_name`` on this
    thread.

    A method's variable sets, use sites and template belong to the method,
    so generation, pruning, triage and the lint share one context per
    method.  Contexts are per thread because splicing and the lazy
    template fill the shared tree in place.  A construction that raises
    stores nothing.
    """
    try:
        classes = _CONTEXTS.classes
    except AttributeError:
        classes = _CONTEXTS.classes = weakref.WeakKeyDictionary()
    methods = classes.get(owner)
    if methods is None:
        methods = classes[owner] = {}
    context = methods.get(method_name)
    if context is None:
        context = methods[method_name] = MethodContext(owner, method_name)
    return context


def compile_splice(owner: type, method_name: str, site: UseSite,
                   replacement: ast.expr) -> CodeType:
    """:meth:`MethodContext.compile_mutant` through the calling thread's
    context of ``owner.method_name``.

    A context splices its one tree in place, so a mutant compiles through
    the context of the thread that reads its code: on the generating
    thread the one that rendered it, elsewhere one that parsed the same
    source, so the code is the same in every field.
    """
    return method_context(owner, method_name).compile_mutant(
        site, replacement)


def _load_slots(tree: ast.AST, names: Set[str]) -> Dict[str, List[_Slot]]:
    """The slot of every load-context ``Name`` in ``names``, per name, in
    pre-order (depth first, fields in ``_fields`` order).

    Occurrence k of a variable is its k-th slot in this order: the order
    in which every recorded mutant was generated, so the goldens pin it.
    """
    slots: Dict[str, List[_Slot]] = {name: [] for name in names}

    def visit(parent: ast.AST) -> None:
        for field, value in ast.iter_fields(parent):
            children = (enumerate(value) if isinstance(value, list)
                        else ((None, value),))
            for index, child in children:
                if not isinstance(child, ast.AST):
                    continue
                if (isinstance(child, ast.Name)
                        and isinstance(child.ctx, ast.Load)):
                    if child.id in slots:
                        slots[child.id].append((parent, field, index))
                else:
                    visit(child)

    visit(tree)
    return slots


def _slot_node(slot: _Slot) -> ast.AST:
    parent, field, index = slot
    value = getattr(parent, field)
    return value if index is None else value[index]


def _fill_slot(slot: _Slot, node: ast.AST) -> None:
    parent, field, index = slot
    if index is None:
        setattr(parent, field, node)
    else:
        getattr(parent, field)[index] = node


#: Placeholder names read ``<marker><slot number><marker>``.  No
#: identifier can hold the marker (U+2400, a printable symbol, so unparse
#: keeps it as is inside f-strings); a string constant that holds it makes
#: :func:`_template` double it.
_MARKER = "\u2400"


def _template(tree: ast.Module, slots_by_name: Dict[str, List[_Slot]],
              ) -> Tuple[str, Dict[str, List[_Span]]]:
    """``ast.unparse(tree)`` and, per name, the :class:`_Span` of each of
    its slots in that text.

    Two unparses with a placeholder in every slot: ``Name`` placeholders
    give the text and the offsets, ``~placeholder`` ones show which slots
    unparse wraps a unary operand in (``(~x) ** 2`` and ``(~x).next`` do,
    ``f(~x)`` does not).  Each slot's ``Name`` goes back in ``finally``.
    """
    slots = [(name, slot) for name, named in slots_by_name.items()
             for slot in named]
    marker = _MARKER
    while True:
        names = [ast.Name(id=f"{marker}{number}{marker}", ctx=ast.Load())
                 for number in range(len(slots))]
        plain = _unparse_filled(tree, slots, names).split(marker)
        # unparse writes each slot once, so any other marker is a string's.
        if len(plain) == 2 * len(slots) + 1:
            break
        marker += _MARKER
    negated = _unparse_filled(
        tree, slots, [ast.UnaryOp(op=ast.Invert(), operand=name)
                      for name in names],
    ).split(marker)

    parts: List[str] = []
    spans: List[Optional[_Span]] = [None] * len(slots)
    offset = closing = 0
    for position, number in enumerate(map(int, plain[1::2])):
        segment = plain[2 * position]
        parts.append(segment)
        offset += len(segment)
        # The negated text adds "~" or "(~" before a placeholder and ")"
        # after a wrapped one.
        opening = len(negated[2 * position]) - len(segment) - closing
        closing = opening - 1
        name, (parent, field, _) = slots[number]
        spans[number] = _Span(
            offset, offset + len(name), opening == 2,
            isinstance(parent, ast.Attribute) and field == "value",
        )
        parts.append(name)
        offset += len(name)
    parts.append(plain[-1])
    by_name: Dict[str, List[_Span]] = {name: [] for name in slots_by_name}
    for (name, _), span in zip(slots, spans):
        by_name[name].append(span)
    return "".join(parts), by_name


def _unparse_filled(tree: ast.Module, slots: List[Tuple[str, _Slot]],
                    fillers: List[ast.expr]) -> str:
    """``ast.unparse(tree)`` with each slot holding its filler."""
    originals = [_slot_node(slot) for _, slot in slots]
    try:
        for (_, slot), filler in zip(slots, fillers):
            _fill_slot(slot, filler)
        return ast.unparse(tree)
    finally:
        for (_, slot), original in zip(slots, originals):
            _fill_slot(slot, original)


def _replacement_text(replacement: ast.expr, span: _Span) -> str:
    """What unparse writes for ``replacement`` in the slot at ``span``."""
    if isinstance(replacement, ast.Name):
        return replacement.id
    if (isinstance(replacement, ast.Attribute)
            and isinstance(replacement.value, ast.Name)):
        return f"{replacement.value.id}.{replacement.attr}"
    if isinstance(replacement, ast.Constant):
        value = replacement.value
        if value is None:
            return "None"
        if isinstance(value, int):
            # unparse writes `3 .real`, since `3.real` does not parse.
            return f"{value!r} " if span.before_dot else repr(value)
    if (isinstance(replacement, ast.UnaryOp)
            and isinstance(replacement.op, ast.Invert)
            and isinstance(replacement.operand, ast.Name)):
        text = f"~{replacement.operand.id}"
        return f"({text})" if span.parenthesized else text
    raise TypeError(
        f"cannot render a {ast.dump(replacement)} replacement; the "
        "operators build names, self attributes, None or int constants "
        "and ~name"
    )


# ---------------------------------------------------------------------------
# Replacement expression builders
# ---------------------------------------------------------------------------


def name_expr(variable: str) -> ast.expr:
    return ast.Name(id=variable, ctx=ast.Load())


def attribute_expr(attribute: str) -> ast.expr:
    return ast.Attribute(
        value=ast.Name(id="self", ctx=ast.Load()),
        attr=attribute,
        ctx=ast.Load(),
    )


def constant_expr(value) -> ast.expr:
    return ast.Constant(value=value)


def bitneg_expr(variable: str) -> ast.expr:
    return ast.UnaryOp(op=ast.Invert(), operand=name_expr(variable))


def render_expr(expression: ast.expr) -> str:
    try:
        return ast.unparse(expression)
    except Exception:  # pragma: no cover — unparse failure is cosmetic only
        return "<expr>"


# ---------------------------------------------------------------------------
# Class-level helpers
# ---------------------------------------------------------------------------


def _find_defining_dict(owner: type, method_name: str):
    """The plain function implementing ``method_name``, defined on ``owner``.

    The method must live in ``owner.__dict__``: interface mutation targets
    "the methods of the target class" — inherited methods are mutated on the
    class that defines them (the second experiment mutates the *base*).
    """
    candidate = owner.__dict__.get(method_name)
    if candidate is None:
        raise MutationError(
            f"{owner.__name__} does not define method {method_name!r} itself; "
            "mutate the defining class instead"
        )
    if isinstance(candidate, (staticmethod, classmethod)):
        candidate = candidate.__func__
    if not callable(candidate):
        raise MutationError(
            f"{owner.__name__}.{method_name} is not a callable method"
        )
    return candidate


def _assigned_names(function: ast.FunctionDef) -> Set[str]:
    """Names bound anywhere in the body (locals)."""
    names: Set[str] = set()

    def collect_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect_target(element)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                collect_target(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            collect_target(node.target)
        elif isinstance(node, ast.For):
            collect_target(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            collect_target(node.optional_vars)
        elif isinstance(node, ast.comprehension):
            collect_target(node.target)
        elif isinstance(node, (ast.NamedExpr,)):
            collect_target(node.target)
    # Builtins shadowing is legal but confusing in reports; keep them anyway
    # (they are genuine locals) but drop compiler artefacts.
    return {name for name in names if not name.startswith("__")}


def _self_attributes(function: ast.FunctionDef) -> Set[str]:
    """Instance attributes touched as ``self.<attr>`` (read or write)."""
    attributes: Set[str] = set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            attributes.add(node.attr)
    return attributes


#: Method names whose self-attribute uses do not define data attributes.
_NON_DATA = set(dir(builtins))


#: Per-class memo for :func:`infer_attribute_universe`.  Each call parses
#: the source of the class's whole hierarchy, and every generator and lint
#: pass over a class asks again.  Weak keys keep dynamically built classes
#: collectable.
_UNIVERSES: "weakref.WeakKeyDictionary[type, FrozenSet[str]]" = (
    weakref.WeakKeyDictionary()
)


def infer_attribute_universe(owner: type) -> FrozenSet[str]:
    """All *data* attributes instances of ``owner`` carry.

    Inferred from the full class hierarchy's sources: every ``self.<attr>``
    that is assigned somewhere (``self.x = …``) is a data attribute;
    attributes only ever called (``self.Method()``) are not.
    """
    try:
        return _UNIVERSES[owner]
    except KeyError:
        pass
    universe: Set[str] = set()
    for klass in owner.__mro__:
        if klass is object:
            continue
        try:
            source = textwrap.dedent(inspect.getsource(klass))
            tree = parse_module(source)
        except (OSError, TypeError, SyntaxError):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    universe.add(node.attr)
    frozen = _UNIVERSES[owner] = frozenset(universe)
    return frozen


# ---------------------------------------------------------------------------
# Operator interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutationPoint:
    """One concrete mutation: a use site and its replacement expression."""

    site: UseSite
    replacement: ast.expr
    description: str


class MutationOperator:
    """Base class of the five Table-1 operators."""

    #: Table-1 operator name, e.g. ``IndVarBitNeg``.
    name = "AbstractOperator"

    def points(self, context: MethodContext) -> Sequence[MutationPoint]:
        """All mutation points this operator derives from a method."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


def operator_registry() -> "OperatorRegistry":
    """The default registry with all five paper operators installed."""
    from . import ALL_OPERATORS
    return OperatorRegistry(ALL_OPERATORS)


class OperatorRegistry:
    """Named lookup over a set of operators."""

    def __init__(self, operators: Sequence[MutationOperator]):
        self._operators: List[MutationOperator] = list(operators)

    def __iter__(self) -> Iterator[MutationOperator]:
        return iter(self._operators)

    def __len__(self) -> int:
        return len(self._operators)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(op.name for op in self._operators)

    def by_name(self, name: str) -> MutationOperator:
        for operator in self._operators:
            if operator.name == name:
                return operator
        raise KeyError(f"unknown mutation operator {name!r}")

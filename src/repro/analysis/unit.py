"""Source model: what a rule sees when it analyzes one component.

A :class:`ComponentUnit` pairs a live component class (carrying its embedded
``__tspec__``) with the parsed AST of every class along its MRO, so rules can
cross-check the *declared* interface (:class:`~repro.tspec.model.ClassSpec`)
against the *written* one (``ast`` nodes) without re-reading files.

Parsing is cached per Python module in a :class:`SourceCache` shared by all
units of a run; the cache also extracts module-level names (for contract
name resolution) and ``# concat-lint: disable=…`` suppression directives.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..tspec.model import ClassSpec, MethodSpec

#: Methods belonging to the built-in-test machinery (Figure 4), never part
#: of the component's own public interface.
BIT_METHOD_NAMES = frozenset(
    {"class_invariant", "bit_state", "invariant_test", "reporter"}
)

#: Names every module defines implicitly.
IMPLICIT_MODULE_NAMES = frozenset(
    {"__name__", "__file__", "__doc__", "__spec__", "__package__",
     "__loader__", "__builtins__"}
)

BUILTIN_NAMES = frozenset(dir(builtins))

#: ``# concat-lint: disable=CL001,spec-unknown-method -- justification``
_SUPPRESSION_RE = re.compile(
    r"#\s*concat-lint:\s*disable=([A-Za-z0-9_,\-\s]+?)"
    r"(?:\s+--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline suppression directive."""

    rules: Tuple[str, ...]          # lower-cased rule ids/names
    justification: Optional[str]

    def covers(self, rule_id: str, rule_name: str) -> bool:
        keys = {rule_id.lower(), rule_name.lower()}
        return bool(keys & set(self.rules))


class ModuleInfo:
    """Parsed view of one Python module: AST, globals, suppressions."""

    def __init__(self, module):
        self.module = module
        self.name: str = module.__name__
        self.path: str = getattr(module, "__file__", "") or f"<{self.name}>"
        self.source: str = inspect.getsource(module)
        self.tree: ast.Module = ast.parse(self.source)
        self.global_names: Set[str] = _module_global_names(self.tree)
        self.suppressions: Dict[int, Suppression] = _scan_suppressions(self.source)
        self.class_nodes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in self.tree.body
            if isinstance(node, ast.ClassDef)
        }

    def class_node(self, class_name: str) -> Optional[ast.ClassDef]:
        return self.class_nodes.get(class_name)


class SourceCache:
    """Per-run cache of :class:`ModuleInfo` records, keyed by module name."""

    def __init__(self):
        self._by_name: Dict[str, Optional[ModuleInfo]] = {}

    def for_module(self, module) -> Optional[ModuleInfo]:
        name = module.__name__
        if name not in self._by_name:
            try:
                self._by_name[name] = ModuleInfo(module)
            except (OSError, TypeError, SyntaxError):
                self._by_name[name] = None
        return self._by_name[name]

    def for_class(self, klass: type) -> Optional[ModuleInfo]:
        module = inspect.getmodule(klass)
        if module is None:
            return None
        return self.for_module(module)


@dataclass(frozen=True)
class MethodInfo:
    """One resolved method definition: where the ``def`` actually lives."""

    pyname: str                 # runtime name (``__init__``, ``AddHead``, …)
    node: ast.FunctionDef
    module: ModuleInfo
    class_name: str             # defining class (may be a base class)
    inherited: bool             # True when defined above the component class

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def path(self) -> str:
        return self.module.path


@dataclass(frozen=True)
class AttributeStore:
    """One ``self.<attr> = …`` store site found in a method body."""

    attr: str
    line: int
    module: ModuleInfo
    method: str                  # name of the enclosing function
    class_name: str
    value: Optional[ast.expr]    # RHS for simple single-target assigns, else None

    @property
    def path(self) -> str:
        return self.module.path


class ComponentUnit:
    """Everything the rules need to analyze one self-testable component."""

    def __init__(self, klass: type, spec: ClassSpec, cache: SourceCache):
        self.klass = klass
        self.spec = spec
        self.cache = cache
        self.module: Optional[ModuleInfo] = cache.for_class(klass)
        self.class_node: Optional[ast.ClassDef] = (
            self.module.class_node(klass.__name__) if self.module else None
        )
        self.methods: Dict[str, MethodInfo] = {}
        self.attribute_stores: List[AttributeStore] = []
        self._collect_mro()

    # -- identity ----------------------------------------------------------

    @property
    def class_name(self) -> str:
        return self.klass.__name__

    @property
    def path(self) -> str:
        return self.module.path if self.module else f"<{self.class_name}>"

    @property
    def class_line(self) -> int:
        return self.class_node.lineno if self.class_node is not None else 1

    # -- MRO harvesting ----------------------------------------------------

    def _collect_mro(self) -> None:
        """Harvest method defs and attribute stores along the class's MRO."""
        own_name = self.klass.__name__
        for klass in self.klass.__mro__:
            if klass is object:
                continue
            info = self.cache.for_class(klass)
            if info is None:
                continue
            node = info.class_node(klass.__name__)
            if node is None:
                continue
            for statement in node.body:
                if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if statement.name not in self.methods:  # first in MRO wins
                    self.methods[statement.name] = MethodInfo(
                        pyname=statement.name,
                        node=statement,
                        module=info,
                        class_name=klass.__name__,
                        inherited=klass.__name__ != own_name,
                    )
                self.attribute_stores.extend(
                    _attribute_stores(statement, info, klass.__name__)
                )

    # -- spec/source name mapping -----------------------------------------

    def pyname_for(self, method: MethodSpec) -> str:
        """Runtime name a spec method record maps to.

        Constructors are named after the class and map to ``__init__``;
        destructors are named ``~Class`` and map to ``__del__`` (which
        Python components usually leave synthetic).
        """
        if method.is_constructor:
            return "__init__"
        if method.is_destructor:
            return "__del__"
        return method.name

    def resolve(self, method: MethodSpec) -> Optional[MethodInfo]:
        return self.methods.get(self.pyname_for(method))

    def own_public_methods(self) -> List[MethodInfo]:
        """Public (non-BIT, non-dunder) methods defined in the class body."""
        found: List[MethodInfo] = []
        for info in self.methods.values():
            if info.inherited:
                continue
            name = info.pyname
            if name.startswith("_") or name in BIT_METHOD_NAMES:
                continue
            if _is_property(info.node):
                continue
            found.append(info)
        return sorted(found, key=lambda m: m.line)

    # -- suppression -------------------------------------------------------

    def suppression_at(self, rule_id: str, rule_name: str, path: str,
                       line: int) -> Optional[Suppression]:
        """Directive covering a finding: on its line or on the class line."""
        candidates: List[Tuple[ModuleInfo, int]] = []
        for info in self._modules():
            if info.path == path:
                candidates.append((info, line))
        if self.module is not None:
            candidates.append((self.module, self.class_line))
        for info, candidate_line in candidates:
            directive = info.suppressions.get(candidate_line)
            if directive is not None and directive.covers(rule_id, rule_name):
                return directive
        return None

    def _modules(self) -> List[ModuleInfo]:
        seen: Dict[str, ModuleInfo] = {}
        if self.module is not None:
            seen[self.module.name] = self.module
        for info in self.methods.values():
            seen.setdefault(info.module.name, info.module)
        return list(seen.values())


def units_from_module(module, cache: Optional[SourceCache] = None,
                      ) -> List[ComponentUnit]:
    """Component units for every class *defined in* ``module`` that carries
    an embedded t-spec (``__tspec__`` in its own ``__dict__``)."""
    cache = cache or SourceCache()
    units: List[ComponentUnit] = []
    for value in vars(module).values():
        if not inspect.isclass(value):
            continue
        if value.__module__ != module.__name__:
            continue
        spec = value.__dict__.get("__tspec__")
        if not isinstance(spec, ClassSpec):
            continue
        units.append(ComponentUnit(value, spec, cache))
    units.sort(key=lambda unit: unit.class_line)
    return units


# ---------------------------------------------------------------------------
# AST helpers shared by the rule modules
# ---------------------------------------------------------------------------


def _is_property(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in ("property",
                                                                "cached_property"):
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
                "setter", "getter", "deleter", "cached_property"):
            return True
    return False


def _attribute_stores(function: ast.FunctionDef, module: ModuleInfo,
                      class_name: str) -> Iterable[AttributeStore]:
    """All ``self.<attr>`` store sites in one method body."""
    stores: List[AttributeStore] = []
    simple_values: Dict[int, ast.expr] = {}
    for node in ast.walk(function):
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)):
            simple_values[id(node.targets[0])] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Attribute):
            if node.value is not None:
                simple_values[id(node.target)] = node.value
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            stores.append(
                AttributeStore(
                    attr=node.attr,
                    line=node.lineno,
                    module=module,
                    method=function.name,
                    class_name=class_name,
                    value=simple_values.get(id(node)),
                )
            )
    return stores


def _scan_suppressions(source: str) -> Dict[int, Suppression]:
    directives: Dict[int, Suppression] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = tuple(
            part.strip().lower()
            for part in match.group(1).split(",")
            if part.strip()
        )
        if rules:
            directives[lineno] = Suppression(rules=rules,
                                             justification=match.group("why"))
    return directives


def _module_global_names(tree: ast.Module) -> Set[str]:
    """Names bound at module level (recursing into top-level compound
    statements but not into function or class bodies)."""
    names: Set[str] = set(IMPLICIT_MODULE_NAMES)

    def collect_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect_target(element)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    def walk(statements) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                names.add(statement.name)
            elif isinstance(statement, ast.Import):
                for alias in statement.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    if alias.name == "*":
                        continue
                    names.add(alias.asname or alias.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    collect_target(target)
            elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                collect_target(statement.target)
            elif isinstance(statement, (ast.If, ast.Try, ast.While)):
                for block in _blocks_of(statement):
                    walk(block)
            elif isinstance(statement, ast.For):
                collect_target(statement.target)
                walk(statement.body)
                walk(statement.orelse)
            elif isinstance(statement, ast.With):
                for item in statement.items:
                    if item.optional_vars is not None:
                        collect_target(item.optional_vars)
                walk(statement.body)

    walk(tree.body)
    return names


def _blocks_of(statement) -> List[list]:
    blocks = [getattr(statement, "body", [])]
    blocks.append(getattr(statement, "orelse", []))
    blocks.append(getattr(statement, "finalbody", []))
    for handler in getattr(statement, "handlers", []):
        blocks.append(handler.body)
    return blocks


def free_names(expression: ast.expr) -> Set[str]:
    """Load-context names in ``expression`` not bound inside it.

    Understands lambda parameters, comprehension targets, and walrus
    bindings; used to check that contract predicates only reference names
    that resolve at runtime.
    """
    free: Set[str] = set()

    def visit(node: ast.AST, bound: Set[str]) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                free.add(node.id)
            return
        if isinstance(node, ast.Lambda):
            arguments = node.args
            inner = set(bound)
            for argument in (list(arguments.posonlyargs) + list(arguments.args)
                             + list(arguments.kwonlyargs)):
                inner.add(argument.arg)
            if arguments.vararg is not None:
                inner.add(arguments.vararg.arg)
            if arguments.kwarg is not None:
                inner.add(arguments.kwarg.arg)
            for default in list(arguments.defaults) + [
                    d for d in arguments.kw_defaults if d is not None]:
                visit(default, bound)
            visit(node.body, inner)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            inner = set(bound)
            for comprehension in node.generators:
                visit(comprehension.iter, inner)
                for name in ast.walk(comprehension.target):
                    if isinstance(name, ast.Name):
                        inner.add(name.id)
                for condition in comprehension.ifs:
                    visit(condition, inner)
            if isinstance(node, ast.DictComp):
                visit(node.key, inner)
                visit(node.value, inner)
            else:
                visit(node.elt, inner)
            return
        if isinstance(node, ast.NamedExpr):
            visit(node.value, bound)
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(expression, set())
    return free


def function_scope_names(function: ast.FunctionDef) -> Set[str]:
    """Parameters plus every name assigned anywhere in a function body."""
    arguments = function.args
    names: Set[str] = {
        argument.arg
        for argument in (list(arguments.posonlyargs) + list(arguments.args)
                         + list(arguments.kwonlyargs))
    }
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                     (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not function:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


@dataclass(frozen=True)
class DefSignature:
    """Call-shape of a ``def``: bounds on positional-argument count."""

    required: int
    maximum: Optional[int]      # None when the def takes *args
    parameter_names: Tuple[str, ...]

    def accepts(self, arity: int) -> bool:
        if arity < self.required:
            return False
        return self.maximum is None or arity <= self.maximum

    def describe(self) -> str:
        if self.maximum is None:
            return f"{self.required}+ args (*varargs)"
        if self.required == self.maximum:
            return f"{self.required} args"
        return f"{self.required}..{self.maximum} args"


def def_signature(function: ast.FunctionDef, drop_self: bool = True,
                  ) -> DefSignature:
    """Positional-argument bounds of a ``def`` (``self`` excluded)."""
    arguments = function.args
    positional = list(arguments.posonlyargs) + list(arguments.args)
    names = [argument.arg for argument in positional]
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    required = max(0, len(names) - len(arguments.defaults))
    maximum: Optional[int] = len(names)
    if arguments.vararg is not None:
        maximum = None
    return DefSignature(required=required, maximum=maximum,
                        parameter_names=tuple(names))


def literal_value(expression: ast.expr) -> Tuple[bool, Any]:
    """``(True, value)`` when the expression is a literal constant
    (including unary ``-``/``+`` on a numeric constant), else ``(False, None)``."""
    if isinstance(expression, ast.Constant):
        return True, expression.value
    if (isinstance(expression, ast.UnaryOp)
            and isinstance(expression.op, (ast.USub, ast.UAdd))
            and isinstance(expression.operand, ast.Constant)
            and isinstance(expression.operand.value, (int, float))
            and not isinstance(expression.operand.value, bool)):
        value = expression.operand.value
        return True, -value if isinstance(expression.op, ast.USub) else +value
    return False, None

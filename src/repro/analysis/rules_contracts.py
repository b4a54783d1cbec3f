"""Contract rules: do the Figure-5 assertion predicates even resolve?

A contract that raises ``NameError`` when it finally runs is worse than no
contract: it masks the violation it was meant to detect.  This rule walks
every ``require``/``ensure`` decorator and every in-body
``check_precondition``/``check_postcondition``/``check_invariant`` call
(:mod:`repro.bit.assertions`) and verifies each free name of the predicate
expression resolves — to a lambda parameter, the enclosing method's scope,
a module global, or a builtin.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from .findings import Finding, Severity
from .registry import Rule, register
from .unit import (
    BUILTIN_NAMES,
    ComponentUnit,
    MethodInfo,
    free_names,
    function_scope_names,
)

#: Decorators from repro.bit.assertions that take a predicate first.
CONTRACT_DECORATORS = frozenset({"require", "ensure"})
#: In-body check calls from repro.bit.assertions.
CONTRACT_CALLS = frozenset(
    {"check_precondition", "check_postcondition", "check_invariant"}
)


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


@register
class ContractUndefinedName(Rule):
    """Contract predicate references a name that cannot resolve at runtime."""

    id = "CL010"
    name = "contract-undefined-name"
    severity = Severity.ERROR
    summary = ("require/ensure/check_* predicate references an undefined "
               "name (contract would raise NameError, not a violation)")

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        for info in unit.methods.values():
            module_names = info.module.global_names
            # Decorator predicates close over module scope only: the lambda
            # is evaluated at class-definition time, outside any method.
            for decorator in info.node.decorator_list:
                if (isinstance(decorator, ast.Call)
                        and _callee_name(decorator) in CONTRACT_DECORATORS
                        and decorator.args):
                    yield from self._check_predicate(
                        unit, info, decorator.args[0],
                        scope=module_names | BUILTIN_NAMES,
                        context=f"@{_callee_name(decorator)} on "
                                f"{info.class_name}.{info.pyname}",
                    )
            # In-body check calls additionally see the method's own scope.
            method_scope = (module_names | BUILTIN_NAMES
                            | function_scope_names(info.node))
            for node in ast.walk(info.node):
                if (isinstance(node, ast.Call)
                        and _callee_name(node) in CONTRACT_CALLS
                        and node.args):
                    yield from self._check_predicate(
                        unit, info, node.args[0],
                        scope=method_scope,
                        context=f"{_callee_name(node)} in "
                                f"{info.class_name}.{info.pyname}",
                    )

    def _check_predicate(self, unit: ComponentUnit, info: MethodInfo,
                         predicate: ast.expr, scope: Set[str],
                         context: str) -> Iterable[Finding]:
        unresolved = sorted(free_names(predicate) - scope)
        for name in unresolved:
            yield self.finding(
                unit, getattr(predicate, "lineno", info.line),
                f"{unit.class_name}: contract predicate of {context} "
                f"references undefined name {name!r}",
                path=info.path,
            )

"""Contract assertions: the Figure-5 macros, in Python.

Concat's macro library defines ``ClassInvariant(exp)``, ``PreCondition(exp)``
and ``PostCondition(exp)``, each throwing when the expression is false.  The
direct analogues here are :func:`check_invariant`, :func:`check_precondition`
and :func:`check_postcondition`, called from inside component method bodies.

Like the macros — which are compiled out when the component is not built in
test mode — the check functions are **no-ops outside test mode**.  Predicates
may be values (already evaluated) or zero-argument callables (evaluated only
when the check actually runs, so expensive predicates cost nothing in
production).

For producers who prefer declarative contracts, the :func:`require` /
:func:`ensure` decorators attach pre/post-conditions to a method without
touching its body; they follow the same test-mode gating.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Union

from ..core.errors import (
    InvariantViolation,
    PostconditionViolation,
    PreconditionViolation,
)
from . import access
from .access import _STATE

Predicate = Union[bool, Callable[[], Any]]


def _holds(expression: Predicate) -> bool:
    if callable(expression):
        return bool(expression())
    return bool(expression)


# The three checks run inside every guarded mutant call, where each line
# they execute costs a trace callback and counts against the step budget.
# They read the global switch directly: the same answer as
# ``access.is_test_mode()`` without a target, in one line instead of three
# calls.
def check_invariant(expression: Predicate, subject: str = "",
                    message: str = "") -> None:
    """``ClassInvariant(exp)``: raise :class:`InvariantViolation` when false."""
    if not _STATE.global_on:
        return
    if not _holds(expression):
        raise InvariantViolation(message or "Invariant is violated!", subject)


def check_precondition(expression: Predicate, subject: str = "",
                       message: str = "") -> None:
    """``PreCondition(exp)``: raise :class:`PreconditionViolation` when false."""
    if not _STATE.global_on:
        return
    if not _holds(expression):
        raise PreconditionViolation(message or "Pre-condition is violated!", subject)


def check_postcondition(expression: Predicate, subject: str = "",
                        message: str = "") -> None:
    """``PostCondition(exp)``: raise :class:`PostconditionViolation` when false."""
    if not _STATE.global_on:
        return
    if not _holds(expression):
        raise PostconditionViolation(message or "Post-condition is violated!", subject)


# ---------------------------------------------------------------------------
# Declarative method contracts
# ---------------------------------------------------------------------------


def require(predicate: Callable[..., Any], message: str = "") -> Callable:
    """Attach a precondition to a method.

    ``predicate`` receives the same arguments as the method (including
    ``self``) and must be truthy for the call to proceed::

        @require(lambda self, amount: amount > 0, "amount must be positive")
        def deposit(self, amount): ...
    """

    def decorate(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            if access.is_test_mode(type(self)) and not predicate(self, *args, **kwargs):
                raise PreconditionViolation(
                    message or "Pre-condition is violated!",
                    f"{type(self).__name__}.{method.__name__}",
                )
            return method(self, *args, **kwargs)

        wrapper.__contract_pre__ = (predicate, message)
        return wrapper

    return decorate


def ensure(predicate: Callable[..., Any], message: str = "") -> Callable:
    """Attach a postcondition to a method.

    ``predicate`` receives ``(self, result, *args, **kwargs)`` after the
    method returns::

        @ensure(lambda self, result: result >= 0, "balance stays non-negative")
        def withdraw(self, amount): ...
    """

    def decorate(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            if access.is_test_mode(type(self)) and not predicate(self, result, *args, **kwargs):
                raise PostconditionViolation(
                    message or "Post-condition is violated!",
                    f"{type(self).__name__}.{method.__name__}",
                )
            return result

        wrapper.__contract_post__ = (predicate, message)
        return wrapper

    return decorate


def invariant_checked(method: Callable) -> Callable:
    """Wrap a method so the object's invariant is checked before and after.

    Requires the object to provide ``invariant_test()`` (e.g. by inheriting
    :class:`~repro.bit.builtintest.BuiltInTest`).  Outside test mode the
    wrapper is transparent.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        checking = access.is_test_mode(type(self))
        if checking:
            self.invariant_test()
        result = method(self, *args, **kwargs)
        if checking:
            self.invariant_test()
        return result

    wrapper.__invariant_checked__ = True
    return wrapper


def has_contracts(method: Callable) -> bool:
    """True when a callable carries any declarative contract metadata."""
    return any(
        hasattr(method, marker)
        for marker in ("__contract_pre__", "__contract_post__", "__invariant_checked__")
    )

"""Tests for the contract assertion checks and decorators (Figure 5)."""

from __future__ import annotations

import pytest

from repro.bit import access
from repro.bit.assertions import (
    check_invariant,
    check_postcondition,
    check_precondition,
    ensure,
    has_contracts,
    invariant_checked,
    require,
)
from repro.bit.builtintest import BuiltInTest
from repro.core.errors import (
    InvariantViolation,
    PostconditionViolation,
    PreconditionViolation,
)


class TestCheckFunctions:
    def test_noop_outside_test_mode(self):
        # Like the macros compiled out of a production build.
        check_invariant(False)
        check_precondition(False)
        check_postcondition(False)

    def test_raise_in_test_mode(self, in_test_mode):
        with pytest.raises(InvariantViolation):
            check_invariant(False)
        with pytest.raises(PreconditionViolation):
            check_precondition(False)
        with pytest.raises(PostconditionViolation):
            check_postcondition(False)

    def test_truthy_passes(self, in_test_mode):
        check_invariant(True)
        check_precondition(1)
        check_postcondition("non-empty")

    def test_callable_predicates_lazy(self):
        # Outside test mode the predicate must not even be evaluated.
        calls = []

        def expensive():
            calls.append(1)
            return False

        check_precondition(expensive)
        assert calls == []
        with access.test_mode():
            with pytest.raises(PreconditionViolation):
                check_precondition(expensive)
        assert calls == [1]

    def test_subject_in_message(self, in_test_mode):
        with pytest.raises(InvariantViolation, match="Widget"):
            check_invariant(False, subject="Widget")

    def test_custom_message(self, in_test_mode):
        with pytest.raises(PreconditionViolation, match="must be positive"):
            check_precondition(False, message="must be positive")

    def test_noop_under_a_per_class_scope_only(self):
        # The checks carry no class, so a per-class scope with the global
        # switch off leaves them compiled out.
        with access.test_mode(Account):
            check_invariant(False)
            check_precondition(False)
            check_postcondition(False)

    def test_fire_under_the_absolute_switch(self):
        access.set_test_mode(True)
        with pytest.raises(InvariantViolation):
            check_invariant(False)
        with pytest.raises(PreconditionViolation):
            check_precondition(False)
        with pytest.raises(PostconditionViolation):
            check_postcondition(False)
        access.set_test_mode(False)
        check_invariant(False)

    def test_noop_again_after_the_scope_exits(self):
        with access.test_mode():
            with pytest.raises(InvariantViolation):
                check_invariant(False)
        check_invariant(False)


class Account(BuiltInTest):
    def __init__(self, balance=0):
        self.balance = balance

    def class_invariant(self):
        return self.balance >= 0

    @require(lambda self, amount: amount > 0, "amount must be positive")
    def deposit(self, amount):
        self.balance += amount
        return self.balance

    @ensure(lambda self, result, amount: result >= 0, "no overdraft")
    def withdraw(self, amount):
        self.balance -= amount
        return self.balance

    @invariant_checked
    def audit(self):
        return self.balance


class TestDecorators:
    def test_require_passes_valid_call(self, in_test_mode):
        assert Account().deposit(10) == 10

    def test_require_rejects_invalid_call(self, in_test_mode):
        with pytest.raises(PreconditionViolation, match="positive"):
            Account().deposit(-1)

    def test_require_transparent_outside_test_mode(self):
        assert Account().deposit(-1) == -1  # fault passes silently

    def test_ensure_detects_violation(self, in_test_mode):
        account = Account(5)
        with pytest.raises(PostconditionViolation, match="overdraft"):
            account.withdraw(10)

    def test_ensure_passes(self, in_test_mode):
        assert Account(10).withdraw(4) == 6

    def test_invariant_checked_before_and_after(self, in_test_mode):
        account = Account(3)
        assert account.audit() == 3
        account.balance = -1
        with pytest.raises(InvariantViolation):
            account.audit()

    def test_invariant_checked_transparent_outside(self):
        account = Account(-5)
        assert account.audit() == -5

    def test_violation_subject_names_class_and_method(self, in_test_mode):
        try:
            Account().deposit(0)
        except PreconditionViolation as violation:
            assert "Account.deposit" in str(violation)
        else:  # pragma: no cover
            pytest.fail("expected violation")

    def test_has_contracts(self):
        assert has_contracts(Account.deposit)
        assert has_contracts(Account.withdraw)
        assert has_contracts(Account.audit)
        assert not has_contracts(Account.class_invariant)

    def test_wrapped_method_keeps_name(self):
        assert Account.deposit.__name__ == "deposit"

    def test_per_class_test_mode_scopes_decorators(self):
        with access.test_mode(Account):
            with pytest.raises(PreconditionViolation):
                Account().deposit(0)

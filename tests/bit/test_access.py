"""Tests for the BIT access control (test-mode switch)."""

from __future__ import annotations

import pytest

from repro.bit import access
from repro.core.errors import TestModeError


class Component:
    pass


class SubComponent(Component):
    pass


class Unrelated:
    pass


class TestGlobalSwitch:
    def test_off_by_default(self):
        assert not access.is_test_mode()

    def test_set_and_reset(self):
        access.set_test_mode(True)
        assert access.is_test_mode()
        access.set_test_mode(False)
        assert not access.is_test_mode()

    def test_context_manager_restores(self):
        with access.test_mode():
            assert access.is_test_mode()
        assert not access.is_test_mode()

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with access.test_mode():
                raise RuntimeError("boom")
        assert not access.is_test_mode()

    def test_nested_contexts(self):
        with access.test_mode():
            with access.test_mode():
                assert access.is_test_mode()
            assert access.is_test_mode()
        assert not access.is_test_mode()

    def test_absolute_and_scoped_switches_overlap(self):
        # Either one keeps the global switch on while the other goes off.
        access.set_test_mode(True)
        with access.test_mode():
            pass
        assert access.is_test_mode()
        access.set_test_mode(False)
        with access.test_mode():
            access.set_test_mode(True)
            access.set_test_mode(False)
            assert access.is_test_mode()
        assert not access.is_test_mode()

    def test_reset_turns_the_global_switch_off(self):
        access.set_test_mode(True)
        access.reset()
        assert not access.is_test_mode()


class TestPerClassSwitch:
    def test_enable_for_class(self):
        access.enable_for_class(Component)
        assert access.is_test_mode(Component)
        assert not access.is_test_mode(Unrelated)
        assert not access.is_test_mode()  # global stays off

    def test_subclasses_inherit_enablement(self):
        access.enable_for_class(Component)
        assert access.is_test_mode(SubComponent)

    def test_disable_for_class(self):
        access.enable_for_class(Component)
        access.disable_for_class(Component)
        assert not access.is_test_mode(Component)

    def test_disable_absent_is_noop(self):
        access.disable_for_class(Unrelated)

    def test_scoped_context_manager(self):
        with access.test_mode(Component):
            assert access.is_test_mode(Component)
            assert not access.is_test_mode(Unrelated)
        assert not access.is_test_mode(Component)

    def test_scoped_context_does_not_remove_prior_enablement(self):
        access.enable_for_class(Component)
        with access.test_mode(Component):
            pass
        assert access.is_test_mode(Component)

    def test_global_covers_everything(self):
        access.set_test_mode(True)
        assert access.is_test_mode(Unrelated)


class TestRequire:
    def test_raises_when_off(self):
        with pytest.raises(TestModeError, match="requires test mode"):
            access.require_test_mode(Component, "Reporter")

    def test_passes_when_on(self):
        with access.test_mode():
            access.require_test_mode(Component)

    def test_message_names_class_and_capability(self):
        try:
            access.require_test_mode(Component, "InvariantTest")
        except TestModeError as error:
            assert "Component" in str(error)
            assert "InvariantTest" in str(error)
        else:  # pragma: no cover
            pytest.fail("expected TestModeError")

"""Tests for the BuiltInTest mixin (Figure 4)."""

from __future__ import annotations

import pytest

from repro.bit import access
from repro.bit.builtintest import BuiltInTest, is_self_testable
from repro.bit.reporter import StateReport
from repro.core.errors import InvariantViolation, TestModeError


class Thermostat(BuiltInTest):
    def __init__(self, target=20):
        self.target = target

    def class_invariant(self):
        return -30 <= self.target <= 60


class SmartThermostat(Thermostat):
    pass


class Valve(BuiltInTest):
    pass


class TestInvariantTest:
    def test_requires_test_mode(self):
        with pytest.raises(TestModeError):
            Thermostat().invariant_test()

    def test_passes_on_valid_state(self, in_test_mode):
        Thermostat().invariant_test()

    def test_raises_on_invalid_state(self, in_test_mode):
        broken = Thermostat(1000)
        with pytest.raises(InvariantViolation, match="Thermostat"):
            broken.invariant_test()

    def test_default_invariant_accepts_everything(self, in_test_mode):
        class Plain(BuiltInTest):
            pass

        Plain().invariant_test()

    def test_per_class_enablement_suffices(self):
        access.enable_for_class(Thermostat)
        Thermostat().invariant_test()

    def test_unrelated_class_scope_does_not_enable(self):
        with access.test_mode(Valve):
            with pytest.raises(TestModeError, match="Thermostat"):
                Thermostat().invariant_test()

    def test_subclass_of_enabled_class_is_enabled(self):
        with access.test_mode(Thermostat):
            SmartThermostat().invariant_test()
            with pytest.raises(InvariantViolation, match="SmartThermostat"):
                SmartThermostat(1000).invariant_test()


class TestReporter:
    def test_requires_test_mode(self):
        with pytest.raises(TestModeError):
            Thermostat().reporter()

    def test_captures_state(self, in_test_mode):
        report = Thermostat(22).reporter()
        assert isinstance(report, StateReport)
        assert report.as_dict()["target"] == 22

    def test_appends_to_file(self, in_test_mode, tmp_path):
        destination = tmp_path / "Result.txt"
        Thermostat(18).reporter(str(destination))
        Thermostat(19).reporter(str(destination))
        content = destination.read_text()
        assert content.count("state of Thermostat") == 2
        assert "target = 18" in content
        assert "target = 19" in content


class TestIsSelfTestable:
    def test_mixin_subclass(self):
        assert is_self_testable(Thermostat)

    def test_duck_typed_class(self):
        class Duck:
            def class_invariant(self):
                return True

            def invariant_test(self):
                pass

            def reporter(self, destination=None):
                return None

        assert is_self_testable(Duck)

    def test_plain_class_is_not(self):
        class Plain:
            pass

        assert not is_self_testable(Plain)

    def test_has_builtin_test_marker(self):
        assert Thermostat.has_builtin_test()

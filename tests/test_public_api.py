"""The public API surface: everything advertised must resolve and work."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro

#: The end-to-end benchmark's child process; its traced mode imports
#: layers of ``repro`` that no untraced run touches.
E2E_CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "child.py"

SUBPACKAGES = (
    "repro.core",
    "repro.tspec",
    "repro.tfm",
    "repro.bit",
    "repro.generator",
    "repro.harness",
    "repro.history",
    "repro.mutation",
    "repro.components",
    "repro.interclass",
    "repro.experiments",
)


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_all_is_sorted_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, (
                f"{module_name}.{name} is exported but missing"
            )

    def test_quickstart_snippet_from_docstring(self):
        """The module docstring's quickstart must actually run."""
        from repro import DriverGenerator, TestExecutor
        from repro.components import BoundedStack

        suite = DriverGenerator(BoundedStack.__tspec__).generate()
        result = TestExecutor(BoundedStack).run_suite(suite)
        assert result.all_passed

    def test_error_hierarchy_reachable_from_top(self):
        from repro import ContractViolation, InvariantViolation, ReproError

        assert issubclass(InvariantViolation, ContractViolation)
        assert issubclass(ContractViolation, ReproError)

    def test_no_accidental_private_exports(self):
        assert not [name for name in repro.__all__ if name.startswith("_")]


def test_benchmark_harness_imports_resolve():
    """Every name the end-to-end benchmark's child imports from ``repro``
    exists, in its traced mode too.  The child is parsed, never run."""
    tree = ast.parse(E2E_CHILD.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "repro":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "repro"]
    assert imported
    missing = []
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{module_name}.{name}")
    assert missing == []

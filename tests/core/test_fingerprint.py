"""The canonical-encoding substrate under every cache fingerprint.

``canonical`` must be identity-free (no ``id()``, no default ``repr``
addresses), order-stable for unordered containers, and source-sensitive
for types and routines — those properties are what make the cache key
both *stable* (warm runs hit) and *honest* (edits invalidate).  A type is
sensitive to every file of the top-level package of each of its
classes' modules, and of ``repro`` wherever it is installed, not only to
its own body; the standard library and site-packages stay out.
"""

from __future__ import annotations

import enum
import inspect
import os
import shutil
import subprocess
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.components import CSortableObList
from repro.core import fingerprint
from repro.core.fingerprint import (
    MAX_CANONICAL_DEPTH,
    canonical,
    code_digest,
    code_files,
    sha256_hex,
)

from ..keyed_component import BASE, COMPONENT, EDITS, KeyedTree


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class Plain:
    def __init__(self, value):
        self.value = value


class TestSha256Hex:
    def test_deterministic(self):
        assert sha256_hex("a", "b") == sha256_hex("a", "b")

    def test_parts_are_delimited(self):
        """("ab", "c") and ("a", "bc") must not collide."""
        assert sha256_hex("ab", "c") != sha256_hex("a", "bc")

    def test_is_hex_digest(self):
        digest = sha256_hex("x")
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestCanonicalStability:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 3.25, "text", b"bytes",
        (1, 2), [1, [2, 3]], {"k": "v"}, Colour.RED, Point(1, 2),
    ])
    def test_equal_values_encode_identically(self, value):
        assert canonical(value) == canonical(value)

    def test_identity_free_for_objects(self):
        assert canonical(Plain(7)) == canonical(Plain(7))
        assert canonical(Plain(7)) != canonical(Plain(8))

    def test_no_memory_addresses_leak(self):
        instance = Plain(7)
        assert hex(id(instance))[2:] not in canonical(instance)

    def test_dict_insertion_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_set_iteration_order_is_irrelevant(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})
        assert canonical(frozenset("abc")) == canonical(frozenset("cba"))

    def test_distinguishes_container_kinds(self):
        assert canonical((1, 2)) != canonical([1, 2])
        assert canonical({1, 2}) != canonical((1, 2))

    def test_distinguishes_scalar_types(self):
        assert canonical(1) != canonical(1.0)
        assert canonical(True) != canonical(1)
        assert canonical("1") != canonical(1)
        assert canonical(None) != canonical("None")


class TestCanonicalSourceSensitivity:
    def test_type_embeds_source_hash(self):
        encoded = canonical(Plain)
        assert "Plain" in encoded
        assert "#" in encoded  # qualname#digest

    def test_routine_encodes_by_qualified_name(self):
        assert canonical(sha256_hex) == canonical(sha256_hex)
        assert canonical(sha256_hex) != canonical(canonical)

    def test_dataclass_field_values_matter(self):
        assert canonical(Point(1, 2)) != canonical(Point(2, 1))


@pytest.fixture()
def keyed_tree(tmp_path):
    tree = KeyedTree(tmp_path / "tree")
    yield tree
    tree.close()


def load_module(path: Path, text: str, monkeypatch) -> types.ModuleType:
    """Write ``text`` to ``path`` and import it as a top-level module (a
    package when ``path`` is an ``__init__.py``) until the test ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    package = path.name == "__init__.py"
    module = types.ModuleType(path.parent.name if package else path.stem)
    module.__file__ = str(path)
    if package:
        module.__path__ = [str(path.parent)]
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(text, str(path), "exec"), module.__dict__)
    return module


class TestTypeHierarchyFiles:
    """A type renders a digest of the packages that supply its code: those
    of its hierarchy's modules, and ``repro``, which runs and judges it."""

    @pytest.mark.parametrize("module, old, new", [
        (COMPONENT, "STEP = 1", "STEP = 10"),
        (BASE, "value + 0", "value + 10"),
        EDITS["imported-module"],
        EDITS["oracle-module"],
    ], ids=["own-file-outside-the-class", "base-class-file",
            "imported-module", "oracle-module"])
    def test_file_edit_moves_the_type(self, keyed_tree, module, old, new):
        # Each load imports the modules again; the edited files are read
        # again, although the class body is the same text.
        stepper = keyed_tree.load()
        before, body = canonical(stepper), inspect.getsource(stepper)
        keyed_tree.edit(module, old, new)
        edited = keyed_tree.load()
        assert inspect.getsource(edited) == body
        assert canonical(edited) != before
        keyed_tree.edit(module, new, old)
        assert canonical(keyed_tree.load()) == before

    def test_files_are_every_supplying_package(self, keyed_tree):
        stepper = keyed_tree.load()
        labels = [label for label, _ in
                  code_files(klass.__module__ for klass in stepper.__mro__)]
        assert labels[:4] == ["keyed_base/__init__.py",
                              "keyed_base/helpers.py",
                              "keyed_base/oracles.py", "keyed_component.py"]
        repro_files = labels[4:]
        assert repro_files == sorted(repro_files)
        assert {"repro/bit/builtintest.py", "repro/harness/oracles.py",
                "repro/harness/executor.py",
                "repro/mutation/coverage.py"} <= set(repro_files)
        assert all(label.startswith("repro/") and label.endswith(".py")
                   for label in repro_files)

    def test_copy_of_the_tree_elsewhere_keeps_the_type(self, keyed_tree,
                                                       tmp_path):
        here = canonical(keyed_tree.load())
        copy = KeyedTree(tmp_path / "elsewhere")
        try:
            assert canonical(copy.load()) == here
        finally:
            copy.close()

    def test_copy_of_the_repro_tree_elsewhere_keeps_the_digest(self,
                                                               tmp_path):
        copy = tmp_path / "elsewhere" / "repro"
        shutil.copytree(Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = ("from repro.components import CSortableObList\n"
                  "from repro.core.fingerprint import canonical\n"
                  "print(canonical(CSortableObList))\n")
        there = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONPATH": str(copy.parent)},
        ).stdout.strip()
        assert there == canonical(CSortableObList)

    def test_standard_library_stays_out(self, tmp_path, monkeypatch):
        module = load_module(tmp_path / "keyed_imports.py", (
            "from collections import OrderedDict\n"
            "from repro.bit.builtintest import BuiltInTest\n"
            "\n"
            "\n"
            "class Ordered(OrderedDict, BuiltInTest):\n"
            "    pass\n"
        ), monkeypatch)

        files = code_files(klass.__module__
                           for klass in module.Ordered.__mro__)
        assert {label.split("/")[0] for label, _ in files} == {
            "keyed_imports.py", "repro"}
        assert code_files(["collections", "json", "os"]) == []

    def test_site_packages_stay_out_but_repro_counts_anywhere(
            self, tmp_path, monkeypatch):
        modules = [klass.__module__ for klass in CSortableObList.__mro__]
        labels = [label for label, _ in code_files(modules)]
        digest = code_digest(modules)
        # Fake an install: the directory that holds ``repro`` and one more
        # are the only site-packages.
        installed = tmp_path / "site-packages"
        monkeypatch.setattr(fingerprint, "_library_directories", lambda: (
            str(installed), str(Path(repro.__file__).parent.parent)))
        load_module(installed / "installed_base" / "__init__.py",
                    "class Base:\n    pass\n", monkeypatch)
        local = load_module(tmp_path / "keyed_local.py", (
            "from installed_base import Base\n"
            "from repro.bit.builtintest import BuiltInTest\n"
            "\n"
            "\n"
            "class Local(Base, BuiltInTest):\n"
            "    pass\n"
        ), monkeypatch)

        assert code_files(["installed_base"]) == []
        assert [label for label, _ in code_files(modules)] == labels
        assert code_digest(modules) == digest
        files = code_files(klass.__module__ for klass in local.Local.__mro__)
        assert [label for label, _ in files] == ["keyed_local.py", *labels]

    def test_class_without_a_file_keeps_name_identity(self):
        fileless = type("Fileless", (), {"__module__": "no_such_module"})
        assert canonical(fileless) == "type:no_such_module.Fileless#nosource"
        assert code_digest(["no_such_module", "builtins"]) is None

    def test_interpreter_version_is_in_the_digest(self, monkeypatch):
        modules = [klass.__module__ for klass in CSortableObList.__mro__]
        here = code_digest(modules)
        monkeypatch.setattr("repro.core.fingerprint.INTERPRETER",
                            "python2.7")
        assert code_digest(modules) != here


class TestCanonicalDepthCap:
    def test_deep_nesting_is_capped_not_fatal(self):
        value = "leaf"
        for _ in range(MAX_CANONICAL_DEPTH + 10):
            value = [value]
        assert isinstance(canonical(value), str)

    def test_self_referential_object_terminates(self):
        loop = Plain(None)
        loop.value = loop
        assert isinstance(canonical(loop), str)

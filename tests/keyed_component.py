"""A small component written to disk, edited and imported again.

The outcome store keys a class by the source files of the top-level
package of each of its classes' modules, so an edit anywhere in those
packages must move the key, even outside the component's class body and
outside the modules of its class hierarchy.  :class:`KeyedTree` writes
two top-level packages under a directory:

* the package ``keyed_base`` defines the base class ``Counter``, its
  module ``keyed_base.helpers`` the function ``offset``, which the
  component imports, and its module ``keyed_base.oracles`` the oracle
  the component's runs judge with (no class of the hierarchy lives in
  either module);
* the module ``keyed_component`` defines the component ``Stepper``
  beside a module constant (``STEP``) and a helper class (``_Cell``).

:data:`EDITS` changes each of five places outside ``Stepper``'s body,
every one without moving the reference run's line coverage;
:meth:`KeyedTree.load` imports the modules again under the same names.
"""

from __future__ import annotations

import linecache
import sys
import types
from pathlib import Path
from typing import Dict, List, Tuple

from repro.generator.suite import TestSuite
from repro.harness.oracles import CompositeOracle
from repro.mutation.generate import generate_mutants
from repro.mutation.mutant import CompiledMutant

from .mutation.pruning_subjects import suite_of

BASE = "keyed_base"
ORACLES = "keyed_base.oracles"
HELPERS = "keyed_base.helpers"
COMPONENT = "keyed_component"

#: Each module's file below the tree's root, in import order.
FILES = {
    BASE: "keyed_base/__init__.py",
    ORACLES: "keyed_base/oracles.py",
    HELPERS: "keyed_base/helpers.py",
    COMPONENT: "keyed_component.py",
}

SOURCES = {
    BASE: '''\
from repro.bit.builtintest import BuiltInTest


class Counter(BuiltInTest):
    def __init__(self):
        self.total = 0

    def class_invariant(self):
        return self.total >= 0

    def Scale(self, value):
        return value + 0
''',
    ORACLES: '''\
from repro.harness.oracles import (
    AssertionOracle,
    CompositeOracle,
    CrashOracle,
    GoldenOutputOracle,
)


class ReturnOracle(GoldenOutputOracle):
    name = "keyed-output"

    def judge(self, observed, reference):
        return super().judge(observed, reference)


def keyed_oracle():
    return CompositeOracle((CrashOracle(), AssertionOracle(), ReturnOracle()))
''',
    HELPERS: '''\
def offset(amount):
    return amount * 1
''',
    COMPONENT: '''\
from keyed_base import Counter
from keyed_base.helpers import offset

STEP = 1


class _Cell:
    def __init__(self, value):
        self.value = value

    def doubled(self):
        return self.value * 2


class Stepper(Counter):
    def Add(self, amount):
        cell = _Cell(offset(amount) + STEP)
        total = self.total + self.Scale(cell.doubled())
        self.total = total
        return total
''',
}

#: ``(module, old text, new text)``: one edit outside ``Stepper``'s body
#: per kind of code its key must cover.
EDITS: Dict[str, Tuple[str, str, str]] = {
    "module-constant": (COMPONENT, "STEP = 1", "STEP = 10"),
    "helper-class": (COMPONENT, "self.value * 2", "self.value * 20"),
    "base-class-method": (BASE, "value + 0", "value + 10"),
    "imported-module": (HELPERS, "amount * 1", "amount * 3"),
    "oracle-module": (ORACLES, "judge(observed, reference)",
                      "judge(observed, observed)"),
}


class KeyedTree:
    """The modules under ``root``, imported by file path."""

    def __init__(self, root: Path):
        self.root = Path(root)
        for module, text in SOURCES.items():
            path = self._path(module)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def _path(self, module: str) -> Path:
        return self.root / FILES[module]

    def edit(self, module: str, old: str, new: str) -> None:
        """Replace ``old`` by ``new`` in one module's file."""
        path = self._path(module)
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} is not once in {module}"
        path.write_text(text.replace(old, new))

    def load(self) -> type:
        """Import every module afresh, in :data:`FILES` order, and return
        ``Stepper``."""
        self.close()
        for module in FILES:
            path = self._path(module)
            linecache.checkcache(str(path))
            loaded = types.ModuleType(module)
            loaded.__file__ = str(path)
            if path.name == "__init__.py":
                loaded.__path__ = [str(path.parent)]
            sys.modules[module] = loaded
            parent, _, child = module.rpartition(".")
            if parent:
                setattr(sys.modules[parent], child, loaded)
            exec(compile(path.read_text(), str(path), "exec"),
                 loaded.__dict__)
        return sys.modules[COMPONENT].Stepper

    def oracle(self) -> CompositeOracle:
        """The oracle of the modules :meth:`load` imported last."""
        return sys.modules[ORACLES].keyed_oracle()

    def close(self) -> None:
        """Forget every module."""
        for module in FILES:
            sys.modules.pop(module, None)


def battery(stepper: type) -> List[CompiledMutant]:
    """Every mutant of ``Stepper.Add``."""
    mutants, _ = generate_mutants(stepper, ["Add"])
    return mutants


def suite() -> TestSuite:
    """Cases that add once, twice and three times."""
    return suite_of("Stepper", [("Add", 1)], [("Add", 2), ("Add", 3)],
                    [("Add", 0), ("Add", 4), ("Add", 5)])

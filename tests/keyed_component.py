"""A small component written to disk, edited and imported again.

The outcome store keys a class by the source files of its class
hierarchy, so an edit anywhere in those files must move the key, even
outside the component's class body.  :class:`KeyedTree` writes two
modules under a directory: ``keyed_base`` defines the base class
``Counter``, and ``keyed_component`` defines the component ``Stepper``
beside a module constant (``STEP``) and a helper class (``_Cell``).
:data:`EDITS` changes each of the three places outside ``Stepper``'s
body, every one without moving the reference run's line coverage;
:meth:`KeyedTree.load` imports the modules again under the same names.
"""

from __future__ import annotations

import linecache
import sys
import types
from pathlib import Path
from typing import Dict, List, Tuple

from repro.generator.suite import TestSuite
from repro.mutation.generate import generate_mutants
from repro.mutation.mutant import CompiledMutant

from .mutation.pruning_subjects import suite_of

BASE = "keyed_base"
COMPONENT = "keyed_component"

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
    COMPONENT: '''\
from keyed_base import Counter

STEP = 1


class _Cell:
    def __init__(self, value):
        self.value = value

    def doubled(self):
        return self.value * 2


class Stepper(Counter):
    def Add(self, amount):
        cell = _Cell(amount + STEP)
        total = self.total + self.Scale(cell.doubled())
        self.total = total
        return total
''',
}

#: ``(module, old text, new text)``: one edit outside ``Stepper``'s body
#: per kind of file content its key must cover.
EDITS: Dict[str, Tuple[str, str, str]] = {
    "module-constant": (COMPONENT, "STEP = 1", "STEP = 10"),
    "helper-class": (COMPONENT, "self.value * 2", "self.value * 20"),
    "base-class-method": (BASE, "value + 0", "value + 10"),
}


class KeyedTree:
    """The two modules under ``root``, imported by file path."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for module, text in SOURCES.items():
            self._path(module).write_text(text)

    def _path(self, module: str) -> Path:
        return self.root / f"{module}.py"

    def edit(self, module: str, old: str, new: str) -> None:
        """Replace ``old`` by ``new`` in one module's file."""
        path = self._path(module)
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} is not once in {module}"
        path.write_text(text.replace(old, new))

    def load(self) -> type:
        """Import both modules afresh, base first, and return ``Stepper``."""
        self.close()
        for module in (BASE, COMPONENT):
            path = self._path(module)
            linecache.checkcache(str(path))
            loaded = types.ModuleType(module)
            loaded.__file__ = str(path)
            sys.modules[module] = loaded
            exec(compile(path.read_text(), str(path), "exec"),
                 loaded.__dict__)
        return sys.modules[COMPONENT].Stepper

    def close(self) -> None:
        """Forget both modules."""
        for module in (BASE, COMPONENT):
            sys.modules.pop(module, None)


def battery(stepper: type) -> List[CompiledMutant]:
    """Every mutant of ``Stepper.Add``."""
    mutants, _ = generate_mutants(stepper, ["Add"])
    return mutants


def suite() -> TestSuite:
    """Cases that add once, twice and three times."""
    return suite_of("Stepper", [("Add", 1)], [("Add", 2), ("Add", 3)],
                    [("Add", 0), ("Add", 4), ("Add", 5)])

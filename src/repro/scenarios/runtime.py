"""Process-portable identity for generated component classes.

Generated components (:mod:`repro.scenarios.genspec`) live in modules that
are *materialized* — written into a workspace directory and imported by
file path, never installed on ``sys.path``.  That breaks the default
pickling of classes, which ships ``(module, qualname)`` and requires the
receiving process to import the module by name: a pool worker
(:mod:`repro.mutation.parallel`) running mutant batches over a generated
class receives that class pickled, as each mutant's owner and, under
``spawn``, in the job's spec, and a spawned worker begins from a fresh
interpreter without the module, so its plain ``import`` would fail.  (A
forked worker inherits the module, but its tasks still arrive pickled.)
A sweep's scenario task carries recipes only, never a class: its worker
synthesizes and materializes the component itself.

The fix is a metaclass.  Every generated class is an instance of
:class:`GeneratedComponentMeta`, and a reducer for that metaclass is
registered in :data:`copyreg.dispatch_table` — which both the stdlib
picklers and :mod:`multiprocessing`'s ``ForkingPickler`` consult *before*
falling back to by-name class pickling.  The reducer ships
``(module, qualname, source path)``; :func:`load_generated_class` on the
receiving side reuses the module when it is already loaded, and otherwise
imports it straight from the recorded file.  Any process that can import
:mod:`repro` can therefore unpickle a generated class, however it was
started.

Mutant classes built *from* a generated component (``CompiledMutant
.build_class`` copies the owner's namespace and inherits this metaclass)
are never pickled directly — the engines ship the
:class:`~repro.mutation.mutant.Mutant` record with the mutant's compiled
code and rebuild locally — so the reducer only ever sees the materialized
originals.
"""

from __future__ import annotations

import copyreg
import importlib
import importlib.util
import sys
from typing import Tuple


class GeneratedComponentMeta(type):
    """Metaclass marking classes that live in materialized module files."""


def load_generated_class(module_name: str, qualname: str, path: str) -> type:
    """Resolve a generated class, importing its module from ``path`` if needed.

    A forked worker inherits the parent's loaded module and resolves the
    very same class object; a fresh process (spawn, or a worker forked
    before materialization) falls back to a file-path import and registers
    the module under its canonical name so repeated unpickles share it.
    """
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            spec = importlib.util.spec_from_file_location(module_name, path)
            if spec is None or spec.loader is None:
                raise ImportError(
                    f"cannot load generated module {module_name!r} "
                    f"from {path!r}"
                )
            module = importlib.util.module_from_spec(spec)
            sys.modules[module_name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                sys.modules.pop(module_name, None)
                raise
    target = module
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _reduce_generated_class(cls: type) -> Tuple:
    module = sys.modules.get(cls.__module__)
    path = getattr(module, "__file__", "") or ""
    return (load_generated_class, (cls.__module__, cls.__qualname__, path))


# Registered at import time: the unpickle callable above lives in this
# module, so any process that unpickles a generated class imports this
# module first and gets the reducer too — re-pickling works transitively.
copyreg.dispatch_table[GeneratedComponentMeta] = _reduce_generated_class

"""Canonical content encoding and SHA-256 fingerprints.

The incremental mutation-analysis cache (:mod:`repro.mutation.cache`) keys
outcomes by *content*: a cached verdict may be replayed only when every
input that could change it — the mutated source, the test cases, the
oracle, the sandbox budget, the code that runs them — is byte-identical.
That requires a rendering of arbitrary configuration objects that is

* **stable across processes** — no ``id()``, no memory addresses, no
  ``repr`` of function objects;
* **structural** — two separately constructed but equal-valued objects
  (e.g. two ``paper_oracle()`` instances) render identically;
* **source-sensitive for classes** — a class reference embeds
  :func:`code_digest` of its class hierarchy: the source files of the
  top-level package of each of its classes' modules, and of the whole
  ``repro`` tree, which runs and judges it (the executor, the recorder,
  the oracles).  For a shipped component that is the ``repro`` tree
  alone: its own module and every helper it imports too.  Editing any of
  those files invalidates every fingerprint that mentions the class.
  Contents and paths inside a package are hashed, not where the package
  lives, so a copy of the tree elsewhere renders the same.

:func:`canonical` produces that rendering; :func:`sha256_hex` folds the
parts into a hex digest.  Unknown object kinds degrade to their type
identity rather than raising: a coarser fingerprint only costs cache
misses, never correctness.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import inspect
import os
import site
import sys
import weakref
from typing import Any, Iterable, List, Optional, Tuple

#: Nesting bound for :func:`canonical`.  Deep enough for every structure
#: the library fingerprints (suite → case → step → argument is depth ~7);
#: cyclic object graphs bottom out instead of recursing forever.
MAX_CANONICAL_DEPTH = 16


def sha256_hex(*parts: str) -> str:
    """SHA-256 over the parts, each terminated so concatenation is unambiguous."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def canonical(value: Any, _depth: int = 0) -> str:
    """A deterministic, identity-free textual encoding of ``value``."""
    if _depth > MAX_CANONICAL_DEPTH:
        return "<max-depth>"
    if value is None:
        return "none"
    if isinstance(value, bool):
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        return f"str:{value!r}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__qualname__}.{value.name}"
    if isinstance(value, type):
        return _canonical_type(value)
    if isinstance(value, (tuple, list)):
        tag = "tuple" if isinstance(value, tuple) else "list"
        rendered = ",".join(canonical(item, _depth + 1) for item in value)
        return f"{tag}:[{rendered}]"
    if isinstance(value, (set, frozenset)):
        rendered = ",".join(sorted(canonical(item, _depth + 1) for item in value))
        return f"set:{{{rendered}}}"
    if isinstance(value, dict):
        items = sorted(
            (canonical(key, _depth + 1), canonical(item, _depth + 1))
            for key, item in value.items()
        )
        rendered = ",".join(f"{key}={item}" for key, item in items)
        return f"dict:{{{rendered}}}"
    if dataclasses.is_dataclass(value):
        fields = ",".join(
            f"{field.name}={canonical(getattr(value, field.name), _depth + 1)}"
            for field in dataclasses.fields(value)
        )
        return f"data:{type(value).__qualname__}({fields})"
    if inspect.isroutine(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__qualname__)
        return f"callable:{module}.{qualname}"
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return (
            f"object:{type(value).__module__}.{type(value).__qualname__}"
            f"({canonical(state, _depth + 1)})"
        )
    return f"opaque:{type(value).__module__}.{type(value).__qualname__}"


#: The interpreter's ``major.minor``, part of every code digest: mutant
#: text comes from ``ast.unparse`` and the step budget counts line
#: events, and either may change with the interpreter.
INTERPRETER = "python{}.{}".format(*sys.version_info[:2])

#: This module's top-level package, in every non-empty :func:`code_files`.
_OWN = __name__.partition(".")[0]


def code_files(module_names: Iterable[str]) -> List[Tuple[str, str]]:
    """The source files :func:`code_digest` hashes for ``module_names``.

    One ``(label, path)`` per ``.py`` file, in label order, of the
    top-level package of each named module that is loaded, and of this
    module's own package (``repro``, whose engine, executor and oracles
    run and judge whatever the named modules define) whenever any named
    module has a file.  A package contributes every file under its
    directories (``__pycache__`` aside), a top-level plain module its own
    file; the label is the path below the directory that holds it
    (``repro/harness/oracles.py``).  The own package counts wherever it
    is installed; any other package stays out when it lies in the
    standard library or under site-packages, and so does a module that
    has no file.
    """
    tops = {name.partition(".")[0] for name in module_names}
    files = [file for top in tops for file in _package_files(top)]
    if files and _OWN not in tops:
        files.extend(_package_files(_OWN))
    return sorted(files)


def code_digest(module_names: Iterable[str]) -> Optional[str]:
    """Hex SHA-256 of the interpreter's ``major.minor`` and of every file
    of :func:`code_files` (its label and bytes); ``None`` when none of
    them can be read.

    Nothing is memoised here, so a module re-imported after an edit is
    read again; callers memoise per object they key (a class, a sweep).
    """
    digest = hashlib.sha256(INTERPRETER.encode())
    found = False
    for label, path in code_files(module_names):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            continue
        digest.update(f"\x1f{label}\x1f{len(data)}\x1f".encode())
        digest.update(data)
        found = True
    return digest.hexdigest() if found else None


def _package_files(top: str) -> List[Tuple[str, str]]:
    """``(label, path)`` of each source file of the loaded top-level
    module ``top``: every ``.py`` file under a package's directories, or
    a plain module's file; none for a built-in module, and none for a
    library module unless ``top`` is :data:`_OWN`."""
    module = sys.modules.get(top)
    if module is None:
        return []
    foreign = top != _OWN
    roots = list(getattr(module, "__path__", ()))
    if not roots:
        path = getattr(module, "__file__", None)
        if not path or (foreign and _in_library(path)):
            return []
        return [(os.path.basename(path), path)]
    files: List[Tuple[str, str]] = []
    for root in roots:
        if foreign and _in_library(root):
            continue
        base = len(os.path.dirname(os.path.normpath(root))) + 1
        for directory, subdirectories, names in os.walk(root):
            subdirectories[:] = [name for name in subdirectories
                                 if name != "__pycache__"]
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    label = os.path.normpath(path)[base:]
                    files.append((label.replace(os.sep, "/"), path))
    return files


@functools.lru_cache(maxsize=None)
def _library_directories() -> Tuple[str, ...]:
    """The resolved directories of this interpreter's standard library
    (the one that holds :mod:`os`) and of its site-packages."""
    found = [os.path.dirname(os.__file__), *site.getsitepackages(),
             site.getusersitepackages()]
    return tuple(sorted({os.path.realpath(path) for path in found}))


def _in_library(path: str) -> bool:
    """Whether ``path`` lies in the standard library or site-packages."""
    resolved = os.path.realpath(path)
    return any(resolved == directory
               or resolved.startswith(directory + os.sep)
               for directory in _library_directories())


#: Per-class memo for :func:`_canonical_type`.  Cache-key paths
#: canonicalise the same owner class once per mutant — 700+ times per
#: battery.  Weak keys keep dynamically built test classes collectable.
#: There is deliberately no per-file memo: a module re-imported after an
#: edit defines new class objects, whose files are read again.
_TYPE_CANONICAL: "weakref.WeakKeyDictionary[type, str]" = (
    weakref.WeakKeyDictionary()
)


def _canonical_type(cls: type) -> str:
    """Type identity plus the :func:`code_digest` of its class hierarchy.

    The digest covers the top-level packages of the modules that define
    the classes of ``cls.__mro__``, and ``repro``, so every fingerprint
    that references a class moves with any edit that could change its
    behaviour: inherited code, helpers its package holds and the code
    that runs and judges it included.  A class none of whose code has a
    readable file keeps name identity (``#nosource``).
    """
    try:
        return _TYPE_CANONICAL[cls]
    except (KeyError, TypeError):
        pass
    digest = code_digest(klass.__module__ for klass in cls.__mro__)
    rendered = (f"type:{cls.__module__}.{cls.__qualname__}"
                f"#{digest[:16] if digest else 'nosource'}")
    try:
        _TYPE_CANONICAL[cls] = rendered
    except TypeError:
        pass  # a class without weakref support: recompute next time
    return rendered

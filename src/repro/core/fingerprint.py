"""Canonical content encoding and SHA-256 fingerprints.

The incremental mutation-analysis cache (:mod:`repro.mutation.cache`) keys
outcomes by *content*: a cached verdict may be replayed only when every
input that could change it — the mutated source, the test cases, the
oracle, the sandbox budget — is byte-identical.  That requires a rendering
of arbitrary configuration objects that is

* **stable across processes** — no ``id()``, no memory addresses, no
  ``repr`` of function objects;
* **structural** — two separately constructed but equal-valued objects
  (e.g. two ``paper_oracle()`` instances) render identically;
* **source-sensitive for classes** — a class reference embeds a hash of
  the source files of its class hierarchy: the file of the module that
  defines each class of its MRO.  Editing anything in those files — a
  method body, a module constant, a helper class beside the component, a
  base class in another module — invalidates every fingerprint that
  mentions the class.  Contents are hashed, not paths, so a copy of the
  tree elsewhere renders the same.

:func:`canonical` produces that rendering; :func:`sha256_hex` folds the
parts into a hex digest.  Unknown object kinds degrade to their type
identity rather than raising: a coarser fingerprint only costs cache
misses, never correctness.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import sys
import weakref
from typing import Any

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


#: Per-class memo for :func:`_canonical_type`.  Cache-key paths
#: canonicalise the same owner class once per mutant — 700+ times per
#: battery.  Weak keys keep dynamically built test classes collectable.
#: There is deliberately no per-file memo: a module re-imported after an
#: edit defines new class objects, whose files are read again.
_TYPE_CANONICAL: "weakref.WeakKeyDictionary[type, str]" = (
    weakref.WeakKeyDictionary()
)


def _canonical_type(cls: type) -> str:
    """Type identity plus a digest of its class hierarchy's source files.

    The digest hashes the contents of the file of the module that defines
    each class in ``cls.__mro__`` (``builtins`` skipped), found as
    ``inspect.getfile`` finds a class's file: through
    ``sys.modules[klass.__module__].__file__``.  So every fingerprint that
    references a class moves with any edit that could change its
    behaviour, inherited code included.  A class none of whose modules
    has a readable file keeps name identity (``#nosource``).
    """
    try:
        return _TYPE_CANONICAL[cls]
    except (KeyError, TypeError):
        pass
    digest = hashlib.sha256()
    found = False
    modules = set()
    for klass in cls.__mro__:
        name = klass.__module__
        if name == "builtins" or name in modules:
            continue
        modules.add(name)
        path = getattr(sys.modules.get(name), "__file__", None)
        if not path:
            continue
        try:
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
        except OSError:
            continue
        found = True
    rendered = (f"type:{cls.__module__}.{cls.__qualname__}"
                f"#{digest.hexdigest()[:16] if found else 'nosource'}")
    try:
        _TYPE_CANONICAL[cls] = rendered
    except TypeError:
        pass  # a class without weakref support: recompute next time
    return rendered

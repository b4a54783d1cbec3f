"""Mutant records and mutant class construction.

"Each mutant was created as a separate class, and they were individually
compiled, to assure that all faulty classes compiled cleanly" (sec. 4).

A :class:`Mutant` is the immutable record of one injected fault (operator,
method, location, what replaced what, the mutated source).  The companion
:class:`CompiledMutant` additionally carries the mutated method's code and
knows how to **materialise** itself as a separate class:

* :meth:`CompiledMutant.build_class` — a fresh copy of the defining class
  with the mutated method installed (experiment 1's shape);
* :func:`rebuild_subclass` — re-derives a subclass on top of a mutated base
  (experiment 2: faults in ``CObList``, tests through ``CSortableObList``).

The paper compiled each mutant because it then ran it.  A generated
mutant compiles its splice the first time its code is needed: at
:meth:`~CompiledMutant.build_class`, or at the pickle that ships it to a
pool worker.  A mutant that is only counted (Table 1) or whose verdict is
replayed from the store compiles nothing.

Function objects do not pickle, but code objects marshal, the
:class:`Mutant` record is pure data and the owner class is importable, so
a ``CompiledMutant`` pickles by shipping ``(record, owner, marshalled
module code)`` and **running that code on arrival**
(:func:`rebuild_compiled_mutant`).  That is what lets the parallel engine
fan mutants out to worker processes: each worker runs the very code the
parent compiled, the in-process analogue of the paper's "individually
compiled" separate programs.  Re-parsing ``mutated_source`` would not be
exact: ``ast.unparse`` text does not always parse back to the spliced
tree (``-1 .next = after``), and its line data never matches.
"""

from __future__ import annotations

import inspect
import marshal
import warnings
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Dict, Optional, Tuple

from ..core.errors import MutationError
from ..core.parsing import parse_module


@dataclass(frozen=True)
class Mutant:
    """One injected fault, as data."""

    ident: str            # "M0001", …
    operator: str         # Table-1 operator name
    class_name: str
    method_name: str
    variable: str         # the non-interface variable whose use was mutated
    occurrence: int       # which load use of that variable
    line: int             # line within the method source
    replacement: str      # rendered replacement expression
    description: str
    mutated_source: str   # full mutated method source (ast.unparse)

    def title(self) -> str:
        return (
            f"{self.ident} [{self.operator}] {self.class_name}."
            f"{self.method_name}: {self.description}"
        )


class CompiledMutant:
    """A mutant plus its compiled method, able to materialise mutant classes.

    ``code`` is the module code that defines ``function``: the function's
    own code is one of its constants, and the module code is what a pickle
    ships.  Give either the code (and the function, when it exists
    already) or a ``compiler`` that returns the code: it runs the first
    time ``code`` is read, and ``function`` runs the code the first time
    it is read.
    """

    def __init__(self, record: Mutant, owner: type,
                 function: Optional[Callable] = None,
                 code: Optional[CodeType] = None, *,
                 compiler: Optional[Callable[[], CodeType]] = None):
        if (code is None) == (compiler is None):
            raise TypeError(f"{record.ident}: give exactly one of the "
                            "mutant's code and a compiler for it")
        self.record = record
        self.owner = owner
        self._function = function
        self._code = code
        self._compiler = compiler
        self._class_cache: Optional[type] = None

    @property
    def code(self) -> CodeType:
        if self._code is None:
            compiler = self._compiler
            if compiler is None:
                return self._code  # another thread compiled it meanwhile
            # Two threads that read it at once both compile, each through
            # its own context, to the same code.
            self._code = compiler()
            # It holds the replacement's tree, which a battery kept to the
            # end of a run would keep alive.
            self._compiler = None
        return self._code

    @property
    def function(self) -> Callable:
        if self._function is None:
            self._function = define_mutant_function(self.code, self.owner)
        return self._function

    @property
    def ident(self) -> str:
        return self.record.ident

    @property
    def operator(self) -> str:
        return self.record.operator

    @property
    def method_name(self) -> str:
        return self.record.method_name

    def build_class(self) -> type:
        """A separate class: copy of the owner with the mutated method."""
        if self._class_cache is None:
            namespace = dict(self.owner.__dict__)
            namespace[self.record.method_name] = self.function
            namespace.pop("__dict__", None)
            namespace.pop("__weakref__", None)
            mutant_class = type(self.owner.__name__, self.owner.__bases__, namespace)
            mutant_class.__module__ = self.owner.__module__
            self._class_cache = mutant_class
        return self._class_cache

    def __repr__(self) -> str:
        return f"CompiledMutant({self.record.title()})"

    def __reduce__(self):
        # Function objects do not pickle; ship the record, the (importable)
        # owner and the module code, and run that code on the receiving
        # side.  ``marshal`` is specific to the Python version: the pool's
        # workers are forks or spawns of this same interpreter.
        return (rebuild_compiled_mutant,
                (self.record, self.owner, marshal.dumps(self.code)))


def define_mutant_function(code: CodeType, owner: type) -> Callable:
    """Run a mutant's module code and return what its one ``def`` binds.

    The code runs in a copy of the owner's defining-module globals, so
    defaults and imported helpers (contract checks, node classes) resolve
    exactly as they do for the original.  The binding is the def's own
    name, which is not the method's for an alias: ``Increment = Bump`` is
    mutated through the function it names, whose source defines ``Bump``.
    """
    defining_module = inspect.getmodule(owner)
    globals_dict: Dict = dict(vars(defining_module)) if defining_module else {}
    namespace: Dict = {}
    exec(code, globals_dict, namespace)  # noqa: S102 — mutant construction
    if len(namespace) != 1:
        raise MutationError(
            f"mutant code {code.co_filename} binds {sorted(namespace)}, "
            "not one function"
        )
    return namespace.popitem()[1]


def compile_mutant_function(record: Mutant,
                            owner: type) -> Tuple[Callable, CodeType]:
    """Compile a mutant's method from its recorded source: the function
    and the module code that defined it.

    This builds a mutant from hand-written source (test fixtures);
    generated mutants compile their splice of the original's tree.
    """
    try:
        module = parse_module(record.mutated_source)
    except SyntaxError as error:
        raise MutationError(
            f"cannot parse mutated source of {record.ident}: {error}"
        ) from error
    with warnings.catch_warnings():
        # Injected faults like `0 is None` trip SyntaxWarning by design.
        warnings.simplefilter("ignore", SyntaxWarning)
        code = compile(module, filename=f"<mutant {record.ident}>", mode="exec")
    return define_mutant_function(code, owner), code


def rebuild_compiled_mutant(record: Mutant, owner: type,
                            code: bytes) -> CompiledMutant:
    """Reconstruct a :class:`CompiledMutant` from its pickle payload:
    ``code`` is the marshalled module code."""
    return CompiledMutant(record, owner, code=marshal.loads(code))


def rebuild_subclass(subclass: type, original_base: type,
                     mutant_base: type) -> type:
    """Re-derive ``subclass`` with ``original_base`` swapped for the mutant.

    Walks the subclass's bases, substituting the mutated base, and rebuilds
    the class with an identical namespace — the Python analogue of
    re-linking ``CSortableObList`` against a faulty ``CObList``.
    """
    new_bases: Tuple[type, ...] = tuple(
        mutant_base if base is original_base else base
        for base in subclass.__bases__
    )
    if original_base not in subclass.__bases__:
        raise ValueError(
            f"{subclass.__name__} does not directly inherit from "
            f"{original_base.__name__}"
        )
    namespace = dict(subclass.__dict__)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    rebuilt = type(subclass.__name__, new_bases, namespace)
    rebuilt.__module__ = subclass.__module__
    return rebuilt

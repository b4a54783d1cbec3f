"""Generation with a fresh ``MethodContext`` per generator run.

Generation, pruning, triage and the lint read one ``MethodContext`` per
method and thread (``method_context``).  The path that replaced is kept
here, test-only, as the reference: :func:`fresh_contexts` patches a fresh
construction over ``method_context`` in the generator, so each generator
run parses, classifies and templates its methods anew.
:func:`assert_same_generation` requires generation with shared contexts to
give the same mutant records, the same ``GenerationReport`` and every
``co_*`` field of each mutant's module code, line data included, and
:func:`assert_pickle_keeps_code` that a pickle round trip (what a pool
worker receives) keeps every one of those fields.  Tier-1 checks Table 1's
runs, Tables 2 and 3 and one battery per scenario family;
``benchmarks/config_lattice.py`` checks every builtin scenario battery.
"""

from __future__ import annotations

import pickle
import threading
import types
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple
from unittest import mock

from repro.mutation import generate
from repro.mutation.operators import base
from repro.mutation.operators.base import MethodContext


@contextmanager
def fresh_contexts() -> Iterator[None]:
    """Each generator run builds its own contexts, as before sharing."""
    with mock.patch.object(generate, "method_context", MethodContext):
        yield


@contextmanager
def empty_contexts() -> Iterator[None]:
    """Every thread's context map starts empty inside the block."""
    with mock.patch.object(base, "_CONTEXTS", threading.local()):
        yield


def assert_same_constant(new, old, where, skip=frozenset()):
    assert type(new) is type(old), where
    if isinstance(old, types.CodeType):
        assert_same_code(new, old, where, skip)
    elif isinstance(old, tuple):
        assert len(new) == len(old), where
        for index, (item_new, item_old) in enumerate(zip(new, old)):
            assert_same_constant(item_new, item_old, f"{where}[{index}]",
                                 skip)
    elif isinstance(old, frozenset):
        assert new == old, where
        assert sorted(map(repr, new)) == sorted(map(repr, old)), where
    else:
        # repr separates what == conflates: 0.0 and -0.0, nan and nan.
        assert repr(new) == repr(old), where


def assert_same_code(new, old, where="code", skip=frozenset()):
    """Every ``co_*`` field but those in ``skip`` equal; constants
    compared recursively.

    Not ``marshal.dumps``: its FLAG_REF bits follow reference counts, so
    it can tell equal code objects apart.
    """
    for name in dir(old):
        # co_lnotab is derived from co_linetable (and deprecated in 3.12).
        if not name.startswith("co_") or name == "co_lnotab" or name in skip:
            continue
        value_new, value_old = getattr(new, name), getattr(old, name)
        if name == "co_consts":
            assert len(value_new) == len(value_old), f"{where}.co_consts"
            for index, (const_new, const_old) in enumerate(
                    zip(value_new, value_old)):
                assert_same_constant(const_new, const_old,
                                     f"{where}.co_consts[{index}]", skip)
        elif callable(value_old):  # co_lines(), co_positions()
            assert list(value_new()) == list(value_old()), f"{where}.{name}"
        else:
            assert value_new == value_old, f"{where}.{name}"


Generation = Tuple[List, "generate.GenerationReport"]


def assert_same_generation(shared: Generation, fresh: Generation) -> None:
    """Two ``(mutants, report)`` generations agree field for field: the
    records, the report (with its per-method order) and each mutant's
    module code, which holds its function's code."""
    (mutants, report), (reference, reference_report) = shared, fresh
    assert [m.record for m in mutants] == [m.record for m in reference]
    assert report == reference_report
    # dict equality ignores insertion order; compare that too.
    assert (list(report.per_method_operator.items())
            == list(reference_report.per_method_operator.items()))
    for mutant, expected in zip(mutants, reference):
        assert mutant.function.__code__ in mutant.code.co_consts, mutant.ident
        assert_same_code(mutant.code, expected.code, mutant.ident)
        assert_same_code(mutant.function.__code__,
                         expected.function.__code__, mutant.ident)


def assert_pickle_keeps_code(mutants: Sequence) -> None:
    """A pickle round trip gives each mutant its record, its owner and
    code equal in every ``co_*`` field, line data and file name
    included."""
    for mutant, clone in zip(mutants, pickle.loads(pickle.dumps(mutants))):
        assert clone.record == mutant.record
        assert clone.owner is mutant.owner
        assert_same_code(clone.code, mutant.code, mutant.ident)
        assert_same_code(clone.function.__code__, mutant.function.__code__,
                         mutant.ident)

"""The coverage recorder before it kept one line map per code object.

``repro.mutation.coverage.CoverageRecorder`` binds a line tracer to each
CUT code object's own ``line → first call`` map the first time a case
enters the code, and writes each hit into the columns it feeds, looked up
once per pass.  The recorder it replaced is kept here, test-only, as the
reference: one per-case dict probed with an ``(id(code), line)`` tuple on
every line event, and a fold that translates every hit into its column
key when the case ends.  :func:`record_coverage` runs a suite under it,
and :func:`assert_same_recording` requires both recorders to return an
equal ``(SuiteResult, CoverageMatrix)``: the same results, case order,
columns and ``peak``, and the same fingerprint.  Tier-1 runs it on the
experiments' suites, one suite per scenario family and the pruning
subjects; ``benchmarks/config_lattice.py`` on the probe suite, Table 3's
suites and every builtin scenario's suite.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.harness.executor import TestExecutor
from repro.mutation import coverage
from repro.mutation.coverage import ENTRY, NEVER, CoverageMatrix, Column


class CoverageRecorder:
    """The replaced recorder: one ``(id(code), line)`` probe per line event
    in a CUT frame, and a per-hit key translation when the case ends."""

    def __init__(self, cut_class: type):
        self._class_name = cut_class.__name__
        self._code_owners = coverage._code_map(cut_class)
        self._owners = owners = {
            id(code): entries for code, entries in self._code_owners.items()
        }
        self._cases: List[str] = []
        self._columns: Dict[Column, bytearray] = {}
        self._peak: Tuple[int, str, int] = (0, "", 0)
        hits: Dict[Tuple[int, Optional[int]], int] = {}
        call = 0
        inside = False
        steps = 0

        def counted(frame, event, arg):  # noqa: ARG001 — sys.settrace API
            nonlocal steps
            if event == "line":
                steps += 1
            return counted

        def recorded(frame, event, arg):  # noqa: ARG001
            nonlocal steps
            if event == "line":
                if inside:
                    steps += 1
                key = (id(frame.f_code), frame.f_lineno)
                if key not in hits:
                    hits[key] = call
            return recorded

        def hook(frame, event, arg):  # noqa: ARG001 — "call" events only
            code = id(frame.f_code)
            if code in owners:
                key = (code, None)
                if key not in hits:
                    hits[key] = call
                return recorded
            return counted if inside else None

        def guard(function: Callable, *args: Any, **kwargs: Any) -> Any:
            nonlocal inside, steps, call
            steps = 0
            inside = True
            collecting = gc.isenabled()
            gc.disable()
            try:
                return function(*args, **kwargs)
            finally:
                if collecting:
                    gc.enable()
                inside = False
                if steps > self._peak[0]:
                    self._peak = (steps, self._cases[-1], call)
                call += 1

        @contextmanager
        def tracing(case) -> Iterator[None]:
            nonlocal hits, call
            hits = {}
            call = 0
            self._cases.append(case.ident)
            previous = sys.gettrace()
            sys.settrace(hook)
            try:
                yield
            finally:
                sys.settrace(previous)
                self._fold(hits)

        self.guard = guard
        self.tracing = tracing

    def _fold(self, hits: Mapping[Tuple[int, Optional[int]], int]) -> None:
        position = len(self._cases) - 1
        for (code, line), call in hits.items():
            value = min(call, NEVER - 1)
            for name, first_line in self._owners[code]:
                key = (name, ENTRY if line is None else line - first_line + 1)
                column = self._columns.get(key)
                if column is None:
                    column = self._columns[key] = bytearray()
                if len(column) <= position:
                    column.extend(bytes((NEVER,)) * (position + 1
                                                     - len(column)))
                if value < column[position]:
                    column[position] = value

    def matrix(self) -> CoverageMatrix:
        size = len(self._cases)
        return CoverageMatrix(
            class_name=self._class_name,
            case_idents=tuple(self._cases),
            columns={
                key: bytes(column.ljust(size, bytes((NEVER,))))
                for key, column in self._columns.items()
            },
            peak=self._peak,
        )


def record_coverage(cut_class: type, suite):
    """The replaced recorder's pass: ``(SuiteResult, CoverageMatrix)``."""
    recorder = CoverageRecorder(cut_class)
    executor = TestExecutor(cut_class, step_guard=recorder.guard,
                            case_tracer=recorder.tracing)
    return executor.run_suite(suite), recorder.matrix()


def assert_same_recording(cut_class: type, suite,
                          setup: Optional[Callable[[], None]] = None,
                          ) -> CoverageMatrix:
    """Both recorders over ``suite`` return an equal ``(SuiteResult,
    CoverageMatrix)``; ``setup`` runs before each pass.  Returns the
    matrix."""
    if setup is not None:
        setup()
    results, matrix = coverage.record_coverage(cut_class, suite)
    if setup is not None:
        setup()
    expected_results, expected = record_coverage(cut_class, suite)
    assert results == expected_results, "the reference results differ"
    assert matrix.case_idents == expected.case_idents, "the case order differs"
    assert matrix.peak == expected.peak, (
        f"peak {matrix.peak}, reference {expected.peak}")
    assert matrix.columns.keys() == expected.columns.keys(), (
        f"columns {sorted(matrix.columns.keys() ^ expected.columns.keys())} "
        f"are on one side only")
    for key, column in expected.columns.items():
        assert matrix.columns[key] == column, (
            f"column {key}: {matrix.columns[key].hex()}, reference "
            f"{column.hex()}")
    assert matrix == expected
    assert matrix.fingerprint() == expected.fingerprint()
    return matrix

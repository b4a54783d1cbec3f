"""Coverage-guided pruning: where a mutant can first differ from the original.

A mutant differs from the original class in one expression on one line of
one method.  On a test case it therefore runs exactly the original's code,
on the original's state, until the original first runs that line.  The
paper's evaluation (sec. 4) runs every suite case over every mutant anyway;
this module records, once, during the reference run, where that point lies
in each case, so the analysis engines can

* skip every case whose reference never ran the mutated line — the mutant
  replays the reference outcome there, so the replay is synthesized; and
* run the calls before the first call that ran the line without the step
  guard, because up to that call the mutant *is* the original.

Verdicts, kill reasons, killing cases, details and step timeouts are
identical to the exhaustive run; only the executed-case counters and the
time differ.  Mutation tools such as PIT select tests per line the same
way.

Coverage is **dynamic**.  A ``sys.settrace`` hook is installed around each
case through :class:`~repro.harness.executor.TestExecutor`'s
``case_tracer`` seam, and the case's guarded calls (constructor, each step,
each invariant check, teardown and the final-state capture) are numbered
through its ``step_guard`` seam.  The hook maps every frame back to CUT
methods by code object, so indirect intra-class calls count: ``Sort1``
reaching ``IsSorted`` through its postcondition marks ``IsSorted``'s lines,
which static step inspection would miss.  The code map holds everything
that can run a method's source — the function, anything reachable through
``__wrapped__``, and the code objects nested in them (comprehensions,
lambdas, generator expressions) — under *every* method name bound to the
function, so an alias (``Increment = Bump``) is covered whichever name a
case calls.  Lines are keyed relative to the method's first source line,
as :meth:`~repro.mutation.operators.base.MethodContext.rewritten_line`
reports the line a splice rewrites; line :data:`ENTRY` is the method's
entry column, the first call that entered any of its code.

The same hook counts each guarded call's line events in every frame, as
:class:`~repro.mutation.sandbox.StepBudgetGuard` does, and the matrix keeps
the largest count.  An unguarded call or a skipped case cannot time out, so
an analysis whose step budget that count reaches refuses to prune.

The :class:`CoverageMatrix` is pure data: the case order plus one ``bytes``
column per (method, line).  It pickles to parallel workers, and its content
fingerprint feeds the outcome-cache experiment key, so outcomes recorded
under one matrix are never replayed under another.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import CodeType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import MutationError
from ..core.fingerprint import canonical, sha256_hex
from .operators.base import method_context

if TYPE_CHECKING:  # imported lazily to keep coverage <- harness acyclic
    from ..generator.suite import TestSuite
    from ..generator.testcase import TestCase
    from ..harness.outcomes import SuiteResult
    from .mutant import CompiledMutant

#: The line key of a method's entry column.  Source lines count from 1.
ENTRY = 0

#: A column byte meaning "this case's reference never ran the line".
NEVER = 255

#: Call indices above this are stored as it.  The cap errs earlier, so it
#: only guards calls that could have run unguarded.
_LAST_INDEX = NEVER - 1

_NEVER_BYTE = bytes((NEVER,))

#: A column's key: (method name, line relative to the method's first line).
Column = Tuple[str, int]


def _code_map(cut_class: type) -> Dict[CodeType, Tuple[Tuple[str, int], ...]]:
    """Code object → every (method name, first source line) it can run for.

    Walking the MRO matters for experiment 2: the reference run executes
    ``CSortableObList``, but the mutants live in inherited ``CObList``
    methods, whose frames carry the base class's code objects.  Properties
    and static/class methods are unwrapped so their bodies map too.  When
    several classes define the same method name their code maps under the
    one name, so a subclass override running (conservatively) counts for
    the base method too.
    """
    mapping: Dict[CodeType, List[Tuple[str, int]]] = {}
    for klass in cut_class.__mro__:
        if klass is object:
            continue
        for name, attribute in vars(klass).items():
            if isinstance(attribute, property):
                functions = (attribute.fget, attribute.fset, attribute.fdel)
            elif isinstance(attribute, (staticmethod, classmethod)):
                functions = (attribute.__func__,)
            else:
                functions = (attribute,)
            for function in functions:
                codes = _wrapped_codes(function)
                if not codes:
                    continue
                # The innermost function is the one whose source a splice
                # rewrites (``inspect.getsource`` unwraps the same way).
                owner = (name, codes[-1].co_firstlineno)
                for code in codes:
                    for nested in _nested_codes(code):
                        owners = mapping.setdefault(nested, [])
                        if owner not in owners:
                            owners.append(owner)
    return {code: tuple(owners) for code, owners in mapping.items()}


def _wrapped_codes(function: Any) -> List[CodeType]:
    """The code of ``function`` and of everything down its ``__wrapped__``
    chain, outermost first."""
    codes: List[CodeType] = []
    seen = set()
    while function is not None and id(function) not in seen:
        seen.add(id(function))
        code = getattr(function, "__code__", None)
        if isinstance(code, CodeType):
            codes.append(code)
        function = getattr(function, "__wrapped__", None)
    return codes


def _nested_codes(code: CodeType) -> Iterator[CodeType]:
    yield code
    for constant in code.co_consts:
        if isinstance(constant, CodeType):
            yield from _nested_codes(constant)


@dataclass(frozen=True)
class CoverageMatrix:
    """Per test case and per (method, line): the first guarded call whose
    reference run executed that line.

    ``columns`` holds one ``bytes`` column per (method, line) a case ran,
    in ``case_idents`` order; each byte is the index of the first call
    (capped at 254) or :data:`NEVER`.  A line no case ran has no column.
    The matrix errs on the safe side: a case it never recorded reads as
    reaching every line from its first call on, so it is executed, fully
    guarded.

    Invariant checks are guarded calls, numbered with the rest.  ``peak``
    is the most line events one guarded reference call took, with its case
    and call index.
    """

    class_name: str
    case_idents: Tuple[str, ...] = ()
    columns: Mapping[Column, bytes] = field(default_factory=dict)
    peak: Tuple[int, str, int] = (0, "", 0)

    def first_calls(self, case_idents: Sequence[str], method_name: str,
                    line: int = ENTRY) -> bytes:
        """For each case, the index of the first call that ran the line:
        :data:`NEVER` when the case's reference never ran it, ``0`` for a
        case the matrix never recorded."""
        column = self.columns.get((method_name, line))
        positions = {ident: position
                     for position, ident in enumerate(self.case_idents)}
        return bytes(
            0 if position is None
            else NEVER if column is None
            else column[position]
            for position in map(positions.get, case_idents)
        )

    def fingerprint(self) -> str:
        """Content hash — part of the outcome-cache experiment key, so a
        pruned entry can only ever be replayed under the exact matrix that
        justified its skips.

        ``peak`` is left out: it licenses nothing.
        """
        return sha256_hex("coverage-matrix", canonical((
            self.class_name, self.case_idents, self.columns,
        )))

    def __len__(self) -> int:
        return len(self.case_idents)


class CoverageRecorder:
    """Records a :class:`CoverageMatrix` through the executor's two seams.

    Pass :meth:`tracing` as ``TestExecutor(case_tracer=…)`` and
    :meth:`guard` as ``step_guard=…``.  Around each complete case the
    recorder installs one ``sys.settrace`` hook and restores the previous
    trace function afterwards; it leaves the profile hook alone.  The hook
    only observes: the reference results are identical to an untraced run.

    Each CUT code object has a line tracer bound to its own ``line →
    first call`` map.  The ``call`` hook returns it, recording the entry
    the first time a case enters the code, so a line event makes one
    probe keyed by the line number.  When the case ends each (code, line)
    hit is written into its columns in place, and the maps are emptied;
    which columns a (code, line) feeds is worked out once per pass.
    """

    def __init__(self, cut_class: type):
        self._class_name = cut_class.__name__
        # Keyed by ``id`` in the hot path: a code object hashes its whole
        # contents on every probe.  The map keeps the code objects alive.
        self._code_owners = _code_map(cut_class)
        self._owners = owners = {
            id(code): entries for code, entries in self._code_owners.items()
        }
        self._cases: List[str] = []
        self._columns: Dict[Column, bytearray] = {}
        #: code id → line (``None`` for the entry) → the columns it feeds.
        self._targets: Dict[int, Dict[Optional[int],
                                      Tuple[bytearray, ...]]] = {}
        self._peak: Tuple[int, str, int] = (0, "", 0)
        # Per pass: each CUT code's line tracer and its own ``line → first
        # call`` map (line ``None`` for the entry), which the fold empties
        # at the end of every case.  Per case, reset by ``tracing``: the
        # codes entered, in order of first entry, the index of the
        # current (or next) guarded call, whether one is running, and its
        # line events so far.
        traced: Dict[int, Tuple[Callable, Dict[Optional[int], int]]] = {}
        entered: List[Tuple[int, Dict[Optional[int], int]]] = []
        call = 0
        inside = False
        steps = 0

        def counted(frame, event, arg):  # noqa: ARG001 — sys.settrace API
            nonlocal steps
            if event == "line":
                steps += 1
            return counted

        def line_tracer(lines: Dict[Optional[int], int]) -> Callable:
            def recorded(frame, event, arg):  # noqa: ARG001
                # A CUT frame can also run outside any guarded call (a
                # returned object's ``bit_state``, say): its lines then
                # count toward the next call, and toward no call's budget.
                nonlocal steps
                if event == "line":
                    if inside:
                        steps += 1
                    line = frame.f_lineno
                    if line not in lines:
                        lines[line] = call
                return recorded
            return recorded

        for code in owners:
            lines: Dict[Optional[int], int] = {}
            traced[code] = (line_tracer(lines), lines)

        def hook(frame, event, arg):  # noqa: ARG001 — "call" events only
            code = id(frame.f_code)
            entry = traced.get(code)
            if entry is None:
                # Like StepBudgetGuard, count every frame a guarded call
                # enters and none other.
                return counted if inside else None
            tracer, lines = entry
            if None not in lines:  # the code's first entry in this case
                lines[None] = call
                entered.append((code, lines))
            return tracer

        def guard(function: Callable, *args: Any, **kwargs: Any) -> Any:
            nonlocal inside, steps, call
            steps = 0
            inside = True
            # Like StepBudgetGuard, no collection inside the call: its
            # weakref callbacks would add their lines to the peak.
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
        def tracing(case: "TestCase") -> Iterator[None]:
            nonlocal entered, call
            entered = []
            call = 0
            self._cases.append(case.ident)
            previous = sys.gettrace()
            sys.settrace(hook)
            try:
                yield
            finally:
                sys.settrace(previous)
                self._fold(entered)

        self.guard = guard
        self.tracing = tracing

    def _fold(self, entered: List[Tuple[int, Dict[Optional[int], int]]]
              ) -> None:
        position = len(self._cases) - 1
        for code, lines in entered:
            targets = self._targets.get(code)
            if targets is None:
                targets = self._targets[code] = {}
            for line, call in lines.items():
                columns = targets.get(line)
                if columns is None:
                    columns = targets[line] = self._columns_of(code, line)
                value = call if call < _LAST_INDEX else _LAST_INDEX
                for column in columns:
                    if len(column) <= position:
                        column.extend(_NEVER_BYTE * (position + 1
                                                     - len(column)))
                    if value < column[position]:
                        column[position] = value
            lines.clear()

    def _columns_of(self, code: int, line: Optional[int]
                    ) -> Tuple[bytearray, ...]:
        """The columns a hit of ``line`` (``None``: the entry) in the code
        fed: one per (method name, first line) the code runs for."""
        columns = []
        for name, first_line in self._owners[code]:
            key = (name, ENTRY if line is None else line - first_line + 1)
            column = self._columns.get(key)
            if column is None:
                column = self._columns[key] = bytearray()
            columns.append(column)
        return tuple(columns)

    def matrix(self) -> CoverageMatrix:
        size = len(self._cases)
        return CoverageMatrix(
            class_name=self._class_name,
            case_idents=tuple(self._cases),
            columns={
                key: bytes(column.ljust(size, _NEVER_BYTE))
                for key, column in self._columns.items()
            },
            peak=self._peak,
        )


def record_coverage(cut_class: type, suite: "TestSuite",
                    telemetry=None,
                    ) -> Tuple["SuiteResult", CoverageMatrix]:
    """One instrumented pass: the reference results *and* their coverage.

    This is the single extra-cost operation of pruning — the suite runs
    once on the original class under the trace hook, yielding both the
    golden :class:`~repro.harness.outcomes.SuiteResult` the oracles judge
    against and the matrix that licenses every later skip and unguarded
    call.  ``telemetry`` (a :class:`repro.obs.Telemetry`) gives the pass
    per-case timing spans; observation only.
    """
    from ..harness.executor import TestExecutor

    recorder = CoverageRecorder(cut_class)
    executor = TestExecutor(
        cut_class,
        step_guard=recorder.guard,
        case_tracer=recorder.tracing,
        telemetry=telemetry,
    )
    reference = executor.run_suite(suite)
    return reference, recorder.matrix()


def mutated_line(mutant: "CompiledMutant") -> int:
    """The line the mutant's splice rewrote, relative to its method's first
    source line, or :data:`ENTRY` when that node lies outside the body
    (defaults, decorators) or the source cannot be read.

    The line comes from the splice's own slot table (the method's one
    context, which generated the mutant), not from the record's ``line``
    label, which can name another occurrence.
    """
    record = mutant.record
    try:
        context = method_context(mutant.owner, record.method_name)
    except (MutationError, OSError, TypeError):
        return ENTRY
    line = context.rewritten_line(record.variable, record.occurrence)
    return ENTRY if line is None else line

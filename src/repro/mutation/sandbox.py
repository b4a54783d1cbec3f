"""Bounded execution of mutants.

An injected fault can turn a terminating loop into an infinite one (replace
the loop cursor with an attribute that never advances).  The paper ran
mutants as separate programs, where a hang is observed externally; in-process
we bound each guarded call with a **line-event budget**: a ``sys.settrace``
hook counts line events and raises :class:`SandboxTimeout` when the budget
is exhausted.  The budget is deterministic (same run → same count), unlike
wall-clock timeouts, so mutation scores are exactly reproducible.

The guard plugs into :class:`~repro.harness.executor.TestExecutor` via its
``step_guard`` parameter: each constructor call, method call, invariant
check and teardown runs under its own fresh budget.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from ..core.errors import SandboxTimeout

#: Default per-call budget.  The subject methods execute tens-to-hundreds of
#: lines per call on suite-sized inputs; 50k lines is ~3 orders of magnitude
#: of headroom while still cutting an infinite loop within milliseconds.
DEFAULT_STEP_BUDGET = 50_000


class StepBudgetGuard:
    """A step guard enforcing a line-event budget per guarded call.

    The guard builds its tracer once and re-arms it with a full budget at
    the start of every call, so a call costs two ``settrace`` swaps and
    builds no closure.  A guard is not re-entrant: a guarded call must not
    call the same guard again.
    """

    def __init__(self, budget: int = DEFAULT_STEP_BUDGET):
        if budget < 1:
            raise ValueError("step budget must be positive")
        self.budget = budget
        self.timeouts = 0  # how many guarded calls were cut (observability)
        # The tracer runs once per traced event, so it is the hottest code
        # in a mutant run.  Non-"line" events (call/return/exception) bail
        # out first, and the countdown lives in a closure cell rather than
        # on the guard so the common path is one compare + one subtract.
        remaining = limit = budget
        guarded: Any = None

        def tracer(frame, event, arg):  # noqa: ARG001 — sys.settrace API
            nonlocal remaining
            if event != "line":
                return tracer
            remaining -= 1
            if remaining <= 0:
                raise SandboxTimeout(
                    f"step budget of {limit} line events exhausted "
                    f"in {getattr(guarded, '__name__', guarded)!r}"
                )
            return tracer

        def arm(budget: int, function: Callable) -> None:
            nonlocal remaining, limit, guarded
            remaining = limit = budget
            guarded = function

        self._tracer = tracer
        self._arm = arm

    def __call__(self, function: Callable, *args: Any, **kwargs: Any) -> Any:
        self._arm(self.budget, function)
        previous = sys.gettrace()
        # Installed again on every call: CPython drops a trace function
        # that raised, so the tracer is gone after each SandboxTimeout.
        sys.settrace(self._tracer)
        try:
            return function(*args, **kwargs)
        except SandboxTimeout:
            self.timeouts += 1
            raise
        finally:
            sys.settrace(previous)


class CallCountGuard:
    """A guard that only counts calls (used to measure suite cost in tests)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, function: Callable, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        return function(*args, **kwargs)

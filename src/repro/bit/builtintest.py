"""The ``BuiltInTest`` superclass (Figure 4 of the paper).

The paper defines an abstract class ``BuiltInTest`` with two interfaces —
``InvariantTest`` and ``Reporter`` — "created to guarantee a built-in test
interface independent from the target class interface.  The target class
[…] inherits these capabilities, that should be redefined by the user."

The Python rendition is a mixin:

* producers redefine :meth:`class_invariant` to return whether the object's
  state is valid (the predicate of the ``ClassInvariant`` macro);
* :meth:`invariant_test` evaluates it and raises
  :class:`~repro.core.errors.InvariantViolation` on failure — this is what
  generated drivers call before and after every method (Figure 6);
* :meth:`reporter` snapshots the internal state, optionally appending it to
  a log file.

Both BIT methods are guarded by the access control: outside test mode they
raise :class:`~repro.core.errors.TestModeError`, the runtime analogue of the
capabilities not being compiled in.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import InvariantViolation
from . import access
from .access import _STATE
from .reporter import StateReport


class BuiltInTest:
    """Mixin adding the built-in test interface to a component class."""

    def class_invariant(self) -> bool:
        """The invariant predicate; producers redefine this.

        The default accepts every state, so mixing in :class:`BuiltInTest`
        never breaks an uncontracted class.
        """
        return True

    def invariant_test(self) -> None:
        """Check the class invariant; raise :class:`InvariantViolation` if broken.

        Mirrors ``CUT->InvariantTest()`` in generated drivers (Figure 6).
        The harness calls it before and after every step, under the step
        budget, so the global switch is read directly and the per-class
        lookup runs only when that switch is off.
        """
        if not _STATE.global_on:
            access.require_test_mode(type(self), "InvariantTest")
        if not self.class_invariant():
            raise InvariantViolation(subject=type(self).__name__)

    def reporter(self, destination: Optional[str] = None) -> StateReport:
        """Capture the object's internal state (Figure 6's ``Reporter``).

        With ``destination``, the report is also appended to that file, as
        in ``CUT->Reporter("Result.txt")``.
        """
        access.require_test_mode(type(self), "Reporter")
        report = StateReport.capture(self)
        if destination is not None:
            with open(destination, "a", encoding="utf-8") as stream:
                report.write(stream)
        return report

    @classmethod
    def has_builtin_test(cls) -> bool:
        """Marker used by the harness to detect BIT-capable components."""
        return True


def is_self_testable(target: type) -> bool:
    """True when a class carries the built-in test interface.

    Accepts both :class:`BuiltInTest` subclasses and duck-typed classes that
    implement the two BIT methods themselves.
    """
    if isinstance(target, type) and issubclass(target, BuiltInTest):
        return True
    return all(
        callable(getattr(target, name, None))
        for name in ("invariant_test", "reporter", "class_invariant")
    )

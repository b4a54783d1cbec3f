"""Mutation-applicability rule: can the IND operators exercise the spec?

The adequacy criterion of sec. 4 measures a transaction suite by the
interface mutants it kills.  All five Table-1 operators perturb *use sites
of local variables* — so a component whose spec'd methods define no locals
offers the operators zero mutation points, and its suite's mutation score is
vacuously undefined.  This rule flags such components so the producer knows
the criterion cannot grade them.
"""

from __future__ import annotations

from typing import Iterable, List

from ..core.errors import MutationError
from ..mutation.operators import ALL_OPERATORS, method_context
from .findings import Finding, Severity
from .registry import Rule, register
from .unit import ComponentUnit


@register
class MutationApplicability(Rule):
    """No IND operator derives a single mutation point from the interface."""

    id = "CL011"
    name = "mutation-applicability"
    severity = Severity.WARNING
    summary = ("the five IND interface-mutation operators derive zero "
               "mutation points from every spec'd method")

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        examined: List[str] = []
        for method in unit.spec.methods:
            if method.is_destructor:
                continue  # synthetic in Python; nothing to mutate
            info = unit.resolve(method)
            if info is None:
                continue  # CL002 reports missing implementations
            if info.pyname in examined:
                continue  # constructor overloads share one __init__
            examined.append(info.pyname)
            if self._point_count(unit, info.class_name, info.pyname) > 0:
                return
        if not examined:
            return
        shown = ", ".join(examined[:6]) + (", …" if len(examined) > 6 else "")
        yield self.finding(
            unit, unit.class_line,
            f"{unit.class_name}: none of the five IND operators derives a "
            f"mutation point from any spec'd method ({shown}) — the "
            "mutation-adequacy criterion cannot grade this interface",
        )

    @staticmethod
    def _point_count(unit: ComponentUnit, class_name: str,
                     method_name: str) -> int:
        owner = None
        for klass in unit.klass.__mro__:
            if klass.__name__ == class_name and method_name in vars(klass):
                owner = klass
                break
        if owner is None:
            return 0
        try:
            context = method_context(owner, method_name)
        except (MutationError, OSError, TypeError):
            return 0
        return sum(len(operator.points(context)) for operator in ALL_OPERATORS)

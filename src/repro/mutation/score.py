"""Mutation-score tables in the shape of the paper's Tables 2 and 3.

Both tables have the same layout: one row per mutated method with mutant
counts per operator, then four aggregate rows — ``#mutants``, ``#killed``,
``#equivalent`` and ``Score`` — per operator and overall.  The score is
"the ratio between the number of mutants killed and the number of
non-equivalent mutants".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import MutationRun
from .equivalence import EquivalenceReport
from .operators import OPERATOR_NAMES


@dataclass(frozen=True)
class OperatorColumn:
    """Aggregates for one operator (one column of Table 2/3)."""

    operator: str
    generated: int
    killed: int
    equivalent: int
    #: How many of ``equivalent`` were *proven* by the static triage pass
    #: (normalized-AST/bytecode identity) rather than classified by the
    #: dynamic probe or by hand.
    static_equivalent: int = 0

    @property
    def non_equivalent(self) -> int:
        return self.generated - self.equivalent

    @property
    def score(self) -> float:
        """The equivalence-adjusted score — the paper's definition: killed
        over non-equivalent."""
        if self.non_equivalent == 0:
            return 1.0
        return self.killed / self.non_equivalent

    @property
    def raw_score(self) -> float:
        """Killed over *all* generated mutants (no equivalence adjustment)."""
        if self.generated == 0:
            return 1.0
        return self.killed / self.generated


@dataclass(frozen=True)
class ScoreTable:
    """A Table-2/3-shaped mutation score table."""

    class_name: str
    methods: Tuple[str, ...]
    operators: Tuple[str, ...]
    per_method: Dict[Tuple[str, str], int]   # (method, operator) → #mutants
    columns: Tuple[OperatorColumn, ...]
    assertion_kills: int                     # the "59 of 652" datum
    suite_size: int

    # -- aggregates ------------------------------------------------------------

    @property
    def total_generated(self) -> int:
        return sum(column.generated for column in self.columns)

    @property
    def total_killed(self) -> int:
        return sum(column.killed for column in self.columns)

    @property
    def total_equivalent(self) -> int:
        return sum(column.equivalent for column in self.columns)

    @property
    def total_static_equivalent(self) -> int:
        return sum(column.static_equivalent for column in self.columns)

    @property
    def total_score(self) -> float:
        non_equivalent = self.total_generated - self.total_equivalent
        if non_equivalent == 0:
            return 1.0
        return self.total_killed / non_equivalent

    @property
    def total_raw_score(self) -> float:
        if self.total_generated == 0:
            return 1.0
        return self.total_killed / self.total_generated

    def column(self, operator: str) -> OperatorColumn:
        for column in self.columns:
            if column.operator == operator:
                return column
        raise KeyError(f"no column for operator {operator!r}")

    def method_total(self, method: str) -> int:
        return sum(
            count for (m, _op), count in self.per_method.items() if m == method
        )

    # -- rendering ---------------------------------------------------------

    def format(self) -> str:
        """Render in the paper's layout (method rows, aggregate rows)."""
        headers = ["Method"] + list(self.operators) + ["Total"]
        widths = [max(14, len(h) + 1) for h in headers]
        widths[0] = max(widths[0], max((len(m) for m in self.methods), default=6) + 1)

        def row(cells: Sequence[str]) -> str:
            return "".join(str(cell).ljust(width) for cell, width in zip(cells, widths))

        lines: List[str] = [
            f"Mutation results for class {self.class_name} "
            f"(suite of {self.suite_size} test cases)",
            row(headers),
            row(["-" * (w - 1) for w in widths]),
        ]
        for method in self.methods:
            cells = [method]
            for operator in self.operators:
                cells.append(str(self.per_method.get((method, operator), 0)))
            cells.append(str(self.method_total(method)))
            lines.append(row(cells))
        lines.append(row(["-" * (w - 1) for w in widths]))
        lines.append(row(
            ["#mutants"] + [str(c.generated) for c in self.columns]
            + [str(self.total_generated)]
        ))
        lines.append(row(
            ["#killed"] + [str(c.killed) for c in self.columns]
            + [str(self.total_killed)]
        ))
        lines.append(row(
            ["#equivalent"] + [str(c.equivalent) for c in self.columns]
            + [str(self.total_equivalent)]
        ))
        lines.append(row(
            ["Score(raw)"] + [f"{c.raw_score:.1%}" for c in self.columns]
            + [f"{self.total_raw_score:.1%}"]
        ))
        lines.append(row(
            ["Score"] + [f"{c.score:.1%}" for c in self.columns]
            + [f"{self.total_score:.1%}"]
        ))
        lines.append(
            f"kills by assertion violation: {self.assertion_kills} "
            f"of {self.total_killed}"
        )
        if self.total_static_equivalent:
            lines.append(
                f"equivalents proven by static triage: "
                f"{self.total_static_equivalent} of {self.total_equivalent}"
            )
        return "\n".join(lines)


def build_score_table(run: MutationRun,
                      equivalence: Optional[EquivalenceReport] = None,
                      methods: Optional[Sequence[str]] = None,
                      ) -> ScoreTable:
    """Assemble the Table-2/3 view from a run (+ optional equivalence pass).

    A mutant classified equivalent is excluded from the killable pool; if
    the probe *killed* a survivor, it stays non-equivalent (an escape).
    Mutants *proven* equivalent by the static triage pass (their outcome
    carries ``static_status``) count as equivalent whether or not a
    dynamic probe ran; ``Score`` is the equivalence-adjusted ratio and
    ``Score(raw)`` divides by all generated mutants.
    """
    if methods is None:
        ordered: List[str] = []
        for outcome in run.outcomes:
            if outcome.mutant.method_name not in ordered:
                ordered.append(outcome.mutant.method_name)
        methods = ordered

    per_method: Dict[Tuple[str, str], int] = {}
    generated: Dict[str, int] = {operator: 0 for operator in OPERATOR_NAMES}
    killed: Dict[str, int] = {operator: 0 for operator in OPERATOR_NAMES}
    equivalent: Dict[str, int] = {operator: 0 for operator in OPERATOR_NAMES}
    static_equivalent: Dict[str, int] = {
        operator: 0 for operator in OPERATOR_NAMES
    }
    assertion_kills = 0

    for outcome in run.outcomes:
        operator = outcome.mutant.operator
        if operator not in generated:
            continue  # an operator outside the Table 1 columns
        key = (outcome.mutant.method_name, operator)
        per_method[key] = per_method.get(key, 0) + 1
        generated[operator] += 1
        if outcome.killed:
            killed[operator] += 1
            if outcome.reason.value == "assertion":
                assertion_kills += 1
        elif outcome.statically_equivalent:
            equivalent[operator] += 1
            static_equivalent[operator] += 1
        elif equivalence is not None and equivalence.is_equivalent(
            outcome.mutant.ident
        ):
            equivalent[operator] += 1

    columns = tuple(
        OperatorColumn(
            operator=operator,
            generated=generated[operator],
            killed=killed[operator],
            equivalent=equivalent[operator],
            static_equivalent=static_equivalent[operator],
        )
        for operator in OPERATOR_NAMES
    )
    return ScoreTable(
        class_name=run.class_name,
        methods=tuple(methods),
        operators=OPERATOR_NAMES,
        per_method=per_method,
        columns=columns,
        assertion_kills=assertion_kills,
        suite_size=run.suite_size,
    )

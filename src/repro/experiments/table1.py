"""Table 1 — the interface mutation operator battery.

Table 1 of the paper lists the five essential interface mutation operators
and their definitions.  The regenerable artefact here is the demonstration
that each operator, applied to the experiment's subject methods, produces
the documented class of mutants: for every operator we report its
definition, how many mutation points it derives (before and after the
C++-typing gate), and one concrete example mutant.

Nothing executes here.  The paper reports kills in Tables 2 and 3, and so
does this reproduction: ``python -m repro.experiments.table2
--no-equivalence`` runs the typed ``CSortableObList`` pool under the
experiment suite, with the store, pruning, triage and telemetry flags.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from ..mutation.generate import MutantGenerator
from ..mutation.operators import ALL_OPERATORS
from ..mutation.operators.base import MutationOperator
from .config import TABLE2_METHODS, TABLE3_METHODS

#: Operator definitions, verbatim from Table 1.
OPERATOR_DEFINITIONS: Dict[str, str] = {
    "IndVarBitNeg": "Inserts bitwise negation at non-interface variable use",
    "IndVarRepGlob": "Replaces non-interface variable by G(R2)",
    "IndVarRepLoc": "Replaces non-interface variable by L(R2)",
    "IndVarRepExt": "Replaces non-interface variable by E(R2)",
    "IndVarRepReq": "Replaces non-interface variable by RC",
}


@dataclass(frozen=True)
class OperatorDemo:
    """One operator's row in the regenerated Table 1."""

    operator: str
    definition: str
    untyped_mutants: int      # without the compile gate
    typed_mutants: int        # surviving the C++-typing gate
    example: str              # one concrete mutant description

    def format(self) -> str:
        return (
            f"{self.operator:<15} {self.definition}\n"
            f"{'':15} {self.typed_mutants} mutants "
            f"({self.untyped_mutants} before typing gate); "
            f"e.g. {self.example}"
        )


@dataclass(frozen=True)
class Table1Result:
    demos: Tuple[OperatorDemo, ...]

    def format(self) -> str:
        header = "Table 1. Interface mutation operators applied"
        return "\n".join([header] + [demo.format() for demo in self.demos])

    def demo_for(self, operator: str) -> OperatorDemo:
        for demo in self.demos:
            if demo.operator == operator:
                return demo
        raise KeyError(operator)


def _operator_demo(operator: MutationOperator) -> OperatorDemo:
    """One operator's row over both experiments' subject methods."""
    targets = (
        (CSortableObList, TABLE2_METHODS),
        (CObList, TABLE3_METHODS),
    )
    untyped_total = 0
    typed_total = 0
    example: Optional[str] = None
    for target, methods in targets:
        untyped_mutants, _ = MutantGenerator(
            target, operators=(operator,)
        ).generate(methods)
        typed_mutants, _ = MutantGenerator(
            target, operators=(operator,), type_model=OBLIST_TYPE_MODEL
        ).generate(methods)
        untyped_total += len(untyped_mutants)
        typed_total += len(typed_mutants)
        if example is None and typed_mutants:
            first = typed_mutants[0].record
            example = f"{first.class_name}.{first.method_name}: {first.description}"
    return OperatorDemo(
        operator=operator.name,
        definition=OPERATOR_DEFINITIONS[operator.name],
        untyped_mutants=untyped_total,
        typed_mutants=typed_total,
        example=example or "<no mutants>",
    )


def run_table1() -> Table1Result:
    """Regenerate Table 1's five operator rows over the experiments'
    subject methods (mutant generation only)."""
    return Table1Result(
        demos=tuple(_operator_demo(operator) for operator in ALL_OPERATORS)
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.table1``."""
    argparse.ArgumentParser(
        description="Regenerate Table 1 (interface mutation operators)."
    ).parse_args(argv)
    print(run_table1().format())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

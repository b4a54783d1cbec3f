"""Frozen configuration of the paper's experiments (sec. 4).

Everything a bench or example needs to re-run Tables 1–3 lives here, so the
experiment definition exists in exactly one place.  The choices and their
paper rationale:

* **Targets.**  Experiment 1 mutates the five ``CSortableObList`` methods
  of Table 2; experiment 2 mutates the three ``CObList`` methods of
  Table 3.
* **Type gate.**  Mutants are filtered by the C++-typing compatibility
  model (:data:`~repro.components.OBLIST_TYPE_MODEL`) — the paper's
  "compiled cleanly" requirement.  This lands the pool at 709 mutants for
  experiment 1 (paper: 700) and 176 for experiment 2 (paper: 159).
* **Oracle.**  Crash → assertion → selective output (final reported state
  plus access-method return values), matching the paper's partial assertion
  oracle "complemented by manually derived oracles".
* **Suites.**  The consumer-generated transaction-coverage suite for
  experiment 1; the *incremental* subclass suite (sec. 3.4.2) for
  experiment 2 — reused inherited-only transactions are not rerun.
* **Equivalence.**  Experiment 1 excludes probe-identified likely
  equivalents (the paper's manual analysis found 19); experiment 2 reports
  raw scores (the paper's Table 3 lists zero equivalents).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..components import (
    CObList,
    CSortableObList,
    OBLIST_TYPE_MODEL,
)
from ..generator.driver import DriverGenerator
from ..generator.suite import TestSuite
from ..harness.oracles import CompositeOracle, experiment_oracle
from ..history.incremental import IncrementalPlan, plan_subclass_testing
from ..mutation.analysis import ClassBuilder
from ..mutation.mutant import CompiledMutant, rebuild_subclass

#: Experiment 1 (Table 2) mutated methods, in the paper's row order.
#: The paper's rows are Sort1, Sort2, ShellSort, FindMax, FindMin.
TABLE2_METHODS: Tuple[str, ...] = (
    "Sort1", "Sort2", "ShellSort", "FindMax", "FindMin",
)

#: Experiment 2 (Table 3) mutated methods, in the paper's row order.
#: The paper's rows are AddHead, RemoveAt, RemovHead [sic].
TABLE3_METHODS: Tuple[str, ...] = ("AddHead", "RemoveAt", "RemoveHead")

#: Default suite seed; fixed so every rerun reproduces the same tables.
EXPERIMENT_SEED = 20010701


def sortable_suite(seed: int = EXPERIMENT_SEED) -> TestSuite:
    """The consumer-generated suite for ``CSortableObList`` (exp. 1)."""
    return DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()


def oblist_suite(seed: int = EXPERIMENT_SEED) -> TestSuite:
    """The base-class suite for ``CObList`` (the subclass's reuse pool)."""
    return DriverGenerator(CObList.__tspec__, seed=seed).generate()


def truncated_suite(suite: TestSuite, max_cases: Optional[int]) -> TestSuite:
    """``suite`` cut to its first ``max_cases`` cases; ``None`` keeps it all.

    A smoke hook, not a paper configuration.  A count below 1 would slice
    from the end or leave an empty suite that scores 0.0 %, so it is a
    ``ValueError``, as ``--max-cases`` is a usage error on the CLIs.
    """
    if max_cases is None:
        return suite
    if max_cases < 1:
        raise ValueError(f"max_cases must be at least 1, got {max_cases}")
    return replace(suite, cases=suite.cases[:max_cases])


def incremental_plan(seed: int = EXPERIMENT_SEED) -> IncrementalPlan:
    """The sec.-3.4.2 incremental plan for ``CSortableObList``."""
    return plan_subclass_testing(
        CObList.__tspec__,
        CSortableObList.__tspec__,
        oblist_suite(seed),
        seed=seed,
    )


def sortable_oracle() -> CompositeOracle:
    """The experiment oracle, parameterised on the subclass's t-spec."""
    return experiment_oracle(CSortableObList.__tspec__)


def oblist_oracle() -> CompositeOracle:
    """The experiment oracle, parameterised on the base class's t-spec."""
    return experiment_oracle(CObList.__tspec__)


@dataclass(frozen=True)
class SubclassOverMutantBase:
    """Experiment 2's class builder: the subclass re-derived over a mutated
    base, i.e. re-linking ``CSortableObList`` against a faulty ``CObList``.

    A dataclass rather than a closure so the builder pickles: the parallel
    mutation engine ships it to worker processes, which re-derive the
    subclass over each mutant base they rebuild.
    """

    subclass: type
    base: type

    def __call__(self, mutant: CompiledMutant) -> type:
        return rebuild_subclass(self.subclass, self.base, mutant.build_class())


def subclass_over_mutant_base() -> ClassBuilder:
    """The experiment-2 builder bound to the paper's class pair."""
    return SubclassOverMutantBase(CSortableObList, CObList)

"""Test case model: what the Driver Generator produces.

A test case (Figure 6 of the paper) "exercises a path containing sequences
of methods corresponding to the creation, processing and destruction of an
object":

* a **construction step** — which constructor alternative, with which
  argument values;
* zero or more **processing steps** — one method call each, with argument
  values;
* implicit **destruction** — the harness deletes the object at the end
  (Python: drops the last reference and, when the component defines an
  explicit teardown method named by its destructor spec, calls it).

Steps may contain :class:`~repro.generator.values.Hole` placeholders for
structured parameters; a test case with holes is *incomplete* and cannot
execute until :meth:`TestCase.complete` fills them (sec. 3.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..core.errors import IncompleteTestCaseError
from ..core.rng import ReproRandom
from ..tfm.transactions import Transaction
from .values import Hole, is_hole


@dataclass(frozen=True)
class TestStep:
    """One method invocation within a test case."""
    __test__ = False  # library class, not a pytest test


    method_ident: str
    method_name: str
    arguments: Tuple[Any, ...] = ()
    node_ident: str = ""
    is_construction: bool = False
    is_destruction: bool = False

    @property
    def holes(self) -> Tuple[Hole, ...]:
        return tuple(argument for argument in self.arguments if is_hole(argument))

    @property
    def is_complete(self) -> bool:
        return not self.holes

    def format(self) -> str:
        rendered: List[str] = []
        for argument in self.arguments:
            rendered.append(argument.describe() if is_hole(argument) else repr(argument))
        call = f"{self.method_name}({', '.join(rendered)})"
        if self.is_construction:
            return f"new {call}"
        if self.is_destruction:
            return f"delete [{self.method_name}]"
        return call


@dataclass(frozen=True)
class TestCase:
    """A generated test case: one transaction with bound argument values."""
    __test__ = False  # library class, not a pytest test


    ident: str                     # "TC0", "TC1", … (Figure 6 naming)
    transaction: Transaction
    steps: Tuple[TestStep, ...]
    class_name: str
    seed: int = 0                  # per-case RNG salt, for regeneration
    origin: str = "new"            # "new" or "reused" (sec. 3.4.2 provenance)

    def __post_init__(self):
        if not self.steps:
            raise ValueError(f"test case {self.ident} has no steps")
        if not self.steps[0].is_construction:
            raise ValueError(f"test case {self.ident} does not start with construction")
        # The executor asks before every run of the case; the steps are
        # immutable, so the answer is fixed here.  A plain attribute, not a
        # field: equality, repr and the suite fingerprint see fields only.
        object.__setattr__(self, "_complete", not self.holes)

    # -- structure ----------------------------------------------------------

    @property
    def construction(self) -> TestStep:
        return self.steps[0]

    @property
    def processing_steps(self) -> Tuple[TestStep, ...]:
        return tuple(
            step for step in self.steps[1:] if not step.is_destruction
        )

    @property
    def destruction(self) -> Optional[TestStep]:
        last = self.steps[-1]
        return last if last.is_destruction else None

    @property
    def method_names(self) -> Tuple[str, ...]:
        return tuple(step.method_name for step in self.steps)

    def __iter__(self) -> Iterator[TestStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    # -- holes (structured parameters) ---------------------------------------

    @property
    def holes(self) -> Tuple[Tuple[int, Hole], ...]:
        """(step index, hole) pairs still awaiting manual completion."""
        found: List[Tuple[int, Hole]] = []
        for index, step in enumerate(self.steps):
            for hole in step.holes:
                found.append((index, hole))
        return tuple(found)

    @property
    def is_complete(self) -> bool:
        return self._complete

    def require_complete(self) -> None:
        holes = self.holes
        if holes:
            summary = ", ".join(
                f"step {index} {hole.describe()}" for index, hole in holes
            )
            raise IncompleteTestCaseError(
                f"test case {self.ident} has unbound structured parameters: {summary}"
            )

    def complete(self, fill: Callable[[Hole, ReproRandom], Any],
                 rng: Optional[ReproRandom] = None) -> "TestCase":
        """Fill every hole via ``fill(hole, rng)``; returns a new test case."""
        case_rng = rng or ReproRandom(self.seed)
        new_steps: List[TestStep] = []
        for step in self.steps:
            if step.is_complete:
                new_steps.append(step)
                continue
            new_arguments = tuple(
                fill(argument, case_rng) if is_hole(argument) else argument
                for argument in step.arguments
            )
            new_steps.append(replace(step, arguments=new_arguments))
        return replace(self, steps=tuple(new_steps))

    # -- presentation ---------------------------------------------------------

    def format(self) -> str:
        lines = [f"{self.ident} [{self.class_name}] transaction {self.transaction}"]
        for step in self.steps:
            lines.append(f"    {step.format()}")
        return "\n".join(lines)


@dataclass
class TestCaseCounter:
    """Stable TC numbering across generation batches (Figure 6: TestCase0…)."""

    __test__ = False  # library class, not a pytest test

    next_number: int = 0
    prefix: str = "TC"

    def next_ident(self) -> str:
        ident = f"{self.prefix}{self.next_number}"
        self.next_number += 1
        return ident

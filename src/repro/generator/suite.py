"""Test suites: collections of generated test cases.

"The (specific) *driver* is an executable test suite.  Therefore, test cases
can be used in different test suites.  A test suite is considered as
'executable' after being completed with the values of structured parameter
types as well as any global data and stubs" (sec. 3.4.1, Figure 7).

A :class:`TestSuite` is an immutable value: filtering, merging and hole
completion all return new suites, so the incremental-reuse machinery can
derive a subclass suite from a parent suite without aliasing surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.fingerprint import canonical, sha256_hex
from ..core.rng import ReproRandom
from ..tfm.transactions import Transaction
from .testcase import TestCase
from .values import Hole, TypeBinding


@dataclass(frozen=True)
class TestSuite:
    """An ordered collection of test cases for one component class."""

    __test__ = False  # library class, not a pytest test

    class_name: str
    cases: Tuple[TestCase, ...]
    seed: int = 0
    edge_bound: int = 1
    transactions_total: int = 0
    truncated: bool = False

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[TestCase]:
        return iter(self.cases)

    def __getitem__(self, index) -> TestCase:
        return self.cases[index]

    # -- views ------------------------------------------------------------

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """Distinct transactions exercised, in first-appearance order."""
        seen: Set[str] = set()
        ordered: List[Transaction] = []
        for case in self.cases:
            if case.transaction.ident not in seen:
                seen.add(case.transaction.ident)
                ordered.append(case.transaction)
        return tuple(ordered)

    @property
    def new_cases(self) -> Tuple[TestCase, ...]:
        return tuple(case for case in self.cases if case.origin == "new")

    @property
    def reused_cases(self) -> Tuple[TestCase, ...]:
        return tuple(case for case in self.cases if case.origin == "reused")

    @property
    def incomplete_cases(self) -> Tuple[TestCase, ...]:
        return tuple(case for case in self.cases if not case.is_complete)

    @property
    def is_executable(self) -> bool:
        """Executable once every structured parameter is completed (Fig. 7)."""
        return not self.incomplete_cases

    def cases_for_transaction(self, transaction: Transaction) -> Tuple[TestCase, ...]:
        return tuple(
            case for case in self.cases
            if case.transaction.ident == transaction.ident
        )

    # -- derivation ---------------------------------------------------------

    def filtered(self, keep: Callable[[TestCase], bool]) -> "TestSuite":
        return replace(self, cases=tuple(case for case in self.cases if keep(case)))

    def without_transactions(self, idents: Sequence[str]) -> "TestSuite":
        dropped = set(idents)
        return self.filtered(lambda case: case.transaction.ident not in dropped)

    def only_transactions(self, idents: Sequence[str]) -> "TestSuite":
        kept = set(idents)
        return self.filtered(lambda case: case.transaction.ident in kept)

    def merged_with(self, other: "TestSuite") -> "TestSuite":
        """Concatenate suites (used to join reused + new subclass cases).

        Case idents must not collide; the merged suite keeps this suite's
        metadata and flags truncation when either side was truncated.
        """
        mine = {case.ident for case in self.cases}
        collisions = [case.ident for case in other.cases if case.ident in mine]
        if collisions:
            raise ValueError(
                f"cannot merge suites: duplicate test case idents {collisions[:5]}"
            )
        return replace(
            self,
            cases=self.cases + other.cases,
            transactions_total=max(self.transactions_total, other.transactions_total),
            truncated=self.truncated or other.truncated,
        )

    def marked_reused(self) -> "TestSuite":
        """All cases re-tagged as reused (parent cases adopted by a subclass)."""
        return replace(
            self,
            cases=tuple(replace(case, origin="reused") for case in self.cases),
        )

    def renumbered(self, prefix: str) -> "TestSuite":
        """Re-ident cases with a new prefix (avoids merge collisions)."""
        renamed = tuple(
            replace(case, ident=f"{prefix}{number}")
            for number, case in enumerate(self.cases)
        )
        return replace(self, cases=renamed)

    def completed(self, bindings: TypeBinding,
                  rng: Optional[ReproRandom] = None) -> "TestSuite":
        """Fill structured holes using tester-provided factories.

        This is the "completing the executable test suite" step of
        Figure 7: every hole whose class name has a bound factory is filled;
        a hole without a factory is left in place (the suite stays
        non-executable and says so).
        """
        base_rng = rng or ReproRandom(self.seed)

        def fill(hole: Hole, case_rng: ReproRandom):
            factory = bindings.factory_for(hole.class_name)
            if factory is None:
                return hole
            return factory(case_rng)

        completed_cases = tuple(
            case if case.is_complete else case.complete(fill, base_rng.fork(index))
            for index, case in enumerate(self.cases)
        )
        return replace(self, cases=completed_cases)

    # -- identity -------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 content hash of the suite, stable across processes.

        Derived purely from the suite's *value* — class name, seed, bounds,
        and every case's transaction, steps and argument values (via
        :func:`repro.core.fingerprint.canonical`, which never encodes
        object identity or wall-clock).  Two suites generated from the same
        spec and seed therefore share a fingerprint, and a suite that
        round-trips pickling keeps its fingerprint — the property the
        mutation outcome cache keys on.

        The hash is stored on the instance the first time it is asked for,
        outside the fields: equality and :func:`canonical` ignore it, a
        pickle carries it, and a suite :func:`dataclasses.replace` derives
        hashes afresh.
        """
        try:
            return self.__dict__["_fingerprint"]
        except KeyError:
            fingerprint = sha256_hex("testsuite", canonical(self))
            object.__setattr__(self, "_fingerprint", fingerprint)
            return fingerprint

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "cases": len(self.cases),
            "new": len(self.new_cases),
            "reused": len(self.reused_cases),
            "incomplete": len(self.incomplete_cases),
            "transactions": len(self.transactions),
        }

    def summary(self) -> str:
        counts = self.stats()
        note = " [TRUNCATED ENUMERATION]" if self.truncated else ""
        return (
            f"suite for {self.class_name}: {counts['cases']} test cases "
            f"({counts['new']} new, {counts['reused']} reused) over "
            f"{counts['transactions']} transactions; "
            f"{counts['incomplete']} incomplete{note}"
        )

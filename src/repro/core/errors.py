"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause.  Contract
violations (the paper's assertion exceptions, Figure 5) form their own branch
because test drivers treat them specially: a contract violation raised while
running a test case is a *detected fault*, not an infrastructure failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Specification errors (t-spec construction, parsing, validation)
# ---------------------------------------------------------------------------


class SpecError(ReproError):
    """Base class for test-specification (t-spec) errors."""


class SpecParseError(SpecError):
    """The textual t-spec could not be parsed.

    Carries the line/column of the offending token when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SpecValidationError(SpecError):
    """The t-spec parsed but is internally inconsistent.

    Examples: a node references an undeclared method, a method declares three
    parameters but only two ``Parameter`` records exist, an edge names an
    unknown node.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        summary = "; ".join(self.problems) if self.problems else "unknown problem"
        super().__init__(f"invalid t-spec: {summary}")


class DomainError(SpecError):
    """A value domain was declared or used inconsistently."""


# ---------------------------------------------------------------------------
# Transaction flow model errors
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for transaction-flow-model errors."""


class NoTransactionError(ModelError):
    """The TFM admits no complete transaction (no birth-to-death path)."""


# ---------------------------------------------------------------------------
# Contract (built-in test assertion) violations — Figure 5 analogues
# ---------------------------------------------------------------------------


class ContractViolation(ReproError):
    """Base class for contract assertion violations.

    Equivalent to the exception thrown by Concat's assertion macros.  The
    :attr:`subject` records which class/method raised, for the driver log.
    """

    kind = "contract"

    def __init__(self, message: str = "", subject: str = ""):
        self.subject = subject
        # Default texts mirror Figure 5: "Pre-condition is violated!" etc.
        detail = message or f"{self.kind.capitalize()} is violated!"
        if subject:
            detail = f"{detail} [in {subject}]"
        super().__init__(detail)


class InvariantViolation(ContractViolation):
    """The class invariant does not hold (``ClassInvariant`` macro)."""

    kind = "invariant"


class PreconditionViolation(ContractViolation):
    """A method precondition does not hold (``PreCondition`` macro)."""

    kind = "pre-condition"


class PostconditionViolation(ContractViolation):
    """A method postcondition does not hold (``PostCondition`` macro)."""

    kind = "post-condition"


# ---------------------------------------------------------------------------
# Built-in test infrastructure errors
# ---------------------------------------------------------------------------


class BitError(ReproError):
    """Base class for built-in-test infrastructure misuse."""


class TestModeError(BitError):
    """A BIT capability was accessed while the component is not in test mode.

    This is the runtime analogue of omitting the compiler directive in the
    paper: BIT services simply are not available outside test mode.
    """

    __test__ = False  # name starts with "Test"; keep pytest from collecting it


class InstrumentationError(BitError):
    """A class could not be instrumented with BIT capabilities."""


# ---------------------------------------------------------------------------
# Driver generation / execution errors
# ---------------------------------------------------------------------------


class GenerationError(ReproError):
    """Test-case generation failed (e.g. a parameter domain is missing)."""


class IncompleteTestCaseError(GenerationError):
    """A generated test case still has unbound structured parameters.

    The paper requires structured-type parameters (objects, arrays, pointers)
    to be completed manually by the tester; executing a test case with holes
    raises this error instead of silently passing ``None``.
    """


class ExecutionError(ReproError):
    """The test harness itself failed (not the component under test)."""


# ---------------------------------------------------------------------------
# Mutation analysis errors
# ---------------------------------------------------------------------------


class MutationError(ReproError):
    """Base class for mutation-analysis errors."""


class MutantCompileError(MutationError):
    """A generated mutant does not compile; it must be discarded.

    The paper compiled each mutant class individually "to assure that all
    faulty classes compiled cleanly"; we do the same and raise on failure so
    the generator can drop the mutant.
    """


class SandboxTimeout(MutationError):
    """A mutant exceeded its execution step budget (assumed infinite loop)."""


# ---------------------------------------------------------------------------
# Scenario corpus errors
# ---------------------------------------------------------------------------


class ScenarioError(ReproError):
    """A scenario registry or sweep configuration is invalid.

    Raised with *every* problem found (one per line), not just the first —
    a corpus of hundreds of declarative entries is fixed in one pass or
    not at all.
    """

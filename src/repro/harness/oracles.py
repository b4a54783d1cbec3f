"""Oracles: deciding whether a run revealed a fault.

The paper uses the component's contract assertions as a *partial* oracle and
complements them with manually derived (here: recorded golden) output checks
(sec. 2.2, 3.3).  The mutation experiment's kill rule (sec. 4) is the
composite of three detectors:

  (i)  the program crashed while running the test cases;
  (ii) an exception was raised due to assertion violation, *given that this
       was not the case with the original program*;
  (iii) the output of the program differs from the output of the original.

Each detector is an :class:`Oracle` that compares an *observed*
:class:`TestResult` against the corresponding *reference* result from the
original program (``None`` for absolute oracles that need no reference).
The composite reports the first detector that fires, in the paper's order,
as the :class:`KillReason`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .outcomes import TestResult, Verdict


class KillReason(enum.Enum):
    """Why a run was judged different/faulty (paper sec. 4 kill rule).

    The last two members are rule (i) observed at the *process* boundary:
    the paper ran every mutant as a separate program, where "the program
    crashed" covers the process dying or never terminating.  The parallel
    engine (:mod:`repro.mutation.parallel`) reproduces that view — a mutant
    that takes its worker process down, or hangs past the wall-clock
    backstop, is killed with its own distinct reason so the in-process
    detectors stay exactly comparable to the serial engine.
    """

    NONE = "none"
    CRASH = "crash"                    # rule (i)
    ASSERTION = "assertion"            # rule (ii)
    OUTPUT_DIFFERENCE = "output_diff"  # rule (iii)
    WORKER_CRASH = "worker_crash"      # rule (i): the worker process died
    WALL_TIMEOUT = "wall_timeout"      # rule (i): hung past the backstop


@dataclass(frozen=True)
class OracleJudgement:
    """One oracle's opinion about one (observed, reference) pair."""

    reason: KillReason
    detail: str = ""

    @property
    def detected(self) -> bool:
        return self.reason is not KillReason.NONE


#: The one "no kill" judgement the built-in oracles return: a judgement is
#: frozen, so sharing it is safe, and a case that kills nothing allocates
#: no judgement.
NO_KILL = OracleJudgement(KillReason.NONE)


class Oracle:
    """Base oracle interface."""

    name = "oracle"

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        """Judge ``observed`` against ``reference`` (``None`` when the
        original has no result for the case).

        A judgement must be a function of the two results' values, as
        ``==`` compares them: not of their identity, nor of what the
        oracle judged before.  The mutation analysis relies on it: it
        judges a case whose observed result equals its reference once, as
        ``judge(reference, reference)``, and gives that judgement to every
        mutant that reproduces the reference
        (:meth:`~repro.mutation.analysis.MutationAnalysis.analyze_single`).
        """
        raise NotImplementedError


class CrashOracle(Oracle):
    """Rule (i): the run crashed (and the original run did not)."""

    name = "crash"

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        crashed = observed.verdict in (Verdict.CRASH, Verdict.TIMEOUT)
        reference_crashed = reference is not None and reference.verdict in (
            Verdict.CRASH, Verdict.TIMEOUT,
        )
        if crashed and not reference_crashed:
            return OracleJudgement(KillReason.CRASH, observed.detail)
        return NO_KILL


class AssertionOracle(Oracle):
    """Rule (ii): an assertion fired that did not fire on the original."""

    name = "assertion"

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        violated = observed.verdict is Verdict.CONTRACT_VIOLATION
        reference_violated = (
            reference is not None
            and reference.verdict is Verdict.CONTRACT_VIOLATION
        )
        if violated and not reference_violated:
            return OracleJudgement(KillReason.ASSERTION, observed.detail)
        return NO_KILL


class GoldenOutputOracle(Oracle):
    """Rule (iii): the observed output differs from the reference output.

    "these outputs were validated by hand before experiments began" — the
    reference observation plays that validated-output role.
    """

    name = "golden_output"

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        if reference is None:
            return NO_KILL
        if observed.observation == reference.observation:
            return NO_KILL
        differences = observed.observation.differs_from(reference.observation)
        detail = "; ".join(differences) if differences else "observations differ"
        return OracleJudgement(KillReason.OUTPUT_DIFFERENCE, detail)


class LogOutputOracle(Oracle):
    """Rule (iii) at the paper's observation level: the *driver log*.

    The generated driver's output (Figure 6) contains the per-case OK/
    violation lines and the Reporter's final state dump — not the return
    value of every intermediate call.  This oracle therefore compares only
    the final reported state, making it strictly weaker than
    :class:`GoldenOutputOracle`; the difference between the two is the
    "oracle strength" ablation of DESIGN.md.
    """

    name = "log_output"

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        if reference is None:
            return NO_KILL
        mine = observed.observation.final_state
        theirs = reference.observation.final_state
        if mine is None and theirs is None:
            return NO_KILL
        if (mine is None) != (theirs is None):
            return OracleJudgement(
                KillReason.OUTPUT_DIFFERENCE, "one run reported no final state"
            )
        differing = mine.differs_from(theirs)
        if differing:
            detail = "final state differs: " + ", ".join(differing[:5])
            return OracleJudgement(KillReason.OUTPUT_DIFFERENCE, detail)
        return NO_KILL


class SelectiveOutputOracle(Oracle):
    """Rule (iii) with tester-realistic observation: selected methods only.

    The paper complements assertions with "manually derived oracles"
    (sec. 3.3) — in practice a tester writes expected values for the
    *observer* methods (``GetHead``, ``FindMax``, …), not for the counter
    that ``Sort1`` happens to return.  This oracle compares the final
    reported state plus the return values of an explicit set of observed
    methods; everything else a method returns goes unchecked.
    """

    name = "selective_output"

    # The memo tables live in slots, outside the instance ``__dict__``: the
    # oracle's canonical rendering (part of the outcome-cache fingerprint)
    # and its pickled form (what a spawned pool worker receives) stay its
    # configuration alone, however much it has judged.
    __slots__ = ("_visible", "_references")

    def __init__(self, observed_methods):
        self.observed = frozenset(observed_methods)
        self._final_state = LogOutputOracle()
        self._reset_memos()

    def _reset_memos(self) -> None:
        #: step method name -> whether it is observed.
        self._visible: Dict[str, bool] = {}
        #: case ident -> (reference result, its visible steps).  One entry
        #: per case: a new reference for the same ident replaces it.
        self._references: Dict[str, Tuple[TestResult, tuple]] = {}

    def __getstate__(self):
        return self.__dict__

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._reset_memos()

    @staticmethod
    def _method_of(step) -> str:
        # Exception steps record "Name(args…)"; strip the argument list.
        return step.method_name.split("(")[0]

    def _visible_steps(self, result: TestResult):
        visible = self._visible
        steps = []
        for step in result.observation.steps:
            shown = visible.get(step.method_name)
            if shown is None:
                shown = self._method_of(step) in self.observed
                visible[step.method_name] = shown
            if shown:
                steps.append(step)
        return tuple(steps)

    def _reference_steps(self, reference: TestResult):
        cached = self._references.get(reference.case_ident)
        if cached is None or cached[0] is not reference:
            cached = (reference, self._visible_steps(reference))
            self._references[reference.case_ident] = cached
        return cached[1]

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        if reference is None:
            return NO_KILL
        mine = self._visible_steps(observed)
        theirs = self._reference_steps(reference)
        if mine != theirs:
            for index, (a, b) in enumerate(zip(mine, theirs)):
                if a != b:
                    return OracleJudgement(
                        KillReason.OUTPUT_DIFFERENCE,
                        f"observed step {index}: {a.format()} vs {b.format()}",
                    )
            return OracleJudgement(
                KillReason.OUTPUT_DIFFERENCE,
                f"observed step count {len(mine)} vs {len(theirs)}",
            )
        return self._final_state.judge(observed, reference)


class CompositeOracle(Oracle):
    """Ordered combination; the first detector that fires wins.

    Default order is the paper's (i)-(ii)-(iii).  Ablations pass a subset
    (e.g. assertions only) to measure each detector's contribution.
    """

    name = "composite"

    def __init__(self, oracles: Optional[Sequence[Oracle]] = None):
        self.oracles: Tuple[Oracle, ...] = tuple(
            oracles if oracles is not None
            else (CrashOracle(), AssertionOracle(), LogOutputOracle())
        )

    def judge(self, observed: TestResult,
              reference: Optional[TestResult]) -> OracleJudgement:
        for oracle in self.oracles:
            judgement = oracle.judge(observed, reference)
            if judgement.detected:
                return judgement
        return NO_KILL


def paper_oracle() -> CompositeOracle:
    """The sec.-4 kill rule: crash, then assertion, then output difference.

    Output is observed at full strength (every return value + the reported
    final state): the paper complements its partial assertion oracle with
    "manually derived oracles" (sec. 3.3), which is what hand-validated
    expected outputs per call amount to.
    """
    return CompositeOracle((CrashOracle(), AssertionOracle(),
                            GoldenOutputOracle()))


def log_level_oracle() -> CompositeOracle:
    """Weaker oracle: only what the driver log shows (final state dumps).

    The oracle-strength ablation compares this against :func:`paper_oracle`.
    """
    return CompositeOracle()


def experiment_oracle(spec) -> CompositeOracle:
    """The oracle configuration of the sec.-4 experiments.

    Crash, then assertion, then output at tester-realistic strength: final
    reported state plus the return values of the component's *access*
    methods per its t-spec (the "manually derived oracles in complement").
    """
    from ..tspec.model import MethodCategory

    observed = {
        method.name for method in spec.methods
        if method.category is MethodCategory.ACCESS
    }
    return CompositeOracle((
        CrashOracle(),
        AssertionOracle(),
        SelectiveOutputOracle(observed),
    ))


def assertions_only_oracle() -> CompositeOracle:
    """Ablation oracle: contract assertions alone (partial oracle claim)."""
    return CompositeOracle((AssertionOracle(),))


def output_only_oracle() -> CompositeOracle:
    """Ablation oracle: log output alone (no contract knowledge)."""
    return CompositeOracle((CrashOracle(), LogOutputOracle()))

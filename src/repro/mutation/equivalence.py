"""Equivalent-mutant approximation.

"The determination of equivalent mutants is a non-decidable problem, so
they were obtained manually, by analyzing the mutants that were alive after
the tests" (sec. 4).  We approximate that manual analysis with a
**differential deep probe**: every survivor of the main run is re-executed
under one stronger suite (its own seed, a higher loop bound, boundary
values mixed in).  A survivor the probe also cannot distinguish from the
original is classified *likely equivalent*; one the probe kills is a
genuine test-escape of the main suite.  Two more suites at other seeds
killed no further survivor of Table 2 at any of its 12 golden seeds, so
the probe runs one.

A manual-override list is honoured both ways, mirroring the paper's hand
analysis: idents forced equivalent, and idents forced non-equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.errors import MutationError
from ..generator.driver import DriverGenerator
from ..harness.oracles import KillReason
from ..tspec.model import ClassSpec
from .analysis import MutationAnalysis
from .mutant import CompiledMutant
from .triage import StaticTriage, TriageStatus

#: The probe suite's seed, its loop bound (the main suites use 1) and the
#: share of argument values drawn from the domain boundaries.
PROBE_SEED = 101
PROBE_EDGE_BOUND = 2
PROBE_BOUNDARY_PROBABILITY = 0.3


@dataclass(frozen=True)
class EquivalenceReport:
    """Classification of the main run's survivors."""

    likely_equivalent: Tuple[str, ...]   # mutant idents
    escaped: Tuple[str, ...]             # killed only by the probe
    probe_kill_reasons: Dict[str, KillReason]
    probe_suite_size: int                # 0 when nothing needed probing

    @property
    def equivalent_count(self) -> int:
        return len(self.likely_equivalent)

    def is_equivalent(self, ident: str) -> bool:
        return ident in self.likely_equivalent

    def summary(self) -> str:
        return (
            f"{self.equivalent_count} likely-equivalent mutants, "
            f"{len(self.escaped)} escaped the main suite "
            f"(probe suite: {self.probe_suite_size} cases)"
        )


def probe_equivalence(original_class: type,
                      spec: ClassSpec,
                      survivors: Sequence[CompiledMutant],
                      extra_variants: int = 2,
                      max_transactions: int = 2000,
                      manual_equivalent: Sequence[str] = (),
                      manual_not_equivalent: Sequence[str] = (),
                      triage: Optional[StaticTriage] = None,
                      ) -> EquivalenceReport:
    """Deep-probe the survivors and classify them.

    The probe suite intentionally exceeds the main suite: a higher edge
    bound (:data:`PROBE_EDGE_BOUND`) exercises loops twice, boundary mixing
    (:data:`PROBE_BOUNDARY_PROBABILITY`) hits domain extremes, and its own
    seed (:data:`PROBE_SEED`) varies the data.  It is generated only when
    some survivor needs probing.

    Manual-override idents must name actual survivors, each in one list
    only: an unknown ident (most likely a typo that would otherwise vanish
    silently into the report) or one named in both lists is a
    configuration error and raises
    :class:`~repro.core.errors.MutationError`.

    ``triage`` feeds the static pass's proofs into the dynamic probe:
    survivors *proven* equivalent (AST/bytecode identity) are classified
    likely-equivalent without a single probe execution, and a survivor
    whose bytecode matches an earlier survivor's (``REDUNDANT``) inherits
    its representative's probe classification instead of being probed
    itself — the probe only ever executes statically-undecided survivors.
    """
    known_idents = {mutant.ident for mutant in survivors}
    forced_equivalent = set(manual_equivalent)
    forced_not = set(manual_not_equivalent)
    unknown = (forced_equivalent | forced_not) - known_idents
    if unknown:
        raise MutationError(
            f"manual equivalence override names unknown mutant ident(s): "
            f"{', '.join(sorted(unknown))} (not in the survivor set)"
        )
    conflicting = forced_equivalent & forced_not
    if conflicting:
        raise MutationError(
            f"manual equivalence override names mutant ident(s) both "
            f"equivalent and not equivalent: {', '.join(sorted(conflicting))}"
        )

    #: ident -> its executed stand-in, for survivors the static pass
    #: grouped as redundant (classification propagated after the probe).
    propagated: Dict[str, str] = {}
    if triage is not None:
        for mutant in survivors:
            if triage.is_equivalent(mutant.ident):
                # Proven equivalent: no probe could ever kill it.
                forced_equivalent.add(mutant.ident)
            elif (triage.status_of(mutant.ident) is TriageStatus.REDUNDANT
                  and triage.representative_of(mutant.ident) in known_idents):
                propagated[mutant.ident] = triage.representative_of(
                    mutant.ident
                )
        # A manual not-equivalent override still wins (it mirrors the
        # paper's hand analysis), exactly as it does over the probe.
        forced_equivalent -= forced_not

    pending = [
        mutant for mutant in survivors
        if mutant.ident not in forced_equivalent
        and mutant.ident not in propagated
    ]
    kill_reasons: Dict[str, KillReason] = {}
    probe_suite_size = 0
    if pending:
        probe_suite = DriverGenerator(
            spec,
            seed=PROBE_SEED,
            edge_bound=PROBE_EDGE_BOUND,
            boundary_probability=PROBE_BOUNDARY_PROBABILITY,
            extra_variants=extra_variants,
            max_transactions=max_transactions,
        ).generate()
        probe_suite_size = len(probe_suite)
        # No static triage.  Triage never changes a verdict, and with
        # ``triage`` given the pending survivors already exclude every
        # proven-equivalent or redundant mutant, so a pass finds nothing.
        run = MutationAnalysis(
            original_class,
            probe_suite,
            static_triage=False,
        ).analyze(pending)
        for outcome in run.outcomes:
            if outcome.killed:
                kill_reasons[outcome.mutant.ident] = outcome.reason

    # Redundant survivors inherit their representative's classification:
    # identical normalized bytecode means identical behaviour under the
    # probe suite, so running them would only reproduce the result.
    for ident, representative in propagated.items():
        if representative in kill_reasons:
            kill_reasons[ident] = kill_reasons[representative]

    still_alive = known_idents - set(kill_reasons)
    likely_equivalent = sorted((still_alive | forced_equivalent) - forced_not)
    escaped = sorted((set(kill_reasons) | forced_not) - forced_equivalent)
    return EquivalenceReport(
        likely_equivalent=tuple(likely_equivalent),
        escaped=tuple(escaped),
        probe_kill_reasons=kill_reasons,
        probe_suite_size=probe_suite_size,
    )

"""Equivalent-mutant approximation.

"The determination of equivalent mutants is a non-decidable problem, so
they were obtained manually, by analyzing the mutants that were alive after
the tests" (sec. 4).  We approximate that manual analysis with a
**differential deep probe**: every survivor of the main run is re-executed
under several stronger suites (fresh seeds, a higher loop bound, boundary
values mixed in).  A survivor the probe also cannot distinguish from the
original is classified *likely equivalent*; one the probe kills is a
genuine test-escape of the main suite.

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

#: Probe seeds: several independent suites to reduce sampling luck.
DEFAULT_PROBE_SEEDS = (101, 202, 303)

#: The probe suites' loop bound (the main suites use 1) and the share of
#: argument values drawn from the domain boundaries.
PROBE_EDGE_BOUND = 2
PROBE_BOUNDARY_PROBABILITY = 0.3


@dataclass(frozen=True)
class EquivalenceReport:
    """Classification of the main run's survivors."""

    likely_equivalent: Tuple[str, ...]   # mutant idents
    escaped: Tuple[str, ...]             # killed only by the probe
    probe_kill_reasons: Dict[str, KillReason]
    probe_suite_sizes: Tuple[int, ...]

    @property
    def equivalent_count(self) -> int:
        return len(self.likely_equivalent)

    def is_equivalent(self, ident: str) -> bool:
        return ident in self.likely_equivalent

    def summary(self) -> str:
        return (
            f"{self.equivalent_count} likely-equivalent mutants, "
            f"{len(self.escaped)} escaped the main suite "
            f"(probe suites: {', '.join(map(str, self.probe_suite_sizes))} cases)"
        )


def probe_equivalence(original_class: type,
                      spec: ClassSpec,
                      survivors: Sequence[CompiledMutant],
                      seeds: Sequence[int] = DEFAULT_PROBE_SEEDS,
                      extra_variants: int = 2,
                      max_transactions: int = 2000,
                      manual_equivalent: Sequence[str] = (),
                      manual_not_equivalent: Sequence[str] = (),
                      triage: Optional[StaticTriage] = None,
                      ) -> EquivalenceReport:
    """Deep-probe the survivors and classify them.

    The probe suites intentionally exceed the main suite: a higher edge
    bound (:data:`PROBE_EDGE_BOUND`) exercises loops twice, boundary mixing
    (:data:`PROBE_BOUNDARY_PROBABILITY`) hits domain extremes, and multiple
    seeds vary the data.

    Manual-override idents must name actual survivors: an unknown ident is
    a configuration error (most likely a typo that would otherwise vanish
    silently into the report) and raises
    :class:`~repro.core.errors.MutationError`.

    ``triage`` feeds the static pass's proofs into the dynamic probe:
    survivors *proven* equivalent (AST/bytecode identity) are classified
    likely-equivalent without a single probe execution, and a survivor
    whose bytecode matches an earlier survivor's (``REDUNDANT``) inherits
    its representative's probe classification instead of being probed
    itself — the probe only ever executes statically-undecided survivors.
    """
    known_idents = {mutant.ident for mutant in survivors}
    unknown = (set(manual_equivalent) | set(manual_not_equivalent)) - known_idents
    if unknown:
        raise MutationError(
            f"manual equivalence override names unknown mutant ident(s): "
            f"{', '.join(sorted(unknown))} (not in the survivor set)"
        )
    forced_equivalent = set(manual_equivalent)
    forced_not = set(manual_not_equivalent)

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

    still_alive: Dict[str, CompiledMutant] = {
        mutant.ident: mutant for mutant in survivors
    }
    kill_reasons: Dict[str, KillReason] = {}
    suite_sizes = []

    for seed in seeds:
        if not still_alive:
            break
        pending = [
            mutant for ident, mutant in still_alive.items()
            if ident not in forced_equivalent and ident not in propagated
        ]
        if not pending:
            break
        probe_suite = DriverGenerator(
            spec,
            seed=seed,
            edge_bound=PROBE_EDGE_BOUND,
            boundary_probability=PROBE_BOUNDARY_PROBABILITY,
            extra_variants=extra_variants,
            max_transactions=max_transactions,
        ).generate()
        suite_sizes.append(len(probe_suite))
        # No static triage per round.  Triage never changes a verdict, and
        # with ``triage`` given the pending survivors already exclude every
        # proven-equivalent or redundant mutant, so a pass finds nothing.
        analysis = MutationAnalysis(
            original_class,
            probe_suite,
            static_triage=False,
        )
        run = analysis.analyze(pending)
        for outcome in run.outcomes:
            if outcome.killed:
                kill_reasons[outcome.mutant.ident] = outcome.reason
                still_alive.pop(outcome.mutant.ident, None)

    # Redundant survivors inherit their representative's classification:
    # identical normalized bytecode means identical behaviour under every
    # probe suite, so running them would only reproduce the result.
    for ident, representative in propagated.items():
        if representative in kill_reasons:
            kill_reasons[ident] = kill_reasons[representative]
            still_alive.pop(ident, None)

    likely_equivalent = sorted(
        (set(still_alive) | forced_equivalent) - forced_not
    )
    escaped = sorted(
        (set(kill_reasons) | forced_not) - forced_equivalent
    )
    return EquivalenceReport(
        likely_equivalent=tuple(likely_equivalent),
        escaped=tuple(escaped),
        probe_kill_reasons=kill_reasons,
        probe_suite_sizes=tuple(suite_sizes),
    )

"""The paper's experiments, frozen and re-runnable.

One module per regenerated artefact: :mod:`table1` (operators),
:mod:`table2` (experiment 1), :mod:`table3` (experiment 2),
:mod:`figures` (Figures 1–7), :mod:`ablations` (design-decision studies),
with the shared configuration in :mod:`config`.

The table modules are ``python -m`` entry points, so the package does not
import them (runpy warns about a module imported before it runs); import
``run_table1`` and friends from the submodules.
"""

from .ablations import (
    CoverageAblationResult,
    EdgeBoundRow,
    OracleAblationResult,
    OverheadResult,
    coverage_ablation,
    edge_bound_ablation,
    oracle_ablation,
    test_mode_overhead,
)
from .config import (
    EXPERIMENT_SEED,
    SubclassOverMutantBase,
    TABLE2_METHODS,
    TABLE3_METHODS,
    incremental_plan,
    oblist_oracle,
    oblist_suite,
    sortable_oracle,
    sortable_suite,
    subclass_over_mutant_base,
)
from .figures import (
    Figure2Result,
    Figure45Result,
    Figure67Result,
    figure1_product_interface,
    figure2_product_tfm,
    figure3_tspec_roundtrip,
    figure45_bit_demo,
    figure67_generated_driver,
    provider_binding,
)

__all__ = [
    "CoverageAblationResult",
    "EXPERIMENT_SEED",
    "EdgeBoundRow",
    "Figure2Result",
    "Figure45Result",
    "Figure67Result",
    "OracleAblationResult",
    "OverheadResult",
    "SubclassOverMutantBase",
    "TABLE2_METHODS",
    "TABLE3_METHODS",
    "coverage_ablation",
    "edge_bound_ablation",
    "figure1_product_interface",
    "figure2_product_tfm",
    "figure3_tspec_roundtrip",
    "figure45_bit_demo",
    "figure67_generated_driver",
    "incremental_plan",
    "oblist_oracle",
    "oblist_suite",
    "oracle_ablation",
    "provider_binding",
    "sortable_oracle",
    "sortable_suite",
    "subclass_over_mutant_base",
    "test_mode_overhead",
]

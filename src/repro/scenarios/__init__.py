"""The scenario corpus: registry, seeded component generator, sweep runner.

This package scales the paper's two-subject evaluation to hundreds of
(component, suite, operator) scenarios:

* :mod:`repro.scenarios.registry` — declarative per-scenario configs with
  a content fingerprint, filtering and stable ``k/n`` sharding;
* :mod:`repro.scenarios.genspec` / :mod:`~repro.scenarios.families` —
  seeded synthesis of whole families of self-testable components (bounded
  stack, FIFO queue, key–value map, ring buffer, counter state machine),
  each with BIT methods, contracts and a reference-model shadow oracle;
* :mod:`repro.scenarios.materialize` / :mod:`~repro.scenarios.runtime` —
  content-addressed module files plus the pickling support that lets
  pool workers execute generated classes;
* :mod:`repro.scenarios.sweep` — the runner that drives every scenario
  through the existing serial mutation engine, in this process or in a
  pool worker that rebuilds it from its recipe, and aggregates one
  deterministic report;
* :mod:`repro.scenarios.cli` — ``python -m repro.scenarios``
  (``list`` / ``validate`` / ``run`` / ``report``).
"""

from .families import FAMILIES, FAMILY_NAMES, FamilyBlueprint
from .genspec import GeneratedComponent, GeneratorSpec, synthesize
from .materialize import default_workspace, materialize, write_module
from .registry import (
    ORACLE_NAMES,
    BudgetConfig,
    ComponentSelector,
    ScenarioConfig,
    ScenarioRegistry,
    SuiteConfig,
    builtin_registry,
    default_methods,
    load_registry,
    parse_shard,
    registry_from_mappings,
    scenario_to_mapping,
)
from .runtime import GeneratedComponentMeta, load_generated_class
from .sweep import (
    ScenarioResult,
    SweepReport,
    SweepRunner,
    merge_reports,
    report_from_mapping,
    resolve_oracle,
)
from .taxonomy import ALL_TAGS, FAULT_CLASSES, validate_tags

__all__ = [
    "ALL_TAGS",
    "BudgetConfig",
    "ComponentSelector",
    "FAMILIES",
    "FAMILY_NAMES",
    "FAULT_CLASSES",
    "FamilyBlueprint",
    "GeneratedComponent",
    "GeneratedComponentMeta",
    "GeneratorSpec",
    "ORACLE_NAMES",
    "ScenarioConfig",
    "ScenarioRegistry",
    "ScenarioResult",
    "SuiteConfig",
    "SweepReport",
    "SweepRunner",
    "builtin_registry",
    "default_methods",
    "default_workspace",
    "load_generated_class",
    "load_registry",
    "materialize",
    "merge_reports",
    "parse_shard",
    "registry_from_mappings",
    "report_from_mapping",
    "resolve_oracle",
    "scenario_to_mapping",
    "synthesize",
    "validate_tags",
    "write_module",
]

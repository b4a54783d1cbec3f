"""The scenario registry: declarative (component, suite, operator) configs.

A :class:`ScenarioConfig` names everything one mutation-analysis scenario
needs — the component (a catalog *ref* or a generator recipe), the suite
parameters, the operator subset, the oracle, execution budgets, and the
expected fault-class tags — as pure data.  A :class:`ScenarioRegistry` is
an ordered collection of them with a content fingerprint
(:mod:`repro.core.fingerprint`), filtering, and stable ``k/n`` sharding.

Registries come from three sources, all landing in the same types:

* :func:`builtin_registry` — the shipped corpus: every generated family ×
  seed × operator (the ``smoke``/``ci`` groups), the paper's two subjects,
  and one entry per discovered catalog component (the ``components``
  group, pinned by test to cover :func:`repro.components
  .discover_components` exactly);
* :func:`load_registry` — per-scenario JSON config files in a directory
  (the CrashRepair ``benchmark/configurations`` layout);
* :func:`registry_from_mappings` — parsed mappings, for tests and tools.

Validation is collected, not fail-fast: :meth:`ScenarioRegistry.validate`
returns every problem, and the loaders raise a single
:class:`~repro.core.errors.ScenarioError` listing all of them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from ..core.errors import ScenarioError
from ..core.fingerprint import canonical, sha256_hex
from ..mutation.operators import OPERATOR_NAMES
from ..mutation.sandbox import DEFAULT_STEP_BUDGET
from ..tspec.model import ClassSpec, MethodCategory
from .families import FAMILIES, FAMILY_NAMES
from .taxonomy import validate_tags

#: Oracle configurations a scenario may name (resolved in
#: :mod:`repro.scenarios.sweep`).
ORACLE_NAMES: Tuple[str, ...] = (
    "experiment", "paper", "assertions", "output", "log",
)

#: Default suite seed — the paper's experiment seed, so registry entries
#: that don't say otherwise reproduce across machines.
DEFAULT_SUITE_SEED = 20010701

_IDENT_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")


@dataclass(frozen=True)
class ComponentSelector:
    """Which component a scenario runs: a catalog ref XOR a generator recipe."""

    ref: str = ""
    family: str = ""
    seed: int = 0

    @property
    def is_generated(self) -> bool:
        return bool(self.family)

    def describe(self) -> str:
        if self.is_generated:
            return f"{self.family}(seed={self.seed})"
        return self.ref


@dataclass(frozen=True)
class SuiteConfig:
    """Driver-generator parameters for the scenario's suite."""

    seed: int = DEFAULT_SUITE_SEED
    edge_bound: int = 1
    max_transactions: int = 64
    max_cases: int = 0  # 0 = no truncation


@dataclass(frozen=True)
class BudgetConfig:
    """Execution budgets bounding one scenario's cost."""

    step_budget: int = DEFAULT_STEP_BUDGET
    max_mutants: int = 0  # 0 = unbounded battery


@dataclass(frozen=True)
class ScenarioConfig:
    """One declarative scenario."""

    ident: str
    component: ComponentSelector
    suite: SuiteConfig = field(default_factory=SuiteConfig)
    operators: Tuple[str, ...] = OPERATOR_NAMES
    methods: Tuple[str, ...] = ()  # () = the spec's update+process methods
    oracle: str = "experiment"
    budgets: BudgetConfig = field(default_factory=BudgetConfig)
    tags: Tuple[str, ...] = ()
    groups: Tuple[str, ...] = ()

    def fingerprint(self) -> str:
        """Content identity of this scenario (identity-free, cross-process)."""
        return sha256_hex("scenario", canonical(self))

    def matches(self, expression: str) -> bool:
        """Filter semantics: comma-separated terms, all must match.

        A term matches when it equals a group, a tag, the generator
        family, or the component ref — or is a substring of the ident.
        """
        for term in _filter_terms(expression):
            if not (term in self.groups
                    or term in self.tags
                    or term == self.component.family
                    or term == self.component.ref
                    or term in self.ident):
                return False
        return True

    def problems(self) -> List[str]:
        """Everything wrong with this entry (empty = valid)."""
        prefix = f"scenario {self.ident!r}: "
        found: List[str] = []
        if not _IDENT_PATTERN.match(self.ident):
            found.append(
                f"scenario ident {self.ident!r} must match "
                f"{_IDENT_PATTERN.pattern}"
            )
        selector = self.component
        if bool(selector.ref) == bool(selector.family):
            found.append(prefix + "component needs exactly one of "
                                  "'ref' or 'family'")
        if selector.family and selector.family not in FAMILIES:
            found.append(
                prefix + f"unknown family {selector.family!r} "
                         f"(known: {', '.join(FAMILY_NAMES)})"
            )
        if selector.seed < 0:
            found.append(prefix + "generator seed must be non-negative")
        if selector.ref:
            from ..components import discover_components

            catalog = discover_components()
            if selector.ref not in catalog:
                found.append(
                    prefix + f"unknown component ref {selector.ref!r} "
                             f"(known: {', '.join(sorted(catalog))})"
                )
            elif self.methods:
                spec: ClassSpec = catalog[selector.ref].__tspec__
                declared = {method.name for method in spec.methods}
                for name in self.methods:
                    if name not in declared:
                        found.append(
                            prefix + f"method {name!r} is not declared by "
                                     f"{selector.ref}'s t-spec"
                        )
        if self.suite.seed < 0:
            found.append(prefix + "suite seed must be non-negative")
        if self.suite.edge_bound < 1:
            found.append(prefix + "suite edge_bound must be >= 1")
        if self.suite.max_transactions < 1:
            found.append(prefix + "suite max_transactions must be >= 1")
        if self.suite.max_cases < 0:
            found.append(prefix + "suite max_cases must be >= 0")
        if not self.operators:
            found.append(prefix + "operator set must not be empty")
        unknown_ops = sorted(set(self.operators) - set(OPERATOR_NAMES))
        if unknown_ops:
            found.append(
                prefix + f"unknown operator(s) {', '.join(unknown_ops)}"
            )
        if len(set(self.operators)) != len(self.operators):
            found.append(prefix + "duplicate operators")
        if self.oracle not in ORACLE_NAMES:
            found.append(
                prefix + f"unknown oracle {self.oracle!r} "
                         f"(known: {', '.join(ORACLE_NAMES)})"
            )
        if self.budgets.step_budget < 1:
            found.append(prefix + "step_budget must be >= 1")
        if self.budgets.max_mutants < 0:
            found.append(prefix + "max_mutants must be >= 0")
        found.extend(prefix + problem for problem in validate_tags(self.tags))
        return found


def default_methods(spec: ClassSpec) -> Tuple[str, ...]:
    """The methods a scenario mutates when it doesn't name any: the spec's
    update and process methods, in declaration order (the state-changing
    surface — what the paper's experiments target)."""
    seen: List[str] = []
    for method in spec.methods:
        if (method.category in (MethodCategory.UPDATE, MethodCategory.PROCESS)
                and method.name not in seen):
            seen.append(method.name)
    return tuple(seen)


def _filter_terms(expression: str) -> Tuple[str, ...]:
    return tuple(term.strip() for term in expression.split(",") if term.strip())


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``k/n`` (1-based shard k of n); raises ScenarioError."""
    match = re.match(r"^(\d+)/(\d+)$", text.strip())
    if not match:
        raise ScenarioError(f"shard must look like k/n, got {text!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 1 <= index <= count:
        raise ScenarioError(f"shard {text!r} out of range (need 1 <= k <= n)")
    return index, count


@dataclass(frozen=True)
class ScenarioRegistry:
    """An ordered, fingerprintable collection of scenarios."""

    scenarios: Tuple[ScenarioConfig, ...]

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def get(self, ident: str) -> ScenarioConfig:
        for scenario in self.scenarios:
            if scenario.ident == ident:
                return scenario
        raise KeyError(ident)

    def fingerprint(self) -> str:
        return sha256_hex("scenario-registry", canonical(self.scenarios))

    def filtered(self, expression: str = "") -> "ScenarioRegistry":
        if not _filter_terms(expression):
            return self
        return ScenarioRegistry(tuple(
            scenario for scenario in self.scenarios
            if scenario.matches(expression)
        ))

    def shard(self, index: int, count: int) -> "ScenarioRegistry":
        """Shard ``index`` of ``count`` (1-based).

        Assignment hashes each scenario's own content fingerprint, so it
        is stable across invocations and machines, disjoint between
        shards, and exhaustive over them — adding or removing *other*
        scenarios never moves a scenario between shards.
        """
        if count < 1 or not 1 <= index <= count:
            raise ScenarioError(
                f"shard {index}/{count} out of range (need 1 <= k <= n)"
            )
        return ScenarioRegistry(tuple(
            scenario for scenario in self.scenarios
            if int(scenario.fingerprint()[:16], 16) % count == index - 1
        ))

    def validate(self) -> List[str]:
        """All problems across all entries, plus cross-entry checks."""
        found: List[str] = []
        seen: Dict[str, int] = {}
        for scenario in self.scenarios:
            found.extend(scenario.problems())
            seen[scenario.ident] = seen.get(scenario.ident, 0) + 1
        for ident, count in sorted(seen.items()):
            if count > 1:
                found.append(f"duplicate scenario ident {ident!r} "
                             f"({count} entries)")
        return found


# ---------------------------------------------------------------------------
# loading from mappings / JSON files
# ---------------------------------------------------------------------------

def _coerce(mapping: Mapping[str, Any], origin: str) -> ScenarioConfig:
    allowed = {item.name for item in fields(ScenarioConfig)}
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(
            f"{origin}: unknown key(s) {', '.join(unknown)}"
        )
    if "ident" not in mapping or "component" not in mapping:
        raise ScenarioError(f"{origin}: 'ident' and 'component' are required")

    def sub(cls, key):
        raw = mapping.get(key, {})
        if not isinstance(raw, Mapping):
            raise ScenarioError(f"{origin}: {key!r} must be a mapping")
        names = {item.name for item in fields(cls)}
        extra = sorted(set(raw) - names)
        if extra:
            raise ScenarioError(
                f"{origin}: unknown {key} key(s) {', '.join(extra)}"
            )
        return cls(**raw)

    return ScenarioConfig(
        ident=str(mapping["ident"]),
        component=sub(ComponentSelector, "component"),
        suite=sub(SuiteConfig, "suite"),
        operators=tuple(mapping.get("operators", OPERATOR_NAMES)),
        methods=tuple(mapping.get("methods", ())),
        oracle=str(mapping.get("oracle", "experiment")),
        budgets=sub(BudgetConfig, "budgets"),
        tags=tuple(mapping.get("tags", ())),
        groups=tuple(mapping.get("groups", ())),
    )


def registry_from_mappings(entries: Sequence[Mapping[str, Any]],
                           origin: str = "<mappings>") -> ScenarioRegistry:
    """Build and fully validate a registry from parsed mappings."""
    scenarios: List[ScenarioConfig] = []
    problems: List[str] = []
    for position, entry in enumerate(entries):
        where = f"{origin}[{position}]"
        try:
            scenarios.append(_coerce(entry, where))
        except (ScenarioError, TypeError, ValueError) as error:
            problems.append(str(error))
    registry = ScenarioRegistry(tuple(scenarios))
    problems.extend(registry.validate())
    if problems:
        raise ScenarioError(
            "invalid scenario registry:\n  " + "\n  ".join(problems)
        )
    return registry


def load_registry(path: Union[str, Path]) -> ScenarioRegistry:
    """Load a registry from a ``*.json`` file or a directory of them.

    Each file holds one scenario mapping or a list of them; files are read
    in sorted name order so the registry — and its fingerprint — is
    independent of filesystem enumeration order.
    """
    root = Path(path)
    if root.is_dir():
        files = sorted(root.glob("*.json"))
        if not files:
            raise ScenarioError(f"no *.json scenario files under {root}")
    elif root.is_file():
        files = [root]
    else:
        raise ScenarioError(f"no such registry path: {root}")
    entries: List[Mapping[str, Any]] = []
    origins: List[str] = []
    for file in files:
        try:
            payload = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ScenarioError(f"{file}: unreadable scenario file: {error}")
        batch = payload if isinstance(payload, list) else [payload]
        for item in batch:
            if not isinstance(item, Mapping):
                raise ScenarioError(f"{file}: scenario entries must be objects")
            entries.append(item)
            origins.append(str(file))
    # registry_from_mappings reports positions; fold file names in.
    try:
        return registry_from_mappings(entries, origin="registry")
    except ScenarioError as error:
        raise ScenarioError(
            str(error) + "\n  (files: " + ", ".join(
                dict.fromkeys(origins)) + ")"
        ) from None


def scenario_to_mapping(scenario: ScenarioConfig) -> Dict[str, Any]:
    """The JSON-ready mapping a scenario round-trips through."""
    return {
        "ident": scenario.ident,
        "component": (
            {"family": scenario.component.family,
             "seed": scenario.component.seed}
            if scenario.component.is_generated
            else {"ref": scenario.component.ref}
        ),
        "suite": {
            "seed": scenario.suite.seed,
            "edge_bound": scenario.suite.edge_bound,
            "max_transactions": scenario.suite.max_transactions,
            "max_cases": scenario.suite.max_cases,
        },
        "operators": list(scenario.operators),
        "methods": list(scenario.methods),
        "oracle": scenario.oracle,
        "budgets": {
            "step_budget": scenario.budgets.step_budget,
            "max_mutants": scenario.budgets.max_mutants,
        },
        "tags": list(scenario.tags),
        "groups": list(scenario.groups),
    }


# ---------------------------------------------------------------------------
# the builtin corpus
# ---------------------------------------------------------------------------

#: Generator seeds of the smoke corpus (4 per family — the acceptance
#: floor for `run --filter smoke` is 5 families × 4 seeds + 2 paper
#: subjects ≥ 100 scenarios with the 5-operator split below).
SMOKE_SEEDS: Tuple[int, ...] = (11, 23, 37, 41)

#: The (family-seed, operator) subset that additionally lands in the CI
#: group: 5 families × 2 seeds × 4 operators = 40 scenarios.
CI_SEEDS: Tuple[int, ...] = (11, 23)
CI_OPERATORS: Tuple[str, ...] = OPERATOR_NAMES[:4]


def builtin_registry() -> ScenarioRegistry:
    """The shipped corpus.  Deterministic construction; its fingerprint is
    pinned only by content, so tests may assert stability across calls."""
    scenarios: List[ScenarioConfig] = []
    for family in FAMILY_NAMES:
        blueprint = FAMILIES[family]
        for seed in SMOKE_SEEDS:
            for operator in OPERATOR_NAMES:
                groups = ["smoke"]
                if seed in CI_SEEDS and operator in CI_OPERATORS:
                    groups.append("ci")
                scenarios.append(ScenarioConfig(
                    ident=f"{family}-s{seed}-{operator.lower()}",
                    component=ComponentSelector(family=family, seed=seed),
                    suite=SuiteConfig(),
                    operators=(operator,),
                    budgets=BudgetConfig(max_mutants=48),
                    tags=blueprint.default_tags,
                    groups=tuple(groups),
                ))
    scenarios.append(ScenarioConfig(
        ident="paper-sortable-oblist",
        component=ComponentSelector(ref="CSortableObList"),
        suite=SuiteConfig(max_transactions=200, max_cases=10),
        methods=("Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"),
        budgets=BudgetConfig(max_mutants=60),
        tags=("interface-value", "ordering", "state-corruption"),
        groups=("smoke", "paper"),
    ))
    scenarios.append(ScenarioConfig(
        ident="paper-oblist",
        component=ComponentSelector(ref="CObList"),
        suite=SuiteConfig(max_transactions=200, max_cases=10),
        methods=("AddHead", "RemoveAt", "RemoveHead"),
        budgets=BudgetConfig(max_mutants=60),
        tags=("boundary", "state-corruption"),
        groups=("smoke", "paper"),
    ))
    # One entry per remaining catalog component, so the builtin corpus
    # covers the discovered component set exactly (pinned by test).
    scenarios.append(ScenarioConfig(
        ident="component-bankaccount",
        component=ComponentSelector(ref="BankAccount"),
        tags=("boundary", "state-drop"),
        groups=("components",),
    ))
    scenarios.append(ScenarioConfig(
        ident="component-boundedstack",
        component=ComponentSelector(ref="BoundedStack"),
        tags=("boundary", "ordering"),
        groups=("components",),
    ))
    scenarios.append(ScenarioConfig(
        ident="component-product",
        component=ComponentSelector(ref="Product"),
        tags=("interface-value", "state-drop"),
        groups=("components",),
    ))
    scenarios.append(ScenarioConfig(
        ident="component-provider",
        component=ComponentSelector(ref="Provider"),
        tags=("lifecycle",),
        groups=("components",),
    ))
    return ScenarioRegistry(tuple(scenarios))

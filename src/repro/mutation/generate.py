"""Mutant generation pipeline.

For each target method of a class, apply every operator of the registry to
every applicable mutation point, render the mutated source, and number and
record every mutant that is new (sec. 4).  Duplicates — distinct points
that produce textually identical method sources, or the original method's
own source — are dropped, and every drop is counted in the
:class:`GenerationReport` (never silent).  Sources that differ only after
normalization are left to the static triage pass
(:mod:`repro.mutation.triage`).

Generation compiles nothing, except in a method that declares a name
``global`` or ``nonlocal``: only there can a replacement fail to compile,
so each of its mutants compiles at once, and a failure is counted and
dropped as the paper's "compiled cleanly" gate drops it.  Every other
mutant compiles its splice the first time its code is needed
(:class:`~repro.mutation.mutant.CompiledMutant`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import MutationError
from ..obs import Telemetry, coalesce
from .mutant import CompiledMutant, Mutant
from .operators import ALL_OPERATORS
from .operators.base import (
    MethodContext,
    MutationOperator,
    MutationPoint,
    compile_splice,
    method_context,
    render_expr,
)
from .typemodel import (
    TypeModel,
    compatible,
    expression_tag,
    infer_local_types,
    negatable,
)


@dataclass
class GenerationReport:
    """Accounting of one generation run."""

    class_name: str
    methods: Tuple[str, ...]
    generated: int = 0
    compile_failures: int = 0
    duplicates: int = 0
    type_incompatible: int = 0  # rejected by the C++-typing gate
    per_method_operator: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def count(self, method: str, operator: str) -> None:
        key = (method, operator)
        self.per_method_operator[key] = self.per_method_operator.get(key, 0) + 1
        self.generated += 1

    def summary(self) -> str:
        return (
            f"{self.class_name}: {self.generated} mutants over "
            f"{len(self.methods)} methods "
            f"({self.compile_failures} compile failures, "
            f"{self.duplicates} duplicates dropped, "
            f"{self.type_incompatible} type-incompatible rejected)"
        )


class MutantGenerator:
    """Generates the mutants of chosen methods of one class.

    With a :class:`~repro.mutation.typemodel.TypeModel`, replacements that
    would not have compiled under C++ typing are rejected — reproducing the
    paper's compile gate.  Without one, generation is unrestricted.
    """

    def __init__(self, target: type,
                 operators: Sequence[MutationOperator] = ALL_OPERATORS,
                 ident_prefix: str = "M",
                 type_model: Optional[TypeModel] = None,
                 telemetry: Optional[Telemetry] = None):
        self._target = target
        self._operators = tuple(operators)
        self._prefix = ident_prefix
        self._type_model = type_model
        # Per-(method, operator) generation spans; the default null
        # session records nothing.
        self._obs = coalesce(telemetry)

    @property
    def target(self) -> type:
        return self._target

    def generate(self, method_names: Sequence[str],
                 ) -> Tuple[List[CompiledMutant], GenerationReport]:
        """All mutants of the given methods, plus the accounting."""
        report = GenerationReport(
            class_name=self._target.__name__, methods=tuple(method_names)
        )
        mutants: List[CompiledMutant] = []
        seen_sources: Set[Tuple[str, str]] = set()
        number = 0
        for method_name in method_names:
            context = self._context(method_name)
            local_types = (
                infer_local_types(context.function, self._type_model)
                if self._type_model is not None else {}
            )
            for operator in self._operators:
                with self._obs.span("generate.operator",
                                    method=method_name,
                                    operator=operator.name) as span:
                    produced_before = report.generated
                    for point in operator.points(context):
                        if not self._type_compatible(point, local_types):
                            report.type_incompatible += 1
                            continue
                        try:
                            # The unparse of the spliced tree, rendered from
                            # the method's template; the original's own
                            # unparse is a textual no-op, not a mutant.
                            mutated_source = context.render(point.site,
                                                            point.replacement)
                            key = (method_name, mutated_source)
                            if (key in seen_sources
                                    or mutated_source == context.unparsed):
                                report.duplicates += 1
                                continue
                            seen_sources.add(key)
                            code = (context.compile_mutant(point.site,
                                                           point.replacement)
                                    if context.declares_global_or_nonlocal
                                    else None)
                        except (MutationError, SyntaxError):
                            report.compile_failures += 1
                            continue
                        number += 1
                        record = Mutant(
                            ident=f"{self._prefix}{number:04d}",
                            operator=operator.name,
                            class_name=self._target.__name__,
                            method_name=method_name,
                            variable=point.site.variable,
                            occurrence=point.site.occurrence,
                            line=point.site.line,
                            replacement=render_expr(point.replacement),
                            description=point.description,
                            mutated_source=mutated_source,
                        )
                        compiler = None if code is not None else partial(
                            compile_splice, self._target, method_name,
                            point.site, point.replacement)
                        mutants.append(CompiledMutant(
                            record, self._target, code=code,
                            compiler=compiler))
                        report.count(method_name, operator.name)
                    span.set("mutants", report.generated - produced_before)
        return mutants, report

    def _context(self, method_name: str) -> MethodContext:
        # The method's one context on this thread, shared with every
        # other generator run, pruning, triage and the lint.
        return method_context(self._target, method_name)

    def _type_compatible(self, point: MutationPoint,
                         local_types: Dict[str, Optional[str]]) -> bool:
        """Would this replacement have compiled under C++ typing?"""
        if self._type_model is None:
            return True
        variable_tag = local_types.get(point.site.variable)
        replacement = point.replacement
        if (isinstance(replacement, ast.UnaryOp)
                and isinstance(replacement.op, ast.Invert)):
            # IndVarBitNeg: negation compiles on integral operands only.
            return negatable(variable_tag)
        replacement_tag = expression_tag(
            replacement, self._type_model, local_types
        )
        return compatible(variable_tag, replacement_tag)


def build_battery(target: type, method_names: Sequence[str],
                  operator_names: Optional[Sequence[str]] = None,
                  type_model: Optional[TypeModel] = None,
                  max_mutants: int = 0,
                  telemetry: Optional[Telemetry] = None,
                  ) -> Tuple[List[CompiledMutant], GenerationReport, bool]:
    """A mutant battery from declarative inputs (registry entries).

    Unlike :func:`generate_mutants`, operators are selected by *name*
    (strict resolution, Table-1 order preserved) and the battery can be
    bounded: ``max_mutants > 0`` keeps the first N mutants in generation
    order — a deterministic prefix, so a budgeted scenario is a prefix of
    its unbudgeted self.  Returns ``(mutants, report, truncated)``.
    """
    from .operators import select_operators

    operators = (select_operators(operator_names)
                 if operator_names is not None else ALL_OPERATORS)
    mutants, report = generate_mutants(
        target, method_names,
        operators=operators,
        type_model=type_model,
        telemetry=telemetry,
    )
    truncated = bool(max_mutants) and len(mutants) > max_mutants
    if truncated:
        mutants = mutants[:max_mutants]
    return mutants, report, truncated


def generate_mutants(target: type, method_names: Sequence[str],
                     operators: Optional[Sequence[MutationOperator]] = None,
                     ident_prefix: str = "M",
                     type_model: Optional[TypeModel] = None,
                     telemetry: Optional[Telemetry] = None,
                     ) -> Tuple[List[CompiledMutant], GenerationReport]:
    """One-call convenience over :class:`MutantGenerator`."""
    generator = MutantGenerator(
        target,
        operators=operators if operators is not None else ALL_OPERATORS,
        ident_prefix=ident_prefix,
        type_model=type_model,
        telemetry=telemetry,
    )
    return generator.generate(method_names)

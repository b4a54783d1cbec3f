"""Interface-conformance rules: source ``def``s vs t-spec ``MethodSig``s.

These rules detect the drift the paper's dynamic pipeline only catches at
driver-execution time (sec. 3.2-(vii)): a public method added to the class
but never specified, a spec'd method that no longer exists, an arity or
parameter-name mismatch, and attribute declarations that disagree with the
assignments the source actually performs.

Attribute-name matching tolerates the Python privacy idiom: a declared
attribute ``count`` matches a source attribute ``count`` or ``_count`` —
t-specs are language-independent (C++ heritage) and do not spell the
underscore.
"""

from __future__ import annotations

from typing import Iterable, Set

from .findings import Finding, Severity
from .registry import Rule, register
from .unit import ComponentUnit, def_signature, literal_value


def _declared_attribute_names(unit: ComponentUnit) -> Set[str]:
    return {attribute.name for attribute in unit.spec.attributes}


def _matches_declared(store_name: str, declared: Set[str]) -> bool:
    return store_name in declared or store_name.lstrip("_") in declared


@register
class SpecMissingMethod(Rule):
    """Public method defined in the class body but absent from the t-spec."""

    id = "CL001"
    name = "spec-missing-method"
    severity = Severity.ERROR
    summary = ("public method in source is not declared in the t-spec "
               "(untested interface)")

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        spec_names = {method.name for method in unit.spec.methods}
        for info in unit.own_public_methods():
            if info.pyname in spec_names:
                continue
            yield self.finding(
                unit, info.line,
                f"{unit.class_name}: public method {info.pyname!r} is not "
                "declared in the t-spec — the test model can never exercise it",
                path=info.path,
            )


@register
class SpecUnknownMethod(Rule):
    """T-spec method whose implementation no longer exists in the source."""

    id = "CL002"
    name = "spec-unknown-method"
    severity = Severity.ERROR
    summary = "t-spec declares a method the source no longer defines"

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        for method in unit.spec.methods:
            if method.is_destructor:
                continue  # Python destructors are synthetic (GC-driven)
            if method.is_constructor and unit.resolve(method) is None:
                # No __init__ anywhere in the MRO: the default constructor
                # exists, but only satisfies a parameterless spec record.
                if method.arity == 0:
                    continue
                yield self.finding(
                    unit, unit.class_line,
                    f"{unit.class_name}: spec constructor {method.ident} "
                    f"declares {method.arity} parameter(s) but the class "
                    "defines no __init__",
                )
                continue
            if unit.resolve(method) is None:
                yield self.finding(
                    unit, unit.class_line,
                    f"{unit.class_name}: t-spec method {method.ident} "
                    f"({method.name!r}) has no implementation in the class "
                    "or its bases",
                )


@register
class SignatureArity(Rule):
    """Spec ``MethodSig`` arity incompatible with the actual ``def``."""

    id = "CL003"
    name = "signature-arity"
    severity = Severity.ERROR
    summary = "t-spec signature arity does not fit the def's parameter list"

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        for method in unit.spec.methods:
            if method.is_destructor:
                continue
            info = unit.resolve(method)
            if info is None:
                continue  # CL002 reports the missing def
            shape = def_signature(info.node)
            if shape.accepts(method.arity):
                continue
            yield self.finding(
                unit, info.line,
                f"{unit.class_name}: spec method {method.ident} "
                f"({method.signature()}) passes {method.arity} argument(s) "
                f"but {info.class_name}.{info.pyname} takes "
                f"{shape.describe()}",
                path=info.path,
            )


@register
class SignatureParameterNames(Rule):
    """Spec parameter names disagree with the def's positional names."""

    id = "CL004"
    name = "signature-param-name"
    severity = Severity.WARNING
    summary = "t-spec parameter names differ from the def's parameter names"

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        for method in unit.spec.methods:
            if method.is_destructor:
                continue
            info = unit.resolve(method)
            if info is None:
                continue
            shape = def_signature(info.node)
            if shape.maximum is None:  # *args: no names to compare against
                continue
            if not shape.accepts(method.arity):
                continue  # CL003 already reports; names are meaningless
            for spec_param, def_name in zip(method.parameters,
                                            shape.parameter_names):
                if spec_param.name != def_name:
                    yield self.finding(
                        unit, info.line,
                        f"{unit.class_name}: spec method {method.ident} names "
                        f"parameter {spec_param.name!r} but "
                        f"{info.class_name}.{info.pyname} calls it "
                        f"{def_name!r}",
                        path=info.path,
                    )


@register
class UndeclaredAttribute(Rule):
    """Public instance attribute written in source but absent from the spec."""

    id = "CL005"
    name = "undeclared-attribute"
    severity = Severity.WARNING
    summary = ("public attribute assigned in source but not declared in the "
               "t-spec (invisible to invariant/reporter domains)")

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        declared = _declared_attribute_names(unit)
        reported: Set[str] = set()
        for store in unit.attribute_stores:
            if store.attr.startswith("_"):
                continue  # private state is not part of the declared interface
            if store.attr in declared or store.attr in reported:
                continue
            reported.add(store.attr)
            yield self.finding(
                unit, store.line,
                f"{unit.class_name}: public attribute {store.attr!r} is "
                f"assigned in {store.class_name}.{store.method} but the "
                "t-spec declares no domain for it",
                path=store.path,
            )


@register
class SpecUnknownAttribute(Rule):
    """Declared attribute that no method of the class ever assigns."""

    id = "CL006"
    name = "spec-unknown-attribute"
    severity = Severity.WARNING
    summary = "t-spec declares an attribute the source never assigns"

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        written = {store.attr for store in unit.attribute_stores}
        for attribute in unit.spec.attributes:
            if attribute.name in written or f"_{attribute.name}" in written:
                continue
            yield self.finding(
                unit, unit.class_line,
                f"{unit.class_name}: t-spec declares attribute "
                f"{attribute.name!r} ({attribute.domain.describe()}) but no "
                "method ever assigns it",
            )


@register
class AttributeDomainViolation(Rule):
    """Literal assignment outside the attribute's declared value domain."""

    id = "CL007"
    name = "attribute-domain"
    severity = Severity.ERROR
    summary = "literal assigned to an attribute violates its declared domain"

    def check(self, unit: ComponentUnit) -> Iterable[Finding]:
        declared = {attribute.name: attribute for attribute in unit.spec.attributes}
        for store in unit.attribute_stores:
            attribute = declared.get(store.attr) or declared.get(
                store.attr.lstrip("_"))
            if attribute is None or store.value is None:
                continue
            is_literal, value = literal_value(store.value)
            if not is_literal or value is None:
                continue
            if attribute.domain.contains(value):
                continue
            yield self.finding(
                unit, store.line,
                f"{unit.class_name}: {store.class_name}.{store.method} assigns "
                f"{value!r} to attribute {store.attr!r}, outside its declared "
                f"domain {attribute.domain.describe()}",
                path=store.path,
            )

"""Parent/subclass feature diff for the incremental technique.

Harrold et al. classify a subclass's features as *new*, *redefined* or
*inherited*; the paper adds one refinement: "In case an attribute is
modified, the methods using it are considered as modified" (sec. 3.4.2).

Two complementary classifiers live here:

* :func:`classify_methods` — runtime classification from the classes
  themselves (a method is redefined when the subclass's ``__dict__``
  overrides the parent's);
* :func:`classify_spec_methods` — specification-level classification from
  two t-specs (a method is redefined when its signature/category record
  changed), which also enforces the technique's constraints: single
  inheritance and no signature changes for redefined methods.

:func:`attribute_uses` implements the attribute refinement: an AST scan of
which ``self.<attr>`` names each method reads or writes, so a changed
attribute propagates "modified" to every method touching it.
"""

from __future__ import annotations

import ast
import enum
import inspect
import textwrap
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..core.parsing import parse_module
from ..tspec.model import ClassSpec, MethodSpec

#: Method names never classified: BIT interface + Python plumbing.
_IGNORED = {
    "class_invariant", "invariant_test", "reporter", "has_builtin_test",
    "bit_state",
}


class MethodChange(enum.Enum):
    """Harrold-style classification of a subclass method."""

    NEW = "new"
    REDEFINED = "redefined"
    INHERITED = "inherited"


@dataclass(frozen=True)
class ClassDiff:
    """The complete feature diff between a parent and a subclass."""

    parent_name: str
    subclass_name: str
    changes: Tuple[Tuple[str, MethodChange], ...]  # (method name, change)
    violations: Tuple[str, ...] = ()               # technique-constraint breaches

    def change_for(self, method_name: str) -> MethodChange:
        for name, change in self.changes:
            if name == method_name:
                return change
        # A method absent from the diff (e.g. constructor overload record)
        # is conservatively treated as new: it must be exercised.
        return MethodChange.NEW

    def methods_with(self, change: MethodChange) -> Tuple[str, ...]:
        return tuple(name for name, c in self.changes if c is change)

    @property
    def modified_or_new(self) -> Set[str]:
        return {
            name for name, change in self.changes
            if change in (MethodChange.NEW, MethodChange.REDEFINED)
        }

    def summary(self) -> str:
        new = len(self.methods_with(MethodChange.NEW))
        redefined = len(self.methods_with(MethodChange.REDEFINED))
        inherited = len(self.methods_with(MethodChange.INHERITED))
        return (
            f"{self.subclass_name} vs {self.parent_name}: "
            f"{new} new, {redefined} redefined, {inherited} inherited methods"
        )


# ---------------------------------------------------------------------------
# Runtime classification
# ---------------------------------------------------------------------------


def _public_method_names(target: type) -> Set[str]:
    names: Set[str] = set()
    for klass in target.__mro__:
        if klass is object:
            continue
        for name, member in klass.__dict__.items():
            if name.startswith("_") or name in _IGNORED:
                continue
            if callable(member):
                names.add(name)
    return names


def classify_methods(parent: type, subclass: type,
                     changed_attributes: Optional[Set[str]] = None) -> ClassDiff:
    """Classify the subclass's public methods against the parent.

    ``changed_attributes`` applies the paper's refinement: any method whose
    body touches one of these attribute names is counted as redefined.
    """
    if parent not in subclass.__mro__:
        raise ValueError(
            f"{subclass.__name__} does not inherit from {parent.__name__}"
        )
    violations: List[str] = []
    direct_bases = [base for base in subclass.__bases__ if base is not object]
    if len(direct_bases) > 1:
        violations.append(
            f"{subclass.__name__} uses multiple inheritance "
            f"({', '.join(b.__name__ for b in direct_bases)}); "
            "the technique assumes a single parent"
        )

    parent_names = _public_method_names(parent)
    changes: List[Tuple[str, MethodChange]] = []
    for name in sorted(_public_method_names(subclass)):
        defined_locally = name in subclass.__dict__
        if name not in parent_names:
            changes.append((name, MethodChange.NEW))
        elif defined_locally:
            changes.append((name, MethodChange.REDEFINED))
            violation = _signature_violation(parent, subclass, name)
            if violation:
                violations.append(violation)
        else:
            changes.append((name, MethodChange.INHERITED))

    if changed_attributes:
        changes = _apply_attribute_refinement(subclass, changes, changed_attributes)

    return ClassDiff(
        parent_name=parent.__name__,
        subclass_name=subclass.__name__,
        changes=tuple(changes),
        violations=tuple(violations),
    )


def _signature_violation(parent: type, subclass: type, name: str) -> Optional[str]:
    """Constraint (ii): a redefined method keeps the parent's argument list."""
    try:
        parent_signature = inspect.signature(getattr(parent, name))
        subclass_signature = inspect.signature(getattr(subclass, name))
    except (TypeError, ValueError):
        return None
    if list(parent_signature.parameters) != list(subclass_signature.parameters):
        return (
            f"redefined method {name!r} changes the argument list "
            f"({parent_signature} -> {subclass_signature})"
        )
    return None


def _apply_attribute_refinement(subclass: type,
                                changes: List[Tuple[str, MethodChange]],
                                changed_attributes: Set[str],
                                ) -> List[Tuple[str, MethodChange]]:
    refined: List[Tuple[str, MethodChange]] = []
    for name, change in changes:
        if change is MethodChange.INHERITED:
            uses = attribute_uses(subclass, name)
            if uses & changed_attributes:
                change = MethodChange.REDEFINED
        refined.append((name, change))
    return refined


def attribute_uses(target: type, method_name: str) -> Set[str]:
    """The ``self.<attr>`` names a method's body reads or writes.

    Best-effort: methods without retrievable source (builtins, C
    extensions) report an empty set.
    """
    function = getattr(target, method_name, None)
    if function is None:
        return set()
    try:
        source = textwrap.dedent(inspect.getsource(function))
        tree = parse_module(source)
    except (OSError, TypeError, SyntaxError):
        return set()
    used: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            used.add(node.attr)
    return used


# ---------------------------------------------------------------------------
# Specification-level classification
# ---------------------------------------------------------------------------


def _method_record(method: MethodSpec) -> Tuple:
    """The comparable identity of a method record (name + signature shape)."""
    return (
        method.name,
        method.category.value,
        tuple((p.name, p.domain) for p in method.parameters),
        method.return_type,
    )


def classify_spec_methods(parent_spec: ClassSpec,
                          subclass_spec: ClassSpec) -> ClassDiff:
    """Classify by comparing the two embedded t-specs.

    Constructors and destructors are excluded — they always differ between a
    class and its subclass and are excluded from test-case identity
    (sec. 3.4.2).
    """
    violations: List[str] = []
    if subclass_spec.superclass != parent_spec.name:
        violations.append(
            f"spec of {subclass_spec.name} names superclass "
            f"{subclass_spec.superclass!r}, not {parent_spec.name!r}"
        )

    parent_records = {
        method.name: _method_record(method)
        for method in parent_spec.methods
        if not (method.is_constructor or method.is_destructor)
    }
    changes: List[Tuple[str, MethodChange]] = []
    seen: Set[str] = set()
    for method in subclass_spec.methods:
        if method.is_constructor or method.is_destructor:
            continue
        if method.name in seen:
            continue
        seen.add(method.name)
        parent_record = parent_records.get(method.name)
        if parent_record is None:
            changes.append((method.name, MethodChange.NEW))
        elif parent_record == _method_record(method):
            changes.append((method.name, MethodChange.INHERITED))
        else:
            changes.append((method.name, MethodChange.REDEFINED))
            if parent_record[2] != _method_record(method)[2]:
                violations.append(
                    f"redefined method {method.name!r} changes its parameter list"
                )
    return ClassDiff(
        parent_name=parent_spec.name,
        subclass_name=subclass_spec.name,
        changes=tuple(sorted(changes)),
        violations=tuple(violations),
    )

"""State reporting: observability for the built-in test interface.

The paper's ``Reporter`` method "store[s] the object's internal state" into
the test log (Figure 6).  Here the reporter is introspection-based: it
snapshots an object's instance attributes into a plain, deterministic,
comparable structure.  Snapshots serve two masters:

* the test log — human-readable dump after each test case;
* the oracle — two snapshots compare with ``==``, so a golden snapshot from
  the original class detects state deviations in a mutant.

Snapshotting is defensive: reference cycles are cut, depth is bounded, and
unknown objects degrade to ``<ClassName>`` placeholders rather than pulling
arbitrary object graphs (or raising) mid-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, TextIO, Tuple

MAX_DEPTH = 6
MAX_ITEMS = 200

#: Exact item types of a sequence that is copied as it is.  Any other item
#: (subclasses of these included) sends the sequence down the per-item path.
_SCALAR_TYPES = frozenset((type(None), bool, int, float, str))


def snapshot_value(value: Any, depth: int = 0, seen: Set[int] = None) -> Any:
    """Convert a runtime value into a comparable plain structure."""
    if seen is None:
        seen = set()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if depth >= MAX_DEPTH:
        return f"<depth-limit:{type(value).__name__}>"
    identity = id(value)
    if identity in seen:
        return "<cycle>"
    seen = seen | {identity}

    if isinstance(value, (list, tuple)):
        head = value[:MAX_ITEMS]
        # Snapshots are taken under the step budget, where every Python
        # line costs a trace callback; an all-scalar sequence (the usual
        # component contents) is copied by C code instead of item by item.
        if _SCALAR_TYPES.issuperset(map(type, head)):
            items = list(head)
        else:
            items = [snapshot_value(item, depth + 1, seen) for item in head]
        if len(value) > MAX_ITEMS:
            items.append(f"<{len(value) - MAX_ITEMS} more>")
        return tuple(items) if isinstance(value, tuple) else items
    if isinstance(value, dict):
        rendered = {}
        for index, (key, item) in enumerate(value.items()):
            if index >= MAX_ITEMS:
                rendered["<truncated>"] = f"<{len(value) - MAX_ITEMS} more>"
                break
            rendered[str(key)] = snapshot_value(item, depth + 1, seen)
        return rendered
    if isinstance(value, (set, frozenset)):
        try:
            ordered = sorted(value, key=repr)
        except Exception:
            ordered = list(value)
        return {"<set>": [snapshot_value(item, depth + 1, seen) for item in ordered[:MAX_ITEMS]]}
    state_method = getattr(value, "bit_state", None)
    if callable(state_method):
        try:
            described = state_method()
        except Exception:
            described = None
        if isinstance(described, dict):
            return {
                "<class>": type(value).__name__,
                **{
                    str(name): snapshot_value(item, depth + 1, seen)
                    for name, item in sorted(described.items())
                },
            }
    if hasattr(value, "__dict__"):
        fields = {
            name: snapshot_value(attr, depth + 1, seen)
            for name, attr in sorted(vars(value).items())
            if not name.startswith("_bit_")
        }
        return {"<class>": type(value).__name__, **fields}
    slots = getattr(type(value), "__slots__", None)
    if slots:
        fields = {
            name: snapshot_value(getattr(value, name, "<unset>"), depth + 1, seen)
            for name in sorted(slots)
            if not name.startswith("_bit_")
        }
        return {"<class>": type(value).__name__, **fields}
    return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class StateReport:
    """One snapshot of an object's internal state."""

    class_name: str
    state: Tuple[Tuple[str, Any], ...]  # sorted (attribute, snapshot) pairs

    @classmethod
    def capture(cls, target: Any) -> "StateReport":
        state_method = getattr(target, "bit_state", None)
        if callable(state_method):
            # Components may describe their own observable state (the
            # producer "redefines the Reporter", per Figure 4); this beats
            # raw attribute dumping for pointer-rich structures.
            described = state_method()
            if isinstance(described, dict):
                state = tuple(
                    (str(name), snapshot_value(value))
                    for name, value in sorted(described.items())
                )
                return cls(class_name=type(target).__name__, state=state)
        attributes = getattr(target, "__dict__", {})
        state = tuple(
            (name, snapshot_value(value))
            for name, value in sorted(attributes.items())
            if not name.startswith("_bit_")
        )
        return cls(class_name=type(target).__name__, state=state)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.state)

    def format(self) -> str:
        lines: List[str] = [f"--- state of {self.class_name} ---"]
        if not self.state:
            lines.append("(no instance attributes)")
        for name, value in self.state:
            lines.append(f"{name} = {value!r}")
        return "\n".join(lines)

    def write(self, stream: TextIO) -> None:
        stream.write(self.format())
        stream.write("\n")

    def differs_from(self, other: "StateReport") -> Tuple[str, ...]:
        """Names of attributes whose snapshots differ (or exist on one side)."""
        mine = self.as_dict()
        theirs = other.as_dict()
        names = sorted(set(mine) | set(theirs))
        return tuple(
            name for name in names if mine.get(name, "<absent>") != theirs.get(name, "<absent>")
        )


def report_to_file(target: Any, path: str) -> StateReport:
    """Capture and append a state report to a log file (Figure 6's pattern)."""
    report = StateReport.capture(target)
    with open(path, "a", encoding="utf-8") as stream:
        report.write(stream)
    return report

"""The canonical-encoding substrate under every cache fingerprint.

``canonical`` must be identity-free (no ``id()``, no default ``repr``
addresses), order-stable for unordered containers, and source-sensitive
for types and routines — those properties are what make the cache key
both *stable* (warm runs hit) and *honest* (edits invalidate).  A type is
sensitive to every file of its class hierarchy, not only to its own body.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass

import pytest

from repro.core.fingerprint import MAX_CANONICAL_DEPTH, canonical, sha256_hex

from ..keyed_component import BASE, COMPONENT, KeyedTree


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class Plain:
    def __init__(self, value):
        self.value = value


class TestSha256Hex:
    def test_deterministic(self):
        assert sha256_hex("a", "b") == sha256_hex("a", "b")

    def test_parts_are_delimited(self):
        """("ab", "c") and ("a", "bc") must not collide."""
        assert sha256_hex("ab", "c") != sha256_hex("a", "bc")

    def test_is_hex_digest(self):
        digest = sha256_hex("x")
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestCanonicalStability:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 3.25, "text", b"bytes",
        (1, 2), [1, [2, 3]], {"k": "v"}, Colour.RED, Point(1, 2),
    ])
    def test_equal_values_encode_identically(self, value):
        assert canonical(value) == canonical(value)

    def test_identity_free_for_objects(self):
        assert canonical(Plain(7)) == canonical(Plain(7))
        assert canonical(Plain(7)) != canonical(Plain(8))

    def test_no_memory_addresses_leak(self):
        instance = Plain(7)
        assert hex(id(instance))[2:] not in canonical(instance)

    def test_dict_insertion_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_set_iteration_order_is_irrelevant(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})
        assert canonical(frozenset("abc")) == canonical(frozenset("cba"))

    def test_distinguishes_container_kinds(self):
        assert canonical((1, 2)) != canonical([1, 2])
        assert canonical({1, 2}) != canonical((1, 2))

    def test_distinguishes_scalar_types(self):
        assert canonical(1) != canonical(1.0)
        assert canonical(True) != canonical(1)
        assert canonical("1") != canonical(1)
        assert canonical(None) != canonical("None")


class TestCanonicalSourceSensitivity:
    def test_type_embeds_source_hash(self):
        encoded = canonical(Plain)
        assert "Plain" in encoded
        assert "#" in encoded  # qualname#digest

    def test_routine_encodes_by_qualified_name(self):
        assert canonical(sha256_hex) == canonical(sha256_hex)
        assert canonical(sha256_hex) != canonical(canonical)

    def test_dataclass_field_values_matter(self):
        assert canonical(Point(1, 2)) != canonical(Point(2, 1))


@pytest.fixture()
def keyed_tree(tmp_path):
    tree = KeyedTree(tmp_path / "tree")
    yield tree
    tree.close()


class TestTypeHierarchyFiles:
    """A type renders a digest of the files that define its MRO."""

    @pytest.mark.parametrize("module, old, new", [
        (COMPONENT, "STEP = 1", "STEP = 10"),
        (BASE, "value + 0", "value + 10"),
    ], ids=["own-file-outside-the-class", "base-class-file"])
    def test_file_edit_moves_the_type(self, keyed_tree, module, old, new):
        stepper = keyed_tree.load()
        before, body = canonical(stepper), inspect.getsource(stepper)
        keyed_tree.edit(module, old, new)
        edited = keyed_tree.load()
        assert inspect.getsource(edited) == body
        assert canonical(edited) != before
        keyed_tree.edit(module, new, old)
        assert canonical(keyed_tree.load()) == before

    def test_copy_of_the_tree_elsewhere_keeps_the_type(self, keyed_tree,
                                                       tmp_path):
        here = canonical(keyed_tree.load())
        copy = KeyedTree(tmp_path / "elsewhere")
        try:
            assert canonical(copy.load()) == here
        finally:
            copy.close()

    def test_class_without_a_file_keeps_name_identity(self):
        fileless = type("Fileless", (), {"__module__": "no_such_module"})
        assert canonical(fileless) == "type:no_such_module.Fileless#nosource"


class TestCanonicalDepthCap:
    def test_deep_nesting_is_capped_not_fatal(self):
        value = "leaf"
        for _ in range(MAX_CANONICAL_DEPTH + 10):
            value = [value]
        assert isinstance(canonical(value), str)

    def test_self_referential_object_terminates(self):
        loop = Plain(None)
        loop.value = loop
        assert isinstance(canonical(loop), str)

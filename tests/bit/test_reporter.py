"""Tests for state snapshotting and reports."""

from __future__ import annotations

from repro.bit.reporter import MAX_DEPTH, StateReport, report_to_file, snapshot_value


class TestSnapshotValue:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "text"):
            assert snapshot_value(value) == value

    def test_containers(self):
        assert snapshot_value([1, 2]) == [1, 2]
        assert snapshot_value((1, 2)) == (1, 2)
        assert snapshot_value({"k": 1}) == {"k": 1}

    def test_sets_are_ordered(self):
        first = snapshot_value({3, 1, 2})
        second = snapshot_value({2, 3, 1})
        assert first == second

    def test_objects_become_dicts(self):
        class Point:
            def __init__(self):
                self.x = 1
                self.y = 2

        snap = snapshot_value(Point())
        assert snap == {"<class>": "Point", "x": 1, "y": 2}

    def test_slots_objects(self):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = 1
                self.b = "two"

        snap = snapshot_value(Slotted())
        assert snap["a"] == 1 and snap["b"] == "two"

    def test_bit_state_protocol_preferred(self):
        class Custom:
            def __init__(self):
                self.hidden = "raw"

            def bit_state(self):
                return {"visible": 42}

        snap = snapshot_value(Custom())
        assert snap == {"<class>": "Custom", "visible": 42}

    def test_cycles_cut(self):
        a = {}
        a["self"] = a
        snap = snapshot_value(a)
        assert snap["self"] == "<cycle>"

    def test_depth_limited(self):
        nested = current = []
        for _ in range(MAX_DEPTH + 3):
            deeper = []
            current.append(deeper)
            current = deeper
        snap = snapshot_value(nested)
        text = repr(snap)
        assert "depth-limit" in text

    def test_large_lists_truncated_explicitly(self):
        snap = snapshot_value(list(range(500)))
        assert "<300 more>" in snap[-1]

    def test_all_scalar_sequences_are_fresh_copies(self):
        values = [None, True, 3, 2.5, "text"]
        snap = snapshot_value(values)
        assert snap == values and type(snap) is list and snap is not values
        assert snapshot_value(tuple(values)) == tuple(values)
        assert snapshot_value(list(range(300)))[:200] == list(range(200))

    def test_scalar_subclass_items_snapshot_the_same(self):
        # An item of a scalar subclass sends the sequence down the per-item
        # path, which must agree with the all-scalar copy.
        class Count(int):
            pass

        assert snapshot_value([Count(3), 1, "x"]) == [3, 1, "x"]
        assert snapshot_value((1, [2, 3])) == (1, [2, 3])

    def test_unknown_objects_placeholder(self):
        snap = snapshot_value(object())
        assert snap == "<object>"


class TestStateReport:
    def test_capture_and_dict(self):
        class Pair:
            def __init__(self):
                self.left = 1
                self.right = 2

        report = StateReport.capture(Pair())
        assert report.class_name == "Pair"
        assert report.as_dict() == {"left": 1, "right": 2}

    def test_ignores_bit_internal_attributes(self):
        class Wrapped:
            def __init__(self):
                self.real = 1
                self._bit_tracer = "internal"

        report = StateReport.capture(Wrapped())
        assert "real" in report.as_dict()
        assert "_bit_tracer" not in report.as_dict()

    def test_equality_is_structural(self):
        class Counter:
            def __init__(self, n):
                self.n = n

        assert StateReport.capture(Counter(3)) == StateReport.capture(Counter(3))
        assert StateReport.capture(Counter(3)) != StateReport.capture(Counter(4))

    def test_differs_from(self):
        class Counter:
            def __init__(self, n, m=0):
                self.n = n
                self.m = m

        first = StateReport.capture(Counter(1, 5))
        second = StateReport.capture(Counter(2, 5))
        assert first.differs_from(second) == ("n",)
        assert first.differs_from(first) == ()

    def test_differs_from_reports_missing_attributes(self):
        class One:
            def __init__(self):
                self.only = 1

        class Two:
            def __init__(self):
                self.other = 2

        first = StateReport.capture(One())
        second = StateReport.capture(Two())
        assert set(first.differs_from(second)) == {"only", "other"}

    def test_format(self):
        class Named:
            def __init__(self):
                self.name = "x"

        text = StateReport.capture(Named()).format()
        assert "state of Named" in text
        assert "name = 'x'" in text

    def test_format_empty(self):
        class Empty:
            pass

        assert "no instance attributes" in StateReport.capture(Empty()).format()

    def test_bit_state_protocol(self):
        class Listy:
            def bit_state(self):
                return {"count": 2, "values": [4, 5]}

        report = StateReport.capture(Listy())
        assert report.as_dict() == {"count": 2, "values": [4, 5]}


class TestReportToFile:
    def test_appends(self, tmp_path):
        class Named:
            def __init__(self, tag):
                self.tag = tag

        path = str(tmp_path / "log.txt")
        report_to_file(Named("a"), path)
        report_to_file(Named("b"), path)
        content = (tmp_path / "log.txt").read_text()
        assert "tag = 'a'" in content and "tag = 'b'" in content

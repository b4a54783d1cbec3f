"""Tests of the benchmark's own rules (``benchlib``, and the report
arithmetic of ``run``).

Run with ``python -m pytest benchmarks/e2e -q``; they start no workload.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchlib import (
    PartialOverlap,
    allowed_worsening,
    compare,
    percentile_value,
    probe,
    self_times,
    speed_factor,
    summarize,
    tail_percentile,
    valid_metric_name,
)
from run import (
    HOST_TIMES,
    SECONDS_OF,
    ChildRun,
    compare_files,
    layer_report,
    main,
)

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- containment self time ----------------------------------------------------


def test_child_time_is_subtracted_from_its_parent():
    assert self_times([(0.0, 10.0), (2.0, 5.0)]) == [7.0, 3.0]


def test_siblings_are_both_subtracted_and_not_from_each_other():
    assert self_times([(0.0, 10.0), (1.0, 3.0), (4.0, 8.0)]) == [4.0, 2.0, 4.0]


def test_only_the_innermost_parent_loses_a_grandchild():
    assert self_times([(0.0, 10.0), (1.0, 9.0), (2.0, 3.0)]) == [2.0, 7.0, 1.0]


def test_spans_sharing_an_edge_are_siblings():
    assert self_times([(0.0, 1.0), (1.0, 2.0)]) == [1.0, 1.0]


def test_zero_length_spans_cost_nothing_anywhere():
    spans = [(0.0, 10.0), (0.0, 0.0), (5.0, 5.0), (10.0, 10.0)]
    assert self_times(spans) == [10.0, 0.0, 0.0, 0.0]


def test_input_order_does_not_matter():
    assert self_times([(2.0, 5.0), (0.0, 10.0)]) == [3.0, 7.0]


def test_identical_spans_nest_and_keep_the_total():
    own = self_times([(0.0, 5.0), (0.0, 5.0)])
    assert sorted(own) == [0.0, 5.0]


def test_self_times_sum_to_the_covered_wall_clock():
    spans = [(0.0, 4.0), (0.5, 1.5), (1.5, 3.0), (2.0, 2.5), (5.0, 6.0)]
    assert sum(self_times(spans)) == pytest.approx(5.0)


def test_partial_overlap_is_rejected():
    with pytest.raises(PartialOverlap):
        self_times([(0.0, 5.0), (3.0, 8.0)])


def test_microsecond_rounding_is_not_a_partial_overlap():
    own = self_times([(0.0, 1.0), (0.5, 1.000001)])
    assert own == pytest.approx([0.499999, 0.500001])


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (709, 98.0),      # 14 samples beyond p98, 7 beyond p99
    (528, 98.0),
    (1000, 99.0),
    (10000, 99.9),
    (100, 90.0),
    (20, 50.0),
    (19, None),
    (0, None),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_value_is_nearest_rank():
    values = [float(value) for value in range(100, 0, -1)]
    assert percentile_value(values, 50.0) == 50.0
    assert percentile_value(values, 98.0) == 98.0
    assert percentile_value([3.0], 99.0) == 3.0


def test_summary_states_n_and_a_tail_only_when_ten_lie_beyond():
    small = summarize([3.0, 1.0, 2.0])
    assert (small["n"], small["median"], small["min"], small["max"]) == (
        3, 2.0, 1.0, 3.0)
    assert "tail" not in small
    large = summarize([float(value) for value in range(1, 101)])
    assert large["n"] == 100
    assert (large["tail_pct"], large["tail"]) == (90.0, 90.0)


def test_summary_quartiles_match_the_statistics_module():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (summary["q1"], summary["q3"]) == (2.75, 8.25)
    single = summarize([4.0])
    assert single["q1"] == single["q3"] == single["median"] == 4.0


# -- bounds -------------------------------------------------------------------


def test_relative_bound_applies_above_the_floor():
    assert allowed_worsening(10.0, 0.1, floor=0.1) == pytest.approx(1.0)


def test_absolute_floor_applies_to_small_medians():
    assert allowed_worsening(0.3, 0.15, floor=0.1) == 0.1
    assert allowed_worsening(0.3, 0.15) == pytest.approx(0.045)


def test_zero_bound_allows_nothing():
    assert allowed_worsening(0.0, 0.0) == 0.0


# -- host speed ---------------------------------------------------------------


def test_speed_factor_is_the_mean_probe_speed_inside_the_interval():
    samples = [(0.5, 4.0), (1.0, 1.0), (2.0, 2.0), (3.5, 8.0)]
    # Inside [1, 3]: speeds 1 and 1/2, mean 3/4.
    assert speed_factor(samples, 1.0, 3.0, reference=2.0) == pytest.approx(1.5)


def test_a_host_at_half_speed_doubles_nothing_but_the_host_time():
    fast = [(float(t), 1.0) for t in range(10)]
    slow = [(float(t), 2.0) for t in range(10)]
    # The same work takes 4 s on the fast host and 8 s on the slow one.
    assert 4.0 * speed_factor(fast, 0.0, 4.0, 1.0) == pytest.approx(
        8.0 * speed_factor(slow, 0.0, 8.0, 1.0))


def test_an_interval_without_samples_takes_the_nearest_one():
    samples = [(0.0, 1.0), (10.0, 4.0)]
    assert speed_factor(samples, 8.0, 9.0, reference=1.0) == 0.25
    assert speed_factor(samples, 1.0, 2.0, reference=1.0) == 1.0
    assert speed_factor(samples, 11.0, 12.0, reference=1.0) == 0.25


def test_speed_factor_needs_samples():
    with pytest.raises(ValueError):
        speed_factor([], 0.0, 1.0)


def test_probe_times_a_short_slice_of_work():
    assert 0.0 < probe() < 0.1


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "wall_s", "setup_s", "cache.hit_ratio", "pool.worker_peak_rss_mb",
    "a-b", "9lives", "x" * 64,
])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", [
    "", "_wall", ".s", "-s", "wall s", "ms/op", "wall_s\n", "x" * 65,
])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_benchmark_json_names_are_valid_and_unique():
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [item["name"]
             for group in ("workloads", "end_to_end", "per_layer")
             for item in spec[group]]
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))


# -- compare verdicts ---------------------------------------------------------

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]


def test_clear_improvement_is_better():
    new = [value * 0.8 for value in BASE]
    assert compare(BASE, new, "lower", 0.1)["verdict"] == "better"


def test_improvement_within_the_spread_is_unchanged():
    new = [value - 0.01 for value in reversed(BASE)]
    assert compare(BASE, new, "lower", 0.1)["verdict"] == "unchanged"


def test_worsening_beyond_the_bound_is_worse():
    new = [value * 1.2 for value in BASE]
    assert compare(BASE, new, "lower", 0.1)["verdict"] == "worse"


def test_worsening_within_the_bound_is_unchanged():
    new = [value * 1.05 for value in BASE]
    assert compare(BASE, new, "lower", 0.1)["verdict"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [5.0, 10.0, 15.0, 8.0, 12.0]
    new = [6.0, 11.0, 16.0, 9.0, 13.0]
    assert compare(base, new, "lower", 0.1)["verdict"] == "unresolved"


def test_wide_spread_but_every_new_run_better_is_not_unresolved():
    base = [10.0 + 0.2 * index for index in range(10)]
    new = [5.0 + 0.1 * index for index in range(10)]
    assert compare(base, new, "lower", 0.05)["verdict"] == "better"
    # Every run better, but by less than the base runs' own spread.
    assert compare([10.0, 14.0, 18.0], [9.5, 9.0, 9.8],
                   "lower", 0.1)["verdict"] == "unchanged"


def test_a_gain_from_fewer_than_ten_pairs_is_unresolved():
    base, new = BASE[:9], [value * 0.8 for value in BASE[:9]]
    result = compare(base, new, "lower", 0.1)
    assert (result["wins"], result["pairs"]) == (9, 9)
    assert result["verdict"] == "unresolved"
    assert compare(BASE, [value * 0.8 for value in BASE],
                   "lower", 0.1)["verdict"] == "better"


def test_higher_is_better_metrics_are_judged_the_other_way():
    assert compare(BASE, [value * 1.2 for value in BASE],
                   "higher", 0.1)["verdict"] == "better"
    assert compare(BASE, [value * 0.8 for value in BASE],
                   "higher", 0.1)["verdict"] == "worse"


def test_floor_keeps_small_drift_of_a_short_run_unchanged():
    base = [0.30, 0.31, 0.30]
    new = [0.36, 0.37, 0.36]
    assert compare(base, new, "lower", 0.15,
                   floor=0.1)["verdict"] == "unchanged"
    assert compare(base, new, "lower", 0.15)["verdict"] == "worse"


def test_any_new_failure_is_worse_under_a_zero_bound():
    assert compare([0.0], [0.01], "lower", 0.0)["verdict"] == "worse"
    assert compare([0.0], [0.0], "lower", 0.0)["verdict"] == "unchanged"


def test_compare_reports_both_sides_and_the_pairing():
    result = compare(BASE, BASE, "lower", 0.1)
    assert result["base"]["n"] == result["new"]["n"] == len(BASE)
    assert (result["wins"], result["pairs"]) == (0, len(BASE))


def _report(tmp_path, name, wall_samples):
    path = tmp_path / f"{name}.json"
    metrics = {"wall_s": dict(summarize(wall_samples), unit="s",
                              samples=wall_samples)}
    path.write_text(json.dumps({"workloads": {"table2": {"metrics": metrics}}}))
    return str(path)


def test_compare_command_prints_both_sides_and_fails_on_worse(tmp_path,
                                                              capsys):
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base = _report(tmp_path, "base", BASE)
    same = _report(tmp_path, "same", list(reversed(BASE)))
    slower = _report(tmp_path, "slower", [value * 1.5 for value in BASE])
    assert compare_files(base, same, spec) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare_files(base, slower, spec) == 1
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("table2")]
    assert len(row) == 1
    assert "10.0000 [" in row[0] and " 10" in row[0]
    assert row[0].endswith("worse")


# -- the traced run's report --------------------------------------------------

HOST_ZEROS = {name: 0.0 for name in HOST_TIMES}


def test_layer_seconds_with_setup_and_remainder_cover_the_wall_clock():
    traced = ChildRun("table2", "trace", t_spawn=100.0, load_before=0.0)
    traced.data = {
        "t_ready": 100.5, "t_done": 110.0, "cpu_s": 9.0,
        "layers": {"mutation.generate": 1.0, "harness.executor": 6.0,
                   "unattributed": 0.25},
        "metrics": dict(HOST_ZEROS, **{"case.executed": 10}),
        "mutant_tail_pct": None,
    }
    report = layer_report(traced, untraced_wall=8.0)
    assert report["layers"]["setup"] == 0.5
    assert report["layers"]["unattributed"] == pytest.approx(2.5)
    metrics = report["metrics"]
    assert metrics["generate.s"] == 1.0
    assert metrics["case.s"] == 6.0
    assert metrics["equivalence.s"] == 0.0
    assert metrics["run.unattributed_s"] == pytest.approx(2.5)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert metrics["case.executed"] == 10
    layers = sum(metrics[seconds] for seconds in SECONDS_OF.values())
    assert layers + 0.5 + 2.5 == pytest.approx(10.0)
    assert report["attributed_frac"] == pytest.approx(0.75)


def test_layer_seconds_are_rescaled_by_the_traced_runs_speed():
    traced = ChildRun("table2", "trace", t_spawn=0.0, load_before=0.0,
                      speed=0.5)
    traced.data = {
        "t_ready": 1.0, "t_done": 9.0, "cpu_s": 8.0,
        "layers": {"harness.executor": 6.0},
        "metrics": {"case.us": 30.0, "mutant.p50_ms": 2.0,
                    "mutant.tail_ms": 4.0, "pool.worker_cpu_s": 0.0},
        "mutant_tail_pct": None,
    }
    report = layer_report(traced, untraced_wall=4.0)
    assert report["wall_s"] == 4.5
    assert report["layers"] == {"harness.executor": 3.0, "setup": 0.5,
                                "unattributed": 1.0}
    metrics = report["metrics"]
    assert (metrics["case.s"], metrics["case.us"], metrics["run.cpu_s"]) == (
        3.0, 15.0, 4.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.125)


def test_layer_seconds_do_not_move_when_another_layer_does():
    def traced_with(equivalence_s):
        traced = ChildRun("table2", "trace", t_spawn=0.0, load_before=0.0)
        traced.data = {
            "t_ready": 0.5, "t_done": 4.5 + equivalence_s, "cpu_s": 1.0,
            "layers": {"harness.executor": 4.0,
                       "mutation.equivalence": equivalence_s},
            "metrics": HOST_ZEROS, "mutant_tail_pct": None,
        }
        return layer_report(traced, untraced_wall=4.0)["metrics"]

    before, after = traced_with(8.0), traced_with(4.0)
    assert after["equivalence.s"] == before["equivalence.s"] / 2
    assert after["case.s"] == before["case.s"]


def test_trace_is_an_option_of_single_workload_runs_only(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--trace", "1"])
    assert exit_info.value.code == 2
    assert "--trace applies only with --workload" in capsys.readouterr().err

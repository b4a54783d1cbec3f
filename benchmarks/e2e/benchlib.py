"""Pure helpers of the end-to-end benchmark: span self time, sample
summaries, tail percentiles, regression bounds, the compare verdict and
the host-speed probe.

Nothing here imports the program under test or starts a process, so the
harness tests (``test_harness.py``) exercise these rules directly.
"""

from __future__ import annotations

import bisect
import math
import re
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric names: a letter or digit first, then letters, digits, ``_``,
#: ``.`` and ``-``, at most 64 characters in all.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Span offsets and durations are rounded to the microsecond when the
#: telemetry session emits them, so an edge may be off by up to 1 us on
#: each side; containment is judged with this much slack.
TOLERANCE_S = 2e-6

#: Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10

#: A gain may be claimed only from at least this many pairs of runs.
MIN_PAIRS = 10

#: What ``probe`` takes on a host running at the reference speed: about
#: the median probe of an idle 2-vCPU Intel Xeon (2.1 GHz) under Python
#: 3.11 (400 probes: 79 us fastest, 117 us median).  Times are reported
#: in seconds at this speed; any constant would do, since comparisons
#: are relative.
REFERENCE_PROBE_S = 115e-6


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def probe(tries: int = 3) -> float:
    """Seconds a fixed slice of interpreter work takes now: the fastest
    of ``tries``, so that a try the scheduler interrupts drops out."""
    best = math.inf
    for _ in range(tries):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        for index in range(1000):
            table[index & 63] = table.get(index & 63, 0) + index
        best = min(best, time.perf_counter() - started)
    return best


def speed_factor(samples: Sequence[Tuple[float, float]], start: float,
                 end: float, reference: float = REFERENCE_PROBE_S) -> float:
    """How many seconds at the reference speed one second of
    ``[start, end]`` was worth on this host.

    ``samples`` are ``(time, probe seconds)`` pairs in time order.  The
    work a second holds is proportional to the probe speed ``1 / probe``,
    so the factor is ``reference`` times the mean speed of the samples
    inside the interval, or of the one nearest to it when none is.
    """
    if not samples:
        raise ValueError("no probe samples")
    times = [when for when, _ in samples]
    low, high = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
    if low == high:
        middle = (start + end) / 2.0
        nearest = min(range(max(0, low - 1), min(len(samples), low + 1)),
                      key=lambda index: abs(times[index] - middle))
        low, high = nearest, nearest + 1
    return reference * statistics.fmean(
        1.0 / seconds for _, seconds in samples[low:high])


class PartialOverlap(ValueError):
    """Two spans overlap without one containing the other."""


def self_times(spans: Sequence[Tuple[float, float]],
               tolerance: float = TOLERANCE_S) -> List[float]:
    """Each span's duration minus the part its child spans cover.

    ``spans`` are ``(start, end)`` intervals from one thread of control,
    so any two are either nested or disjoint; the parent of a span is the
    innermost span that contains it.  Spans that partially overlap raise
    :class:`PartialOverlap`, because no nesting explains them.
    """
    order = sorted(range(len(spans)),
                   key=lambda index: (spans[index][0], -spans[index][1]))
    own = [end - start for start, end in spans]
    stack: List[int] = []
    for index in order:
        start, end = spans[index]
        while stack and spans[stack[-1]][1] <= start + tolerance:
            stack.pop()
        if stack:
            parent = stack[-1]
            if end > spans[parent][1] + tolerance:
                raise PartialOverlap(
                    f"span {spans[index]} partially overlaps {spans[parent]}"
                )
            own[parent] -= end - start
        stack.append(index)
    return own


def tail_percentile(count: int,
                    beyond: int = TAIL_SAMPLES) -> Optional[float]:
    """The highest candidate percentile with ``beyond`` samples above it
    among ``count``, or ``None`` when even the median has too few."""
    for percentile in PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= beyond - 1e-9:
            return percentile
    return None


def percentile_value(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of ``values`` (not necessarily sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them),
    extremes, sample count and, where the count allows one, the highest
    percentile with at least ten samples beyond it."""
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    summary = {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        summary["tail_pct"] = tail
        summary["tail"] = percentile_value(values, tail)
    return summary


def allowed_worsening(base_median: float, bound: float,
                      floor: float = 0.0) -> float:
    """How far a metric may move the wrong way before it counts as a
    regression: ``bound`` as a share of the base median, but never less
    than the absolute ``floor``."""
    return max(bound * abs(base_median), floor)


def compare(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, floor: float = 0.0) -> Dict[str, object]:
    """Judge one metric of one workload between two sets of runs.

    * ``better``: at least ``MIN_PAIRS`` pairs (runs paired in order),
      the new runs win at least nine tenths of them (ties counting for
      neither) and the medians differ by more than the base runs' own
      quartile spread;
    * ``unresolved``: such a gain with fewer pairs, or the spread of
      either side exceeds the allowed worsening, unless every new run
      reads better than every base run;
    * ``worse``: the new median is worse than the base median by more
      than the allowed worsening;
    * ``unchanged``: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base_summary, new_summary = summarize(base), summarize(new)
    worsening = sign * (new_summary["median"] - base_summary["median"])
    allowed = allowed_worsening(base_summary["median"], bound, floor)
    base_spread = base_summary["q3"] - base_summary["q1"]
    spread = max(base_spread, new_summary["q3"] - new_summary["q1"])
    pairs = list(zip(base, new))
    wins = sum(1 for old, fresh in pairs if sign * (fresh - old) < 0)
    all_better = all(sign * (fresh - old) < 0 for fresh in new for old in base)
    if pairs and wins >= 0.9 * len(pairs) and -worsening > base_spread:
        verdict = "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    elif spread > allowed and not all_better:
        verdict = "unresolved"
    elif worsening > allowed:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "base": base_summary,
        "new": new_summary,
        "allowed": allowed,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
    }

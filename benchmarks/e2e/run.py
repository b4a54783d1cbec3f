"""End-to-end benchmark: Tables 1-3 and the smoke scenario sweep, cold and
warm, every measured run in a fresh process, outputs checked against
goldens, and a traced run that splits wall-clock by layer.

From the repository root:

  python3 benchmarks/e2e/run.py [--seed S] [--workloads W ...]
                                [--repeats N] [--out PATH]
      Every workload, repeats interleaved round-robin, then one traced run
      of each.  Prints every end-to-end metric with its unit, the per-layer
      self times and metrics, and writes everything to PATH.
  python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
      One workload, run until T seconds have passed.  The last line of
      stdout is one JSON object: the end-to-end metrics (--trace 0) or
      the per-layer metrics of a traced run (--trace 1).
  python3 benchmarks/e2e/run.py --compare BASE.json NEW.json
      better / worse / unchanged / unresolved per workload and metric,
      between two files written by --out.
  python3 benchmarks/e2e/run.py --record-golden [--seed S] [--workloads W ...]
      Rewrites this seed's entries of golden.json from one run of each.

Times are reported in seconds at a reference host speed: while children
run, a thread probes how fast the host runs a fixed slice of interpreter
work, and each child's times are rescaled by the mean probe speed over
them (``SpeedMonitor``).  The host's own seconds are kept beside them.

Exit status: with --workload, 0 whenever the result line is printed (its
``correct`` field tells whether the output checks passed) and 1 when no
run completed; otherwise 0, or 1 when a check failed or --compare found
a metric worse.  2 when the benchmark cannot run (for example, no
``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from benchlib import (
    compare,
    probe,
    speed_factor,
    summarize,
    valid_metric_name,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
WORK = HERE / ".work"

#: ``repro.experiments.config.EXPERIMENT_SEED``: the paper tables' seed.
DEFAULT_SEED = 20010701
DEFAULT_REPEATS = 3
#: A run that takes longer counts as failed (every operation in it).
RUN_TIMEOUT_S = 120.0
#: Set-up-only children per workload and round of measured runs.
#: ``setup_s`` is the median over them and the measured runs' own set-up,
#: so that its samples come from the whole measuring window.  One more
#: runs first, unmeasured, so byte-compiling and a cold page cache are
#: not counted.
SETUP_PROBES = 5
#: Absolute floors under the relative bounds of BENCHMARK.json: a
#: sub-second warm run may drift by this much before it is a regression.
#: They are kept here because a metric's entry in BENCHMARK.json holds
#: exactly its name, unit, direction and bound.
FLOORS = {"wall_s": 0.1, "setup_s": 0.05}
#: Failed operations over attempted ones: any increase is a regression.
FAILED_FRAC = {"unit": "ratio", "better": "lower", "bound": 0.0}
#: How often the speed monitor probes the host while children run.
PROBE_PERIOD_S = 0.025
#: Per-layer metrics the traced child reports in the host's own time;
#: the report rescales them to the reference speed like everything else.
HOST_TIMES = ("mutant.p50_ms", "mutant.tail_ms", "case.us",
              "pool.worker_cpu_s")

#: Self-time row of the traced run -> the per-layer metric that carries
#: its seconds.  A layer a workload never calls reads 0 s.
SECONDS_OF = {
    "generator": "generator.suite_s",
    "history": "history.plan_s",
    "mutation.generate": "generate.s",
    "mutation.coverage": "reference.s",
    "mutation.triage": "triage.s",
    "mutation.analysis": "analysis.s",
    "harness.executor": "case.s",
    "mutation.equivalence": "equivalence.s",
    "mutation.cache.key": "cache.key_s",
    "mutation.cache.lookup": "cache.lookup_s",
    "mutation.cache.store": "cache.store_s",
    "mutation.parallel": "pool.run_s",
    "scenarios": "sweep.materialize_s",
    "report": "report.s",
}


@dataclass(frozen=True)
class Workload:
    """How to run a workload; why it exists is stated in BENCHMARK.json."""

    kind: str             # child.py --kind
    warm: bool = False    # measured against the store a cold run filled
    seeded: bool = True   # whether --seed changes its inputs
    # Executes mutants on the worker pool, so it gets every CPU.  The warm
    # runs do not: their store answers every mutant and scenario.
    pool: bool = False


WORKLOADS: Dict[str, Workload] = {
    "table1": Workload("table1", seeded=False),
    "table2": Workload("table2"),
    "table2-par": Workload("table2-par", pool=True),
    "table2-par-warm": Workload("table2-par", warm=True),
    "table3": Workload("table3"),
    "sweep-smoke": Workload("sweep-smoke", seeded=False, pool=True),
    "sweep-smoke-warm": Workload("sweep-smoke", warm=True, seeded=False),
}

#: Facts every run of a kind must show, at any seed.
INVARIANTS: Dict[str, Dict[str, Any]] = {
    "table2": {"mutants": 709},
    "table2-par": {"mutants": 709},
    "table3": {"mutants": 176},
    "sweep-smoke": {"scenarios": 102, "oracle_failures": 0, "errors": 0},
}

#: The reproduced paper numbers, at the default seed.
HEADLINES: Dict[str, Dict[str, Any]] = {
    "table2": {"mutants": 709, "killed": 561, "equivalent": 59,
               "score": "86.3%", "step_timeouts": 39},
    "table2-par": {"killed": 561, "step_timeouts": 39},
    "table3": {"mutants": 176, "score": "72.7%"},
}


class BenchError(Exception):
    """The benchmark cannot run at all."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def short_hashes(lines: Sequence[str]) -> List[str]:
    return [sha256(line)[:10] for line in lines]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def host_stamp() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": nproc(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def load_spec() -> Dict[str, Any]:
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {SPEC.name}: {error}") from error
    names = [metric["name"]
             for group in ("end_to_end", "per_layer")
             for metric in spec[group]]
    bad = [name for name in names if not valid_metric_name(name)]
    if bad:
        raise BenchError(f"invalid metric names in {SPEC.name}: {bad}")
    unknown = [item["name"] for item in spec["workloads"]
               if item["name"] not in WORKLOADS]
    if unknown:
        raise BenchError(f"{SPEC.name} names unknown workloads: {unknown}")
    return spec


def load_golden() -> Dict[str, Any]:
    if not GOLDEN.exists():
        return {"python": platform.python_version(), "entries": {}}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def golden_key(name: str, seed: int) -> str:
    """Warm runs must reproduce their cold run, so both share one entry."""
    workload = WORKLOADS[name]
    return f"{workload.kind}@{seed}" if workload.seeded else workload.kind


def same_python(version: str) -> bool:
    return (version.split(".")[:2]
            == platform.python_version().split(".")[:2])


def first_difference(left: Sequence[str], right: Sequence[str]) -> str:
    for index, (one, other) in enumerate(zip(left, right)):
        if one != other:
            return f"line {index + 1}: {one[:160]!r} != {other[:160]!r}"
    if len(left) != len(right):
        return f"{len(left)} lines != {len(right)} lines"
    return "no difference"


def first_golden_difference(lines: Sequence[str],
                            golden: Sequence[str]) -> str:
    """The first line whose short hash differs from the golden one."""
    for index, (line, digest) in enumerate(zip(lines, short_hashes(lines))):
        if index >= len(golden) or digest != golden[index]:
            return f"first differing line {index + 1}: {line[:160]!r}"
    return f"{len(lines)} lines, golden has {len(golden)}"


# -- child processes ----------------------------------------------------------


@dataclass
class ChildRun:
    """One child process, as the parent saw it.

    ``wall_s`` and ``setup_s`` are in seconds at the reference speed: the
    host's own seconds (``host_wall_s``, ``host_setup_s``) times the speed
    factor the monitor measured over the same interval.
    """

    workload: str
    mode: str
    t_spawn: float
    load_before: float
    load_after: float = 0.0
    problem: str = ""
    data: Dict[str, Any] = field(default_factory=dict)
    failed: int = 0
    speed: float = 1.0
    setup_speed: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problem

    @property
    def host_wall_s(self) -> float:
        return self.data["t_done"] - self.t_spawn

    @property
    def host_setup_s(self) -> float:
        return self.data["t_ready"] - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.host_wall_s * self.speed

    @property
    def setup_s(self) -> float:
        return self.host_setup_s * self.setup_speed

    @property
    def ops(self) -> int:
        return self.data.get("ops", 0)

    def record(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "mode": self.mode,
            "load_before": self.load_before,
            "load_after": self.load_after,
            "problem": self.problem,
            "ops": self.ops,
            "failed": self.failed,
        }
        if "t_done" in self.data:
            entry.update(wall_s=self.wall_s, setup_s=self.setup_s,
                         host_wall_s=self.host_wall_s,
                         host_setup_s=self.host_setup_s, speed=self.speed,
                         peak_rss_mb=self.data["rss_mb"],
                         cpu_s=self.data["cpu_s"])
        return entry


class SpeedMonitor:
    """Measures how fast the host runs while children run.

    On a shared host the CPU speed a process gets swings by more than
    half within seconds, with the other tenants' load.  Every
    ``PROBE_PERIOD_S`` a thread of the parent times ``benchlib.probe`` on
    the CPU the child is pinned to, or on each CPU in turn while a
    parallel child uses them all; a child's times are then rescaled by
    the mean probe speed over their interval.  Waking, the probe takes
    the CPU from the child for about a quarter of a millisecond, about
    1 % of the child's time whatever the program does.
    """

    def __init__(self, cpus: Sequence[int]):
        self.cpus: Tuple[int, ...] = tuple(cpus)
        self.samples: List[Tuple[float, float]] = []
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="speed-monitor", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        samples = list(self.samples)
        if not samples:
            raise BenchError("the speed monitor took no samples")
        return speed_factor(samples, start, end)

    def _sample(self) -> None:
        turn, pinned = 0, None
        while not self._stopping.wait(PROBE_PERIOD_S):
            cpus = self.cpus
            cpu = cpus[turn % len(cpus)]
            turn += 1
            if cpu != pinned:
                # Pid 0 is this thread alone, not the whole parent.
                os.sched_setaffinity(0, {cpu})
                pinned = cpu
            seconds = probe()
            self.samples.append((time.monotonic() - seconds / 2.0, seconds))


def _reap_group(group: int) -> None:
    """Kill whatever is left of a child's process group and wait until
    the group is empty (pool workers of a child that died)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(group, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


class Bench:
    """One invocation: a scratch directory, the goldens, the problems and
    the speed monitor, which runs while the ``with`` block does."""

    def __init__(self, seed: int, work: Path, check_golden: bool = True):
        self.seed = seed
        self.work = work
        self.golden = load_golden() if check_golden else None
        self.problems: List[str] = []
        self.expected_ops: Dict[str, int] = {}
        self._count = 0
        self.cpus = tuple(sorted(os.sched_getaffinity(0)))
        self.monitor = SpeedMonitor(self.cpus)

    def __enter__(self) -> "Bench":
        self.monitor.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.monitor.stop()

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        path = self.work / f"{label}-{self._count}"
        path.mkdir(parents=True)
        return path

    def spawn(self, name: str, mode: str, state: Path,
              pool: Optional[bool] = None) -> ChildRun:
        self._count += 1
        out = self.work / f"result-{self._count}.json"
        command = [
            sys.executable, str(CHILD),
            "--kind", WORKLOADS[name].kind, "--mode", mode,
            "--seed", str(self.seed), "--state", str(state),
            "--workers", str(len(self.cpus)), "--out", str(out),
        ]
        # A child working in one process shares one CPU with the monitor,
        # so the probe sees the speed the child gets; one that runs the
        # pool may use every CPU, and the monitor probes each in turn.
        if WORKLOADS[name].pool if pool is None else pool:
            self.monitor.cpus = self.cpus
        else:
            self.monitor.cpus = self.cpus[-1:]
            command += ["--cpu", str(self.cpus[-1])]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # Children cache bytecode, so that set-up is interpreter start and
        # imports as users see them, not compiling every module afresh.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        run = ChildRun(name, mode, t_spawn=0.0,
                       load_before=os.getloadavg()[0])
        run.t_spawn = time.monotonic()
        process = subprocess.Popen(
            command, env=env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=RUN_TIMEOUT_S)
            if process.returncode != 0:
                lines = stderr.decode("utf-8", "replace").strip().splitlines()
                run.problem = (f"exit code {process.returncode}: "
                               + (lines[-1] if lines else "no output"))
        except subprocess.TimeoutExpired:
            run.problem = f"timed out after {RUN_TIMEOUT_S:.0f} s"
            _reap_group(process.pid)
            process.communicate()
        finally:
            _reap_group(process.pid)
        run.load_after = os.getloadavg()[0]
        if run.ok:
            run.data = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
            run.setup_speed = self.monitor.factor(run.t_spawn,
                                                  run.data["t_ready"])
            if mode != "setup":
                run.speed = self.monitor.factor(run.t_spawn,
                                                run.data["t_done"])
        return run

    def setup_samples(self, name: str, count: int = SETUP_PROBES) -> List[float]:
        """Set-up time of ``count`` fresh set-up-only children."""
        samples = []
        state = self.fresh_dir("setup")
        for _ in range(count):
            child = self.spawn(name, "setup", state)
            if child.ok:
                samples.append(child.setup_s)
            else:
                self.problems.append(f"{name}: set-up probe {child.problem}")
        shutil.rmtree(state, ignore_errors=True)
        return samples

    def prepare(self, name: str) -> Optional[ChildRun]:
        """For a warm workload, fill its store with one cold run; the
        warm runs must reproduce that run's output exactly."""
        if not WORKLOADS[name].warm:
            return None
        state = self.fresh_dir("warm")
        cold = self.spawn(name, "run", state, pool=True)
        cold.data["state"] = str(state)
        self.check(name, cold, reference=None, warm=False)
        if not cold.ok:
            raise BenchError(f"{name}: cold run to fill the store failed: "
                             f"{cold.problem}")
        return cold

    def measure(self, name: str, mode: str,
                prepared: Optional[ChildRun],
                reference: Optional[ChildRun]) -> ChildRun:
        """One measured child: warm workloads reuse the prepared store,
        cold ones get an empty directory of their own."""
        if prepared is not None:
            run = self.spawn(name, mode, Path(prepared.data["state"]))
        else:
            state = self.fresh_dir("cold")
            run = self.spawn(name, mode, state)
            shutil.rmtree(state, ignore_errors=True)
        self.check(name, run, reference or prepared,
                   warm=prepared is not None)
        return run

    # -- output checks --------------------------------------------------

    def check(self, name: str, run: ChildRun,
              reference: Optional[ChildRun], warm: bool) -> None:
        """Golden, invariant and self-consistency checks.  A run that
        fails any of them counts every one of its operations as failed;
        scenario error rows count one each regardless."""
        problems = [run.problem] if run.problem else []
        if run.ok:
            self.expected_ops.setdefault(name, run.ops)
            problems += self._fact_problems(name, run.data["facts"], warm)
            problems += self._golden_problems(name, run.data)
            if reference is not None and reference.ok:
                problems += self._consistency_problems(run, reference)
        if problems:
            run.failed = run.ops or self.expected_ops.get(name, 1)
            self.problems += [f"{name} ({run.mode}): {problem}"
                              for problem in problems]
        else:
            run.failed = run.data["op_errors"]

    def _fact_problems(self, name: str, facts: Dict[str, Any],
                       warm: bool) -> List[str]:
        workload = WORKLOADS[name]
        expected = dict(INVARIANTS.get(workload.kind, {}))
        if self.seed == DEFAULT_SEED or not workload.seeded:
            expected.update(HEADLINES.get(workload.kind, {}))
        if workload.kind == "table2-par":
            expected.update({"cache_misses": 0,
                             "cache_hits": facts.get("dispatched")}
                            if warm else {"cache_hits": 0})
        elif workload.kind == "sweep-smoke":
            expected.update({"scenario_misses": 0,
                             "scenario_hits": facts.get("scenarios")}
                            if warm else {"scenario_hits": 0})
        return [f"{key} = {facts.get(key)!r}, expected {value!r}"
                for key, value in expected.items()
                if facts.get(key) != value]

    def _golden_problems(self, name: str, data: Dict[str, Any]) -> List[str]:
        if self.golden is None or not same_python(self.golden["python"]):
            return []
        entry = self.golden["entries"].get(golden_key(name, self.seed))
        if entry is None:
            return []
        problems = []
        for field_name, text in (("output", data["output"]),
                                 ("verdicts", "\n".join(data["verdicts"]))):
            if sha256(text) == entry[f"{field_name}_sha256"]:
                continue
            detail = "no per-line golden for this seed"
            if field_name in entry.get("lines", {}):
                lines = data["records" if field_name == "output"
                             else "verdicts"]
                detail = first_golden_difference(lines,
                                                 entry["lines"][field_name])
            problems.append(f"{field_name} differs from golden ({detail})")
        return problems

    @staticmethod
    def _consistency_problems(run: ChildRun,
                              reference: ChildRun) -> List[str]:
        problems = []
        for key in ("records", "verdicts"):
            if run.data[key] != reference.data[key]:
                problems.append(
                    f"{key} differ from the {reference.mode} run: "
                    + first_difference(run.data[key], reference.data[key])
                )
        if run.data["output"] != reference.data["output"] and not problems:
            problems.append(f"output differs from the {reference.mode} run")
        return problems


def by_spec(spec: Dict[str, Any], group: str,
            values: Dict[str, float]) -> Dict[str, float]:
    """``values`` in the order BENCHMARK.json lists the group's metrics,
    which must be exactly the metrics measured."""
    names = [metric["name"] for metric in spec[group]]
    if set(names) != set(values):
        raise BenchError(f"{group} metrics of {SPEC.name} and the measured "
                         f"ones differ: {sorted(set(names) ^ set(values))}")
    return {name: values[name] for name in names}


def layer_report(traced: ChildRun, untraced_wall: float) -> Dict[str, Any]:
    """The traced run's self time by layer, with set-up and the
    unattributed remainder, and its per-layer metrics.  Every time is
    rescaled by the traced run's speed factor, so that the rows still
    add up to its ``wall_s``."""
    wall = traced.wall_s
    scale = traced.speed
    layers = {layer: seconds * scale
              for layer, seconds in traced.data["layers"].items()}
    layers["setup"] = traced.host_setup_s * scale
    named = sum(seconds for layer, seconds in layers.items()
                if layer != "unattributed")
    layers["unattributed"] = wall - named
    metrics = {seconds: layers.get(layer, 0.0)
               for layer, seconds in SECONDS_OF.items()}
    metrics.update(traced.data["metrics"])
    for name in HOST_TIMES:
        metrics[name] *= scale
    metrics["run.cpu_s"] = traced.data["cpu_s"] * scale
    metrics["run.unattributed_s"] = layers["unattributed"]
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1.0
    return {
        "wall_s": wall,
        "attributed_frac": (wall - layers["unattributed"]) / wall,
        "layers": layers,
        "metrics": metrics,
        "mutant_tail_pct": traced.data["mutant_tail_pct"],
    }


# -- one workload, one JSON result line ---------------------------------------


def single(arguments: argparse.Namespace, spec: Dict[str, Any]) -> int:
    name = arguments.workload
    with scratch() as work, Bench(arguments.seed, work) as bench:
        prepared = bench.prepare(name)
        runs: List[ChildRun] = []
        setups: List[float] = []
        if arguments.trace:
            plain = bench.measure(name, "run", prepared, None)
            traced = bench.measure(name, "trace", prepared, plain)
            runs = [plain, traced]
        else:
            bench.setup_samples(name, 1)  # the unmeasured warm-up child
            setups = bench.setup_samples(name)
            # Runs are whole, so the window is filled up to the end of the
            # run that crosses it: a 9 s workload gets two runs in 10 s.
            started = time.monotonic()
            while True:
                runs.append(bench.measure(name, "run", prepared,
                                          runs[0] if runs else None))
                if time.monotonic() - started >= arguments.seconds:
                    break
            setups += [run.setup_s for run in runs if run.ok]
    good = [run for run in runs if run.ok]
    measured = len(good) == 2 if arguments.trace else bool(good and setups)
    if not measured:
        for problem in bench.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return 1
    if arguments.trace:
        values = layer_report(runs[1], runs[0].wall_s)["metrics"]
        group = "per_layer"
    else:
        values = {
            "wall_s": summarize([run.wall_s for run in good])["median"],
            "setup_s": summarize(setups)["median"],
            "peak_rss_mb": summarize(
                [run.data["rss_mb"] for run in good])["median"],
        }
        group = "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    metrics = {metric_name: {"value": value, "unit": units[metric_name]}
               for metric_name, value in by_spec(spec, group, values).items()}
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for metric_name, metric in metrics.items():
        print(f"{name} {metric_name} {metric['value']:.6g} {metric['unit']}")
    print(f"{name} host-time wall "
          f"{summarize([run.host_wall_s for run in good])['median']:.6g} s, "
          f"speed factor {summarize([run.speed for run in good])['median']:.4f}"
          f", {len(good)} runs")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": sum(run.ops or bench.expected_ops.get(name, 1)
                         for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0


# -- the full run: every workload, repeats, traced runs -----------------------


def full(arguments: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = arguments.workloads or [item["name"] for item in spec["workloads"]]
    repeats = 1 if arguments.record_golden else arguments.repeats
    with scratch() as work, Bench(
            arguments.seed, work,
            check_golden=not arguments.record_golden) as bench:
        probes = 0 if arguments.record_golden else SETUP_PROBES
        setups: Dict[str, List[float]] = {}
        for name in names if probes else ():
            bench.setup_samples(name, 1)  # the unmeasured warm-up child
            setups[name] = []
        prepared = {name: bench.prepare(name) for name in names}
        runs: Dict[str, List[ChildRun]] = {name: [] for name in names}
        # Probes and measured runs alternate, workloads round-robin, so
        # that every metric samples the whole window.
        for _ in range(repeats):
            for name in names:
                if probes:
                    setups[name] += bench.setup_samples(name, probes)
                first = runs[name][0] if runs[name] else None
                runs[name].append(
                    bench.measure(name, "run", prepared[name], first))
        for name in setups:
            setups[name] += [run.setup_s for run in runs[name] if run.ok]
        traces = {}
        if not arguments.record_golden:
            for name in names:
                good = [run for run in runs[name] if run.ok]
                if not good:
                    continue
                traced = bench.measure(name, "trace", prepared[name], good[0])
                if traced.ok:
                    untraced = summarize([run.wall_s for run in good])
                    traces[name] = layer_report(traced, untraced["median"])
                    traces[name]["metrics"] = by_spec(
                        spec, "per_layer", traces[name]["metrics"])
        cross_check(bench, runs)
    report = {
        "schema": "e2e-bench/1",
        "host": host_stamp(),
        "seed": arguments.seed,
        "repeats": repeats,
        "workloads": {},
        "problems": bench.problems,
    }
    max_load = 0.0
    for name in names:
        good = [run for run in runs[name] if run.ok]
        attempted = sum(run.ops or bench.expected_ops.get(name, 1)
                        for run in runs[name])
        failed = sum(run.failed for run in runs[name])
        samples = {
            "wall_s": [run.wall_s for run in good],
            "setup_s": setups.get(name, []),
            "peak_rss_mb": [run.data["rss_mb"] for run in good],
            # One value per set: under a zero bound, a single failed run
            # must show, which a median over runs would hide.
            "failed_frac": [failed / max(1, attempted)],
            # What the host's clock read and the factor that rescaled it;
            # shown, never compared.
            "host_wall_s": [run.host_wall_s for run in good],
            "speed": [run.speed for run in good],
        }
        units = {metric["name"]: metric["unit"]
                 for metric in spec["end_to_end"]}
        units.update(failed_frac=FAILED_FRAC["unit"], host_wall_s="s",
                     speed="ratio")
        report["workloads"][name] = {
            "metrics": {
                metric: dict(summarize(values), unit=units[metric],
                             samples=values)
                for metric, values in samples.items() if values
            },
            "attempted": attempted,
            "failed": failed,
            "runs": [run.record() for run in runs[name]],
            "trace": traces.get(name),
        }
        for run in runs[name]:
            max_load = max(max_load, run.load_before, run.load_after)
    report["max_load"] = max_load
    report["loaded"] = max_load > nproc()
    print_report(report, spec)
    if arguments.record_golden:
        record_golden(bench, runs)
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(report, indent=1) + "\n",
                                       encoding="utf-8")
    return 1 if bench.problems else 0


def cross_check(bench: Bench, runs: Dict[str, List[ChildRun]]) -> None:
    """Serial and parallel engines must agree on every Table-2 verdict."""
    serial = [run for run in runs.get("table2", ()) if run.ok]
    parallel = [run for run in runs.get("table2-par", ()) if run.ok]
    if serial and parallel and (serial[0].data["verdicts"]
                                != parallel[0].data["verdicts"]):
        bench.problems.append(
            "table2-par verdicts differ from table2: " + first_difference(
                parallel[0].data["verdicts"], serial[0].data["verdicts"]))
        for run in runs["table2-par"]:
            run.failed = run.ops


def record_golden(bench: Bench, runs: Dict[str, List[ChildRun]]) -> None:
    if bench.problems:
        raise BenchError("not recording goldens from a run that failed")
    golden = load_golden()
    if not same_python(golden["python"]):
        golden = {"python": platform.python_version(), "entries": {}}
    golden["python"] = platform.python_version()
    for name, workload_runs in runs.items():
        data = workload_runs[0].data
        entry = {
            "output_sha256": sha256(data["output"]),
            "verdicts_sha256": sha256("\n".join(data["verdicts"])),
        }
        if bench.seed == DEFAULT_SEED or not WORKLOADS[name].seeded:
            entry["lines"] = {"output": short_hashes(data["records"]),
                              "verdicts": short_hashes(data["verdicts"])}
        golden["entries"][golden_key(name, bench.seed)] = entry
    # One entry per line keeps the file small and its diffs readable.
    lines = [f"{json.dumps(key)}: {json.dumps(entry, separators=(',', ':'))}"
             for key, entry in sorted(golden["entries"].items())]
    GOLDEN.write_text(
        f'{{"python": {json.dumps(golden["python"])}, "entries": {{\n'
        + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"recorded golden entries for seed {bench.seed}: "
          f"{', '.join(sorted(runs))}")


def print_report(report: Dict[str, Any], spec: Dict[str, Any]) -> None:
    host = report["host"]
    print(f"host: cpu_count={host['cpu_count']} affinity={host['affinity']} "
          f"python={host['python']} commit={host['commit'][:12]} "
          f"seed={report['seed']} max_load={report['max_load']:.2f}"
          + ("  [LOADED: load exceeded nproc]" if report["loaded"] else ""))
    print(f"{'workload':<18} {'metric':<12} {'unit':<6} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'min':>10} {'max':>10} {'n':>3}")
    for name, entry in report["workloads"].items():
        for metric, summary in entry["metrics"].items():
            print(f"{name:<18} {metric:<12} {summary['unit']:<6} "
                  + " ".join(f"{summary[key]:>10.4f}"
                             for key in ("median", "q1", "q3", "min", "max"))
                  + f" {summary['n']:>3}")
    traced = {name: entry["trace"]
              for name, entry in report["workloads"].items() if entry["trace"]}
    if traced:
        layer_names = sorted({layer for trace in traced.values()
                              for layer in trace["layers"]})
        print("\nself time by layer (s), traced run")
        print(f"{'layer':<22}" + "".join(f"{name:>18}" for name in traced))
        for layer in layer_names:
            print(f"{layer:<22}" + "".join(
                f"{trace['layers'].get(layer, 0.0):>18.4f}"
                for trace in traced.values()))
        print(f"{'wall':<22}" + "".join(f"{trace['wall_s']:>18.4f}"
                                        for trace in traced.values()))
        print(f"{'attributed share':<22}" + "".join(
            f"{trace['attributed_frac']:>18.1%}" for trace in traced.values()))
        print("\nper-layer metrics, traced run")
        for metric in spec["per_layer"]:
            print(f"{metric['name']:<24}" + "".join(
                f"{trace['metrics'][metric['name']]:>18.6g}"
                for trace in traced.values()) + f"  {metric['unit']}")
        print(f"{'mutant.tail_ms is p':<24}" + "".join(
            f"{trace['mutant_tail_pct'] or '-':>18}"
            for trace in traced.values()) + "  of mutant.count mutants")
    for problem in report["problems"]:
        print(f"FAILED {problem}")


# -- compare ------------------------------------------------------------------


def compare_files(base_path: str, new_path: str,
                  spec: Dict[str, Any]) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    rules = {metric["name"]: metric for metric in spec["end_to_end"]}
    rules["failed_frac"] = dict(FAILED_FRAC, name="failed_frac")
    print(f"{'workload':<18} {'metric':<12} {'base median [q1, q3] n':>30} "
          f"{'new median [q1, q3] n':>30}  verdict")
    worse = 0
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            print(f"{name:<18} missing from {new_path}")
            continue
        for metric, rule in rules.items():
            if metric not in entry["metrics"] or metric not in other["metrics"]:
                continue
            result = compare(entry["metrics"][metric]["samples"],
                             other["metrics"][metric]["samples"],
                             rule["better"], rule["bound"],
                             FLOORS.get(metric, 0.0))
            worse += result["verdict"] == "worse"
            cells = [
                f"{side['median']:.4f} [{side['q1']:.4f}, {side['q3']:.4f}] "
                f"{side['n']}"
                for side in (result["base"], result["new"])
            ]
            print(f"{name:<18} {metric:<12} {cells[0]:>30} {cells[1]:>30}  "
                  f"{result['verdict']}")
    return 1 if worse else 0


# -- entry point --------------------------------------------------------------


@contextmanager
def scratch() -> Iterator[Path]:
    """A private directory under ``.work`` for one invocation."""
    path = WORK / f"{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: Tables 1-3 and the smoke sweep.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload for --seconds and print "
                             "one JSON result line")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report the per-layer "
                             "metrics of a traced run instead")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--record-golden", action="store_true")
    arguments = parser.parse_args(argv)
    if arguments.trace and not arguments.workload:
        parser.error("--trace applies only with --workload; the full run "
                     "always ends with a traced run of each workload")
    try:
        spec = load_spec()
        if arguments.compare:
            return compare_files(*arguments.compare, spec)
        if not (SRC / "repro" / "__init__.py").exists():
            raise BenchError(f"no program to measure: {SRC / 'repro'} "
                             f"is missing")
        if arguments.workload:
            return single(arguments, spec)
        return full(arguments, spec)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: plurality_run workloads end to end, plus a
traced run that times each library layer from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, both modes

Run it from the root of a checkout.  It builds the plurality library, the
plurality_run CLI and the layer-probe program from source into .bench_build/
(CMake, Release), then:

  --trace 0  runs the workload's plurality_run invocation as a child
             process, repeatedly for at least --seconds, and reports the
             end-to-end metrics (medians over the repeats).  Set-up time is
             the same invocation with the budget forced to one interaction.
  --trace 1  runs the workload once untraced through the CLI and once
             traced through the library (perfbench_probe), then the layer
             probes, and reports the per-layer metrics.

Every report is checked (schema, interaction sums, exact budgets,
convergence and correctness, byte-identical repeats and thread counts).
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when any check fails.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"
CLI = BUILD_DIR / "plurality" / "plurality_run"
PROBE = BUILD_DIR / "perfbench_probe"
SPAWN = BUILD_DIR / "perfbench_spawn"

REPORT_SCHEMA = "plurality_run/1"
METRICS_SCHEMA = "plurality_metrics/1"
SETUP_BUDGET = "1e-9"  # parallel time; n = 10^9 makes it one interaction
# Set-up runs per measurement: at least SETUP_MIN_REPEATS, continuing while
# less than SETUP_SECONDS have passed, at most SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 7
SETUP_MAX_REPEATS = 101
SETUP_SECONDS = 1.0
CHILD_TIMEOUT_S = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    params: tuple[str, ...]  # scenario flags, as plurality_run takes them
    backend: str
    trials: int
    threads: int
    # Thread count of the untimed determinism re-run; None = no re-run.
    check_threads: int | None = None

    @property
    def n(self) -> int:
        return int(self.params[self.params.index("--n") + 1])

    @property
    def budget(self) -> float | None:
        """The parallel-time budget every trial must use up exactly; None
        when the trials run to convergence and must reach the right answer."""
        if "--time-budget" not in self.params:
            return None
        return float(self.params[self.params.index("--time-budget") + 1])


MANY_SMALL_THREADS = min(4, os.cpu_count() or 1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ordered-agent",
            why="The paper's protocol end to end at bias 1 on one thread: "
            "core delta and the agent scheduler, no sampler or leap work.",
            scenario="plurality/ordered",
            params=("--n", "10000", "--k", "4", "--workload", "bias1", "--bias", "1"),
            backend="agent",
            trials=4,
            threads=1,
        ),
        Workload(
            name="ordered-leap",
            why="The randomized-delta group path at n = 10^9 on the leap backend, "
            "each trial capped at exactly 5e8 interactions.",
            scenario="plurality/ordered",
            params=("--n", "1000000000", "--k", "4", "--workload", "bias1", "--bias", "1",
                    "--time-budget", "0.5"),
            backend="leap",
            trials=2,
            threads=1,
            check_threads=2,
        ),
        Workload(
            name="majority-leap",
            why="The same leap layer through the deterministic-delta path: "
            "sampler-bound, no outcome-table work; run to convergence.",
            scenario="majority/three-state",
            params=("--n", "1000000000", "--bias", "10000000"),
            backend="leap",
            trials=2,
            threads=1,
            check_threads=2,
        ),
        Workload(
            name="many-small",
            why="Many short requests over the trial executor: per-trial set-up, "
            "dispatch, summary and a large JSON report are a visible share.",
            scenario="epidemic/broadcast",
            params=("--n", "1000"),
            backend="agent",
            trials=20_000,
            threads=MANY_SMALL_THREADS,
            check_threads=1 if MANY_SMALL_THREADS > 1 else 2,
        ),
    )
}

# name -> (unit, better); the same lists BENCHMARK.json records.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "interactions_per_s": ("1/s", "higher"),
    "trials_per_s": ("1/s", "higher"),
    "success_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

LEAP_METRICS = {
    "interactions_per_s": ("1/s", "higher"),
    "run_us": ("us", "lower"),
    "runs": ("count", "lower"),
    "run_length_mean": ("count", "higher"),
    "occupied_states_hwm": ("count", "lower"),
    "delta_grouped_share": ("ratio", "higher"),
    "delta_fallback_share": ("ratio", "lower"),
    "absorbed_share": ("ratio", "higher"),
    "outcome_table_hit_ratio": ("ratio", "higher"),
}

# layer -> {metric: (unit, better)}
PER_LAYER = {
    "scenario": {
        "scenario.trial_s": ("s", "lower"),
        "scenario.overhead_s": ("s", "lower"),
        "scenario.json_report_s": ("s", "lower"),
        "scenario.json_report_bytes": ("bytes", "lower"),
    },
    "sim.trial_executor": {
        "executor.thread_utilization": ("ratio", "higher"),
        "executor.dispatch_ns": ("ns", "lower"),
    },
    "core": {"core.delta_ns": ("ns", "lower")},
    "sim.agent": {"agent.interactions_per_s": ("1/s", "higher")},
    "sim.rng": {
        "rng.word_ns": ("ns", "lower"),
        "rng.words_per_interaction": ("ratio", "lower"),
    },
    "sim.random_dist": {
        "dist.run_length_leap_ns": ("ns", "lower"),
        "dist.mvh3_ns": ("ns", "lower"),
        "dist.mvh80_ns": ("ns", "lower"),
        "dist.hypergeometric_wide_ns": ("ns", "lower"),
        "dist.multinomial_ns": ("ns", "lower"),
    },
    "sim.delta_outcomes": {"delta_outcomes.enumerate_us": ("us", "lower")},
    "sim.leap": {
        f"leap.{protocol}.{name}": spec
        for protocol in ("ordered", "majority")
        for name, spec in LEAP_METRICS.items()
    },
    "sim.convergence": {"convergence.parallel_time_p50": ("parallel-time", "lower")},
    "trace": {"trace.overhead_ratio": ("ratio", "lower")},
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"CHECK FAILED: {text}", file=sys.stderr)


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    interactions: int = 0  # total interactions of the checked report


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Runs one child process through perfbench_spawn, which times it and
    reads its peak resident set; the child's stderr goes to `log`."""
    out = subprocess.run([str(SPAWN), str(CHILD_TIMEOUT_S), str(log), *argv], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True, text=True).stdout.split()
    return ChildRun(float(out[0]), int(out[1]) / 1024.0, int(out[2]))


def build() -> None:
    """Builds the CLI and the probe program from the checkout's sources."""
    missing = [p for p in ("CMakeLists.txt", "src", "apps/plurality_run.cpp")
               if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"perfbench: not a checkout of the repository (missing {', '.join(missing)})")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log, "wb") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                sys.exit("perfbench: build failed:\n" + "\n".join(tail))


def cli_argv(w: Workload, seed: int, out_dir: Path, *, threads: int | None = None,
             budget: str | None = None) -> list[str]:
    params = list(w.params)
    if budget is not None:
        if "--time-budget" in params:
            params[params.index("--time-budget") + 1] = budget
        else:
            params += ["--time-budget", budget]
    return [str(CLI), "--scenario", w.scenario, *params, "--backend", w.backend,
            "--trials", str(w.trials), "--seed", str(seed),
            "--threads", str(threads or w.threads),
            "--out", str(out_dir / "report.json"), "--metrics", str(out_dir / "metrics.json")]


def interaction_budget(time_budget: float, n: int) -> int:
    """sim::interaction_budget: the interactions a parallel-time budget allows."""
    return int(time_budget * float(n))


def load_json(path: Path, tally: Tally) -> dict | None:
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError) as error:
        tally.problem(f"{path.name}: cannot parse ({error})")
        return None


def check_outputs(w: Workload, out_dir: Path, tally: Tally, *, setup: bool = False) -> int:
    """Checks one invocation's report and sidecar; counts its trials.

    Returns the report's total interactions (0 when it is unusable).  A
    trial fails when it misses its exact interaction budget or, on a
    convergence workload, does not converge to the right answer."""
    report = load_json(out_dir / "report.json", tally)
    sidecar = load_json(out_dir / "metrics.json", tally)
    if not setup:
        tally.attempted += w.trials
    if report is None or sidecar is None:
        if not setup:
            tally.failed += w.trials
        return 0
    where = f"{w.name}{' set-up' if setup else ''}"
    trials = report.get("trials", [])
    expect = {"schema": REPORT_SCHEMA, "scenario": w.scenario, "backend": w.backend}
    for key, value in expect.items():
        if report.get(key) != value:
            tally.problem(f"{where}: report {key} is {report.get(key)!r}, expected {value!r}")
    if len(trials) != w.trials:
        tally.problem(f"{where}: report holds {len(trials)} trials, expected {w.trials}")
    total = sum(t["interactions"] for t in trials)
    if total != report["summary"]["total_interactions"]:
        tally.problem(f"{where}: trial interactions sum to {total}, "
                      f"summary says {report['summary']['total_interactions']}")
    if sidecar.get("schema") != METRICS_SCHEMA:
        tally.problem(f"{where}: sidecar schema is {sidecar.get('schema')!r}")
    counters = sidecar.get("deterministic", {}).get("counters", {})
    if counters.get("interactions_total") != total:
        tally.problem(f"{where}: sidecar counts {counters.get('interactions_total')} "
                      f"interactions, report {total}")
    if w.backend == "leap":
        paths = sum(counters.get(name, 0) for name in (
            "delta_deterministic_interactions_total", "delta_grouped_interactions_total",
            "delta_fallback_interactions_total", "collisions_total",
            "absorbed_fast_path_interactions_total"))
        if paths != total:
            tally.problem(f"{where}: leap delta paths cover {paths} of {total} interactions")
    if setup:
        exact = interaction_budget(float(SETUP_BUDGET), w.n)
        for t in trials:
            if t["interactions"] != exact:
                tally.problem(f"{where}: trial {t['trial']} ran {t['interactions']} "
                              f"interactions, expected {exact}")
        return total
    failed = 0
    for t in trials:
        if w.budget is not None:
            ok = t["interactions"] == interaction_budget(w.budget, w.n)
        else:
            ok = t["converged"] and t["correct"]
        failed += not ok
    failed += max(0, w.trials - len(trials))
    if failed:
        tally.problem(f"{w.name}: {failed} of {w.trials} trials failed")
    tally.failed += failed
    return total


def invoke(w: Workload, seed: int, out_dir: Path, tally: Tally, *, setup: bool = False,
           threads: int | None = None) -> ChildRun:
    """One checked plurality_run invocation writing into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("report.json", "metrics.json"):
        (out_dir / stale).unlink(missing_ok=True)
    argv = cli_argv(w, seed, out_dir, threads=threads, budget=SETUP_BUDGET if setup else None)
    run = run_child(argv, out_dir / "stderr.log")
    if run.returncode != 0:
        tally.problem(f"{w.name}: plurality_run exited with {run.returncode}: "
                      f"{(out_dir / 'stderr.log').read_text(errors='replace').strip()[-300:]}")
    try:
        run.interactions = check_outputs(w, out_dir, tally, setup=setup)
    except (KeyError, TypeError, AttributeError) as error:
        tally.problem(f"{w.name}: malformed output ({error!r})")
        if not setup:
            tally.failed += w.trials
    return run


def deterministic_half(path: Path) -> object:
    try:
        return json.loads(path.read_bytes()).get("deterministic")
    except (OSError, ValueError):
        return None


def same_outputs(a: Path, b: Path, what: str, tally: Tally) -> None:
    """Reports must match byte for byte; sidecars in their deterministic half."""
    if (a / "report.json").read_bytes() != (b / "report.json").read_bytes():
        tally.problem(f"{what}: reports differ")
    if deterministic_half(a / "metrics.json") != deterministic_half(b / "metrics.json"):
        tally.problem(f"{what}: sidecar deterministic halves differ")


def measure_end_to_end(w: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    work = RUNS_DIR / w.name
    setup_walls: list[float] = []
    started = time.perf_counter()
    while len(setup_walls) < SETUP_MIN_REPEATS or (
            len(setup_walls) < SETUP_MAX_REPEATS and time.perf_counter() - started < SETUP_SECONDS):
        setup_walls.append(invoke(w, seed, work / "setup", tally, setup=True).wall_s)

    runs: list[ChildRun] = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        rep_dir = work / f"rep{len(runs)}"
        runs.append(invoke(w, seed, rep_dir, tally))
        if len(runs) > 1:
            same_outputs(work / "rep0", rep_dir, f"{w.name}: repeat {len(runs) - 1}", tally)

    if w.check_threads is not None:
        check_dir = work / "threads-check"
        invoke(w, seed, check_dir, tally, threads=w.check_threads)
        same_outputs(work / "rep0", check_dir,
                     f"{w.name}: --threads {w.threads} vs {w.check_threads}", tally)

    wall = statistics.median(r.wall_s for r in runs)
    interactions = runs[0].interactions
    ok_trials = tally.attempted - tally.failed
    print(f"{w.name}: {len(runs)} timed runs, {len(setup_walls)} set-up runs, "
          f"{interactions} interactions and {w.trials} trials per run")
    print(f"{w.name}: wall_s per run: {' '.join(f'{r.wall_s:.4f}' for r in runs)}")
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "interactions_per_s": interactions / wall,
        "trials_per_s": w.trials / wall,
        "success_rate": ok_trials / tally.attempted if tally.attempted else 0.0,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }


def measure_layers(w: Workload, seed: int, tally: Tally) -> dict:
    work = RUNS_DIR / w.name
    untraced = invoke(w, seed, work / "untraced", tally)

    traced_dir = work / "traced"
    traced_dir.mkdir(parents=True, exist_ok=True)
    argv = [str(PROBE), "--scenario", w.scenario, *w.params, "--backend", w.backend,
            "--trials", str(w.trials), "--threads", str(w.threads), "--seed", str(seed),
            "--out-dir", str(traced_dir), "--run-id", f"{w.name}/seed{seed}/0"]
    probe = run_child(argv, traced_dir / "stderr.log")
    if probe.returncode != 0:
        tally.problem(f"{w.name}: perfbench_probe exited with {probe.returncode}: "
                      f"{(traced_dir / 'stderr.log').read_text(errors='replace').strip()[-300:]}")
        return {}
    # The traced run drives the library directly; it must produce what the
    # CLI produced.
    same_outputs(work / "untraced", traced_dir, f"{w.name}: traced vs CLI", tally)

    layers = load_json(traced_dir / "layers.json", tally) or {}
    counters = (load_json(traced_dir / "metrics.json", tally) or {}).get(
        "deterministic", {}).get("counters", {})
    metrics = {k: v for k, v in layers.items() if not k.startswith("trace.")}
    interactions = counters.get("interactions_total", 0)
    metrics["rng.words_per_interaction"] = (
        counters.get("rng_words_total", 0) / interactions if interactions else 0.0)
    metrics["trace.overhead_ratio"] = layers.get("trace.traced_wall_s", 0.0) / untraced.wall_s

    spans = load_json(traced_dir / "spans.json", tally) or {"spans": []}
    self_by_name: dict[str, float] = {}
    for s in spans["spans"]:
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + s["self_s"]
    print(f"{w.name}: span self time (s), traced run then layer probes")
    for name, self_s in self_by_name.items():
        print(f"  {name:48s} {self_s:12.6f}")
    print(f"{w.name}: sidecar counters of the traced run")
    for name, value in counters.items():
        print(f"  {name:48s} {value}")
    return metrics


def print_metrics(w: Workload, values: dict, spec: dict[str, tuple[str, str]]) -> None:
    for name, (unit, better) in spec.items():
        print(f"  {w.name:14s} {name:40s} {values.get(name, float('nan')):16.6g} {unit:14s} "
              f"({better} is better)")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    shutil.rmtree(RUNS_DIR / w.name, ignore_errors=True)
    tally = Tally()
    if trace:
        spec = {name: s for layer in PER_LAYER.values() for name, s in layer.items()}
        values = measure_layers(w, seed, tally)
        print(f"{w.name}: per-layer metrics (traced run)")
    else:
        spec = END_TO_END
        values = measure_end_to_end(w, seed, seconds, tally)
        failure_rate = tally.failed / tally.attempted if tally.attempted else 0.0
        print(f"{w.name}: end-to-end metrics (untraced); failure_rate = {failure_rate:g} "
              f"({tally.failed} of {tally.attempted} trials)")
    print_metrics(w, values, spec)
    missing = [name for name in spec if name not in values]
    if missing:
        tally.problem(f"{w.name}: metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in spec.items() if name in values}
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args()

    build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.workload == "all" else [False])
    total = Tally()
    metrics: dict = {}
    for name in names:
        for trace in modes:
            tally, found = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.problems += tally.problems
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: v for k, v in found.items()})
    correct = not total.problems
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

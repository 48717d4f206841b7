#!/usr/bin/env python3
"""Paired-trial benchmark of issacsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout: issacsim is imported from
``src/`` and driven in-process through its public entry point
``issacsim.cli.main`` (``cdf`` with a config, ``--seed N`` and ``--trials``).
One process, one BLAS thread. Every CLI run's CSV is checked (checks.py);
the last line of stdout is the result JSON, the line before it a record with
the environment, the CSV SHA-256 and the per-run figures. Records, CSVs and
span tables land in ``.bench_out/``.

Benchmark seed N runs the CLI with ``--seed`` 8N, 8N+1, ..., 8N+7 in turn,
so that the accuracy figures pool eight seeds' trials; every repeat of a CLI
seed must reproduce its first run's CSV bytes.

Workloads (closed loop: one CLI run after another):

* ``ref_music``    -- configs/snr_cdf.cfg, the reference point (M=32, L=3
  coherent paths, rho=3, kappa=97, -10 dB, 0.02 deg grid of 8901 points)
  with estimated angles: subarray covariances, smoothing, eigh, the MUSIC
  scan and the peak search are most of a trial.
* ``los_bartlett`` -- bench/configs/los_bartlett.cfg, the same point in LoS
  mode (l=1): a dense M x G Bartlett product and a peak search on a broad
  beam, no smoothing and no eigh, so a MUSIC-only change predicts no change
  here while a peak-search or grid change moves both.

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (the trials
of the eight CLI seeds over the sum of each seed's mean CLI run time, after
one untimed warm-up run: the whole run's rate, every seed weighted alike
however often the deadline let it repeat), ``setup_s`` (median over fresh
processes of the wall time from process start until a three-trial CLI run
has finished: import, config, spec, steering-cache fill, first trials),
``peak_rss_mb`` and ``angle_err_deg_p50`` (median absolute per-path angle
error over the non-failed trials of the seed; the median, because a
Rayleigh-faded path gives outliers that dominate a mean).

The trial loop runs on one thread and never waits, so its time is taken
from the process CPU clock: on a dedicated core that equals wall time, and
on a shared virtual machine it leaves out the time the hypervisor gives the
core to other guests (steal), which otherwise swings the rate from run to
run. The wall-clock rate and the CPU/wall ratio go into the record; a ratio
outside CPU_PER_WALL_RANGE (more than one busy thread, or work done in other
processes) stops the run, since the CPU clock would then misread the loop.

``--trace 1`` alternates untraced and traced CLI runs and reports the
per-layer metrics of layers.py, the failure figures, the tracing overhead
and a fixed numpy reference kernel.
"""

import os

# One compute thread; set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_cdf  # noqa: E402
from layers import layer_metrics, span_problems  # noqa: E402
from tracer import SpanStats, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
SETUP_TRIALS = 3
# CLI seeds per benchmark seed: the accuracy figures pool their trials.
SEEDS_PER_RUN = 8
# Acceptance criterion 6's angle tolerance (0.5 deg), applied to the median
# per-path error: a coarser or broken angle stage fails the run.
ANGLE_P50_CEILING_DEG = 0.5
# The CPU/wall ratio of the timed CLI runs that a one-thread, never-waiting
# trial loop gives, with room for steal below 1.
CPU_PER_WALL_RANGE = (0.25, 1.1)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str
    trials: int
    multipath: bool

    def argv(self, out: Path, seed: int, trials: int) -> List[str]:
        return ["cdf", "--config", str(ROOT / self.config), "--out", str(out),
                "--seed", str(seed), "--trials", str(trials)]


WORKLOADS = {w.name: w for w in (
    Workload("ref_music", "configs/snr_cdf.cfg", 200, multipath=True),
    Workload("los_bartlett", "bench/configs/los_bartlett.cfg", 200, multipath=False),
)}


def cli_seeds(seed: int) -> List[int]:
    """The ``--seed`` values one benchmark seed runs; disjoint across seeds."""
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot measure this checkout."""


def import_program():
    """Import issacsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "issacsim" / "__init__.py").is_file():
        raise BenchmarkError(f"no issacsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import issacsim.cli
    if not Path(issacsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported issacsim from {issacsim.__file__}, not {SRC}")
    return issacsim


def _failure_kind(reason: str) -> str:
    if "spectral peaks" in reason:
        return "too_few_peaks"
    if "collided" in reason:
        return "angles_collided"
    return "other"


class TrialCapture:
    """Summarizes every trial list ``collect_trials`` returns, in every namespace.

    Only the failure classification and angle errors are kept, so the
    capture holds no trial objects alive.
    """

    def __init__(self, program):
        self.reset()
        original = program.simharness.collect_trials

        def collect_trials(*args, **kwargs):
            trials = original(*args, **kwargs)
            self.trials += len(trials)
            for t in trials:
                if t.failed:
                    self.failures[_failure_kind(t.failure_reason)] += 1
                elif t.angle_errors is not None:
                    self.angle_errors.append(t.angle_errors)
            return trials

        collect_trials.__module__ = original.__module__
        collect_trials.__doc__ = original.__doc__
        self._modules = (program.simharness, program.cli)
        self._original = original
        for module in self._modules:
            if module.collect_trials is not original:
                raise BenchmarkError(f"{module.__name__}.collect_trials is already wrapped")
            module.collect_trials = collect_trials

    def uninstall(self) -> None:
        for module in self._modules:
            module.collect_trials = self._original

    def reset(self) -> None:
        self.trials = 0
        self.failures: collections.Counter = collections.Counter()
        self.angle_errors: List[np.ndarray] = []

    def outcome(self) -> "Outcome":
        errors = np.concatenate(self.angle_errors) if self.angle_errors else np.zeros(0)
        return Outcome(self.trials, dict(sorted(self.failures.items())), np.rad2deg(errors))


@dataclasses.dataclass
class Outcome:
    """What the trials of one CLI run returned: counts and angle errors (deg)."""

    trials: int
    failure_kinds: Dict[str, int]
    angle_errors_deg: np.ndarray

    @property
    def failures(self) -> int:
        return sum(self.failure_kinds.values())

    def same_as(self, other: "Outcome") -> bool:
        return (self.trials == other.trials and self.failure_kinds == other.failure_kinds
                and np.array_equal(self.angle_errors_deg, other.angle_errors_deg))


def pooled(outcomes: List[Outcome]) -> Dict[str, object]:
    """Failure and accuracy figures over the trials of several CLI runs."""
    trials = sum(o.trials for o in outcomes)
    kinds = collections.Counter()
    for o in outcomes:
        kinds.update(o.failure_kinds)
    errors = np.concatenate([o.angle_errors_deg for o in outcomes])
    return {
        "trials": trials,
        "failures": sum(kinds.values()),
        "failure_kinds": dict(sorted(kinds.items())),
        "failure_rate": sum(kinds.values()) / trials,
        "angle_err_deg_p50": float(np.median(errors)) if errors.size else 0.0,
    }


@dataclasses.dataclass
class CliRun:
    seed: int
    seconds: float
    cpu_seconds: float
    csv: bytes
    problems: List[str]
    outcome: Outcome


class Runner:
    """One workload in one process: runs, checks and times CLI runs."""

    def __init__(self, program, workload: Workload, seed: int, trials: int):
        self.program = program
        self.workload = workload
        self.trials = trials
        self.out_dir = OUT_DIR / f"{workload.name}-seed{seed}"
        self.csv_path = self.out_dir / f"{workload.name}.csv"
        self.capture = TrialCapture(program)
        # First run of each CLI seed, checked in full; later runs must match it.
        self.references: Dict[int, CliRun] = {}

    def run(self, seed: int) -> CliRun:
        """One timed CLI run with ``--seed seed``."""
        self.capture.reset()
        self.csv_path.unlink(missing_ok=True)
        argv = self.workload.argv(self.csv_path, seed, self.trials)
        cli = self.program.cli
        with contextlib.redirect_stdout(io.StringIO()):
            start, cpu_start = time.perf_counter(), time.process_time()
            status = cli.main(argv)
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
        csv = self.csv_path.read_bytes() if self.csv_path.is_file() else b""
        outcome = self.capture.outcome()
        reference = self.references.get(seed)
        if reference is None:
            run = CliRun(seed, seconds, cpu_seconds, csv,
                         self._check(status, csv, outcome), outcome)
            self.references[seed] = run
            return run
        problems = [] if status == 0 else [f"CLI exit status {status}"]
        if csv != reference.csv or not outcome.same_as(reference.outcome):
            problems.append(f"seed {seed}: output differs from its first run")
        return CliRun(seed, seconds, cpu_seconds, csv, problems, outcome)

    def _check(self, status: int, csv: bytes, outcome: Outcome) -> List[str]:
        if status != 0:
            return [f"CLI exit status {status}"]
        if outcome.trials != self.trials:
            return [f"{outcome.trials} trials returned, expected {self.trials}"]
        problems = check_cdf(csv.decode("utf-8"), self.trials, outcome.failures)
        p50 = float(np.median(outcome.angle_errors_deg))
        if not p50 <= ANGLE_P50_CEILING_DEG:
            problems.append(f"median angle error {p50:.4f} deg above {ANGLE_P50_CEILING_DEG} deg")
        return problems


def setup_seconds(workload: Workload, seed: int, repeats: int) -> List[float]:
    """Fresh-process times from spawn until a three-trial CLI run has finished."""
    argv = workload.argv(OUT_DIR / f"{workload.name}-seed{seed}" / "setup.csv",
                         cli_seeds(seed)[0], SETUP_TRIALS)
    times = []
    for _ in range(repeats):
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        fields = proc.stdout.split()
        # Exit status 1 (failure rate over the ceiling) is a normal outcome
        # of a three-trial run; 2 means a config or I/O error.
        if proc.returncode != 0 or len(fields) != 2 or fields[0] not in ("0", "1"):
            raise BenchmarkError(f"setup probe failed: {proc.stdout} {proc.stderr}")
        times.append((int(fields[1]) - start) / 1e9)
    return times


def reference_kernel_ms(repeats: int = 15) -> float:
    """Median time of a fixed numpy kernel that does not touch issacsim."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 100)) + 1j * rng.standard_normal((30, 100))
    cov = a @ a.conj().T / 100
    steer = np.exp(1j * np.pi * np.arange(30)[:, None] * np.sin(np.linspace(-1.5, 1.5, 8901)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _, vecs = np.linalg.eigh(cov)
        float((np.abs(vecs[:, -3:].conj().T @ steer) ** 2).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "issacsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not its own git tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def environment(workload: Workload, seed: int, trials: int, seconds: float) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "trials_per_cli_run": trials,
        "cli_args": ["cdf", "--config", workload.config, "--trials", str(trials)],
        "cli_seeds": cli_seeds(seed),
        "run_seconds": seconds,
    }


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def loop_rate(runs: List[CliRun], trials: int, clock: str) -> float:
    """Trials per second over the CLI runs, every CLI seed weighted alike.

    Each seed's mean run time counts once, however often the deadline let
    that seed repeat, so the rate is over the same trials on every run.
    """
    times = collections.defaultdict(list)
    for r in runs:
        times[r.seed].append(getattr(r, clock))
    return trials * len(times) / sum(statistics.fmean(t) for t in times.values())


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 trials: Optional[int] = None,
                 setup_repeats: int = SETUP_REPEATS) -> Tuple[Dict, Dict]:
    """Measure one workload; returns (result, record)."""
    if seed < 0:
        raise BenchmarkError("seed must be nonnegative")
    program = import_program()
    trials = trials or workload.trials
    setup = [] if trace else setup_seconds(workload, seed, setup_repeats)
    runner = Runner(program, workload, seed, trials)
    try:
        return _measure(runner, seed, seconds, trace, setup)
    finally:
        runner.capture.uninstall()


def _measure(runner: Runner, seed: int, seconds: float, trace: bool,
             setup: List[float]) -> Tuple[Dict, Dict]:
    workload, trials = runner.workload, runner.trials
    seeds = cli_seeds(seed)
    runs: List[CliRun] = [runner.run(seeds[0])]  # warm-up, untimed
    traced: List[CliRun] = []
    tracer = Tracer()
    calib_ms = reference_kernel_ms() if trace else 0.0
    deadline = time.perf_counter() + seconds
    step = 0.0
    # Every CLI seed runs at least once after the warm-up; after that, no
    # step starts that the last one says would end past the deadline.
    while len(runs) <= len(seeds) or time.perf_counter() + step < deadline:
        step_start = time.perf_counter()
        runs.append(runner.run(seeds[len(runs) % len(seeds)]))
        if trace:
            # Same seed as the untraced run just before, so the pair compares.
            tracer.install()
            try:
                traced.append(runner.run(runs[-1].seed))
            finally:
                tracer.uninstall()
        step = time.perf_counter() - step_start

    everything = runs + traced
    problems = [p for r in everything for p in r.problems]
    tps = [trials / r.seconds for r in runs[1:]]
    cpu_per_wall = sum(r.cpu_seconds for r in runs[1:]) / sum(r.seconds for r in runs[1:])
    low, high = CPU_PER_WALL_RANGE
    if not low <= cpu_per_wall <= high:
        raise BenchmarkError(f"CPU/wall ratio {cpu_per_wall:.3f} of the trial loop is outside "
                             f"[{low}, {high}]: it is not one thread that never waits")
    references = [runner.references[s] for s in seeds]
    summary = pooled([r.outcome for r in references])
    record = {
        "environment": environment(workload, seed, trials, seconds),
        "csv_sha256": {r.seed: hashlib.sha256(r.csv).hexdigest() for r in references},
        **summary,
        "untraced_trials_per_s": [round(v, 3) for v in tps],
        "wall_trials_per_s": loop_rate(runs[1:], trials, "seconds"),
        "cpu_per_wall": cpu_per_wall,
    }
    if not trace:
        metrics = {
            "trials_per_s": _metric(loop_rate(runs[1:], trials, "cpu_seconds"), "1/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "angle_err_deg_p50": _metric(summary["angle_err_deg_p50"], "deg"),
        }
        record["setup_s"] = [round(v, 4) for v in setup]
    else:
        stats = SpanStats(tracer)
        traced_trials = trials * len(traced)
        bad_spans = span_problems(stats, traced_trials, len(traced), workload.multipath)
        if bad_spans:
            raise BenchmarkError("incomplete trace: " + "; ".join(bad_spans))
        tracer.write(runner.out_dir / "spans.npz")
        slowdown = [t.seconds / u.seconds for u, t in zip(runs[1:], traced)]
        outside_root_ms = (sum(r.seconds for r in traced) * 1e3
                           - float(stats.durations_ns("cli.main").sum()) / 1e6)
        metrics = {name: _metric(value, unit) for name, (value, unit) in
                   layer_metrics(stats, tracer.counts, traced_trials, len(traced)).items()}
        kinds = summary["failure_kinds"]
        metrics.update({
            "simharness.failures.too_few_peaks": _metric(
                kinds.get("too_few_peaks", 0) / len(seeds), "count/run"),
            "simharness.failures.angles_collided": _metric(
                kinds.get("angles_collided", 0) / len(seeds), "count/run"),
            "simharness.failure_rate": _metric(summary["failure_rate"], "ratio"),
            "calib.ref_kernel.ms": _metric(calib_ms, "ms"),
            "trace.overhead_pct": _metric((statistics.median(slowdown) - 1.0) * 100.0, "%"),
            "unattributed.ms": _metric(outside_root_ms / traced_trials, "ms/trial"),
        })
        identical = all(r.csv == runner.references[r.seed].csv for r in traced)
        if not identical:
            problems.append("traced CSV bytes differ from untraced")
        record["traced_csv_identical"] = identical
        record["traced_trials_per_s"] = [round(trials / r.seconds, 3) for r in traced]
    record["problems"] = problems[:20]
    result = {"correct": not problems, "attempted": len(everything),
              "failed": sum(bool(r.problems) for r in everything), "metrics": metrics}
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out = OUT_DIR / f"{workload.name}-seed{args.seed}" / f"result-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps({"record": record}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

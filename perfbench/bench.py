"""The oplab benchmark: seeded batch workloads of CLI jobs, closed loop, one client.

Every job is a fresh ``python -m oplab.cli`` process that runs the checked-out
``src/``; its wall time runs from spawn to exit, so import time is included.
Job kinds run round-robin.  Every output is checked: the last warm-up output of
each kind by its oracle, every timed one for byte identity with it.

``--trace 0`` reports the end-to-end metrics, with tracing off.  A reference
job that runs no oplab code (``reference_job.py``) runs before every job; the
latencies divided by its median cancel the drift of a shared machine.
``--trace 1`` alternates untraced jobs with traced ones (``traced_job.py``)
and reports per-layer self times and work counts, plus the tracing overhead.
The last line of standard output is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracles, tracer
from .workloads import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_SAMPLES = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Boundaries that must record at least one call in every traced job of a kind.
KIND_BOUNDARIES = {
    "simulate": ("serialization:measure_from_json", "serialization:borel_from_json",
                 "ensembles:run_ensemble", "ensembles:TrialLog.rows",
                 "measures:DiscreteMeasure.__init__", "measures:DiscreteMeasure.measure_of"),
    "estimate": ("serialization:measure_from_json", "serialization:borel_from_json",
                 "ensembles:run_ensemble", "ensembles:TrialLog.trace",
                 "ensembles:estimate_probability", "ensembles:min_trials"),
    "kolmogorov_sat": ("kolmogorov:kolmogorov_check", "simplex:find_feasible_point"),
    "kolmogorov_unsat": ("kolmogorov:kolmogorov_check", "simplex:find_feasible_point"),
    "entropy": ("serialization:measure_from_json", "serialization:partition_from_json",
                "measures:Partition.__init__", "measures:Partition.locate",
                "measures:DiscreteMeasure.__init__", "measures:DiscreteMeasure.measure_of",
                "information:shannon_entropy", "information:EntropyReport.rows"),
    "dissipation": ("serialization:measure_from_json", "serialization:partition_from_json",
                    "measures:lebesgue_decompose", "measures:Partition.locate",
                    "dynamics:EvolutionTrace.__init__", "dynamics:decompose_evolution",
                    "dynamics:DissipationReport.rows", "information:shannon_entropy"),
    "spectral": ("serialization:matrix_from_json", "spectral:HermitianObservable.__init__",
                 "spectral:DensityState.__init__", "spectral:spectral_measure",
                 "measures:DiscreteMeasure.__init__"),
    "validate": ("serialization:labsystem_from_json", "serialization:matrix_from_json",
                 "serialization:relations_from_json", "spectral:HermitianObservable.__init__",
                 "spectral:DensityState.__init__", "algebra:arba_validate",
                 "algebra:center_check", "algebra:embedding_check",
                 "algebra:reports_to_records"),
}

LAYER_COUNTS = {
    "cli": ("rows_written", "bytes_written"),
    "serialization": ("calls",),
    "ensembles": ("calls", "trials", "rows_yielded"),
    "kolmogorov": ("calls", "cells", "constraints", "certificate_size"),
    "simplex": ("solves", "tableau_entries"),
    "measures": ("calls", "partition_cells", "atoms_in"),
    "information": ("calls",),
    "dynamics": ("calls", "time_slices"),
    "spectral": ("calls", "eigendecompositions", "max_dim"),
    "algebra": ("calls", "conditions"),
}
# Largest value over the run's jobs, not a per-job mean.
MAX_COUNTS = {"spectral.max_dim"}
# Layers every workload reaches.  The result line carries their self times;
# other layers' self times read exactly 0 on the workloads that bypass them,
# so they are printed but left out of it.  Every count is carried.
EVERY_WORKLOAD_LAYERS = ("cli", "serialization", "measures")


@dataclass
class Run:
    wall_s: float
    exit_code: int
    maxrss_kb: int


class Launcher:
    """Client of ``launcher.py``, the small process that forks every job."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, stderr_path: Path) -> Run:
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("job launcher exited")
        return Run(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One workload's jobs, their files under ``work`` and their checks."""

    def __init__(self, workload: str, seed: int, work: Path, launcher: Launcher):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.launcher = launcher
        self.jobs = []
        self.reference = {}
        self.failures = []

    def generate(self) -> None:
        self.jobs = make_jobs(self.workload, self.seed)
        for job in self.jobs:
            self.config_path(job).write_bytes(job.config)

    def config_path(self, job) -> Path:
        return self.work / f"{job.kind}.json"

    def out_dir(self, job, traced: bool = False) -> Path:
        return self.work / ("traced" if traced else "out") / job.kind

    def run(self, job, traced: bool = False) -> Run:
        out = self.out_dir(job, traced)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cli = job.cli_args(self.config_path(job), out)
        if traced:
            argv = [sys.executable, str(HERE / "traced_job.py"), str(self.spans_path(job)), *cli]
        else:
            argv = [sys.executable, "-m", "oplab.cli", *cli]
        return self.launcher.run(argv, self.work / f"{job.kind}.stderr")

    def run_control(self) -> float:
        """Wall time of one reference job, which runs no oplab code."""
        out = self.work / "reference"
        out.mkdir(exist_ok=True)
        run = self.launcher.run([sys.executable, str(HERE / "reference_job.py"), str(out)],
                                self.work / "reference.stderr")
        if run.exit_code != 0 or not (out / "reference.csv").is_file():
            self.failures.append(f"reference job: exit code {run.exit_code}")
        return run.wall_s

    def spans_path(self, job) -> Path:
        return self.work / f"{job.kind}.spans"

    def set_reference(self, job, run: Run) -> None:
        """Check a job's output with its oracle and keep its digest."""
        out = self.out_dir(job)
        try:
            oracles.check(job, run.exit_code, out)
            self.reference[job.kind] = oracles.output_digest(job, out)
        except oracles.OracleError as exc:
            self.reference[job.kind] = None
            self.fail(job, f"oracle: {exc}")

    def verify(self, job, run: Run, traced: bool = False) -> bool:
        """Exit code and byte identity against the oracle-checked output."""
        reference = self.reference.get(job.kind)
        if reference is None:
            return self.fail(job, "no oracle-checked output to compare with")
        if run.exit_code != job.exit_code:
            return self.fail(job, f"exit code {run.exit_code}, expected {job.exit_code}")
        try:
            digest = oracles.output_digest(job, self.out_dir(job, traced))
        except oracles.OracleError as exc:
            return self.fail(job, str(exc))
        if digest != reference:
            return self.fail(job, "output differs from the oracle-checked run")
        return True

    def fail(self, job, message: str) -> bool:
        stderr = self.work / f"{job.kind}.stderr"
        detail = stderr.read_text(errors="replace").strip()[-500:] if stderr.exists() else ""
        self.failures.append(f"{job.kind}: {message}" + (f"\n{detail}" if detail else ""))
        return False

    def setup(self) -> tuple:
        """Generate the configs and run one discarded warm-up job per kind."""
        start = time.perf_counter()
        self.generate()
        warmups = [(job, self.run(job)) for job in self.jobs]
        return time.perf_counter() - start, warmups

    def rounds(self, seconds: float):
        """Yield round numbers until another round would overrun ``seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            yield done
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                return


def _tail(samples: list) -> str:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    if n < 2 * TAIL_SAMPLES:
        return f"no percentile above the median has {TAIL_SAMPLES} samples beyond it"
    value = sorted(samples)[n - TAIL_SAMPLES - 1]
    return f"p{100.0 * (n - TAIL_SAMPLES) / n:.0f}={value:.4f} s"


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(bench: Bench, loadavg: tuple) -> dict:
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "sizes": {job.kind: job.sizes for job in bench.jobs},
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
    }


def end_to_end(bench: Bench, seconds: float) -> tuple:
    setups = []
    for _ in range(SETUP_REPEATS):
        duration, warmups = bench.setup()
        setups.append(duration)
    for job, run in warmups:
        bench.set_reference(job, run)
    bench.run_control()  # warm-up, discarded

    walls = {job.kind: [] for job in bench.jobs}
    controls = []
    round_rates = []
    peak_kb = 0
    attempted = failed = 0
    for _ in bench.rounds(seconds):
        round_wall = 0.0
        for job in bench.jobs:
            controls.append(bench.run_control())
            run = bench.run(job)
            attempted += 1
            failed += not bench.verify(job, run)
            walls[job.kind].append(run.wall_s)
            round_wall += run.wall_s
            peak_kb = max(peak_kb, run.maxrss_kb)
        round_rates.append(len(bench.jobs) / round_wall)

    p50 = {kind: statistics.median(w) for kind, w in walls.items()}
    control = statistics.median(controls)
    jobs_per_s = statistics.median(round_rates)
    geomean = _geomean(p50.values())
    median_round_rel = sum(p50.values()) / control
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "kind_p50_rel": (geomean / control, "ratio"),
        "jobs_per_ref": (len(p50) / median_round_rel, "jobs/ref"),
    }
    rounds = f"{len(round_rates)} rounds of one job per kind"
    printed = [
        ("setup_s", statistics.median(setups), "s", f"median of {SETUP_REPEATS} set-ups"),
        ("jobs_per_s", jobs_per_s, "jobs/s", f"median over {rounds}"),
        ("peak_rss_mb", peak_kb / 1024, "MB", "highest child ru_maxrss"),
        ("kind_p50_geomean_s", geomean, "s", f"geometric mean of the {len(p50)} per-kind medians"),
        ("reference_p50_s", control, "s", f"median of {len(controls)} reference jobs, one before each job"),
        ("kind_p50_rel", geomean / control, "ratio", "kind_p50_geomean_s / reference_p50_s"),
        ("jobs_per_ref", len(p50) / median_round_rel, "jobs/ref",
         "jobs per reference-job time in a round of median jobs"),
    ]
    printed += [(f"{kind}_p50_s", p50[kind], "s",
                 f"n={len(w)}  tail (information only): {_tail(w)}") for kind, w in walls.items()]
    lines = [f"{name:24s} {value:10.4f} {unit:8s} {note}" for name, value, unit, note in printed]
    return metrics, attempted, failed, lines


def _output_size(job, out: Path) -> tuple:
    """Data rows in the job's CSV outputs and bytes in all its outputs."""
    rows = size = 0
    for name in job.outputs:
        data = (out / name).read_bytes()
        size += len(data)
        if name.endswith(".csv"):
            lines = data.count(b"\n") - data.count(b"\n# ") - (data[:2] == b"# ")
            rows += lines - 1
    return rows, size


def per_layer(bench: Bench, seconds: float) -> tuple:
    _, warmups = bench.setup()
    for job, run in warmups:
        bench.set_reference(job, run)

    plain = {job.kind: [] for job in bench.jobs}
    traced = {job.kind: [] for job in bench.jobs}
    totals = {f"{layer}.self_s": 0.0 for layer in tracer.LAYERS}
    totals.update({f"{layer}.{c}": 0 for layer, names in LAYER_COUNTS.items() for c in names})
    totals["cli.import_s"] = 0.0
    attempted = failed = jobs_traced = 0
    for _ in bench.rounds(seconds):
        for job in bench.jobs:
            run = bench.run(job)
            attempted += 1
            failed += not bench.verify(job, run)
            plain[job.kind].append(run.wall_s)

            run = bench.run(job, traced=True)
            attempted += 1
            ok = bench.verify(job, run, traced=True)
            if ok:
                ok = _add_trace(bench, job, totals)
            failed += not ok
            traced[job.kind].append(run.wall_s)
            jobs_traced += ok

    metrics = {}
    for key in ["cli.import_s"] + [f"{layer}.{name}" for layer in tracer.LAYERS
                                   for name in ("self_s", *LAYER_COUNTS[layer])]:
        unit = "s" if key.endswith("_s") else "count"
        value = totals[key] if key in MAX_COUNTS else totals[key] / max(jobs_traced, 1)
        metrics[key] = (value, unit)
    overhead = {kind: statistics.median(traced[kind]) / statistics.median(plain[kind])
                for kind in plain}
    metrics["trace.overhead"] = (_geomean(overhead.values()), "ratio")
    lines = [f"per-layer figures are per traced job, over {jobs_traced} traced jobs"]
    for key, (value, unit) in metrics.items():
        lines.append(f"{key:32s} {value:16.6f} {unit}")
    for kind, ratio in overhead.items():
        lines.append(f"{'trace.overhead.' + kind:32s} {ratio:16.6f} ratio  "
                     f"traced/untraced median wall, n={len(traced[kind])}/{len(plain[kind])}")
    reported = {key: value for key, value in metrics.items()
                if not key.endswith(".self_s") or key.split(".")[0] in EVERY_WORKLOAD_LAYERS}
    return reported, attempted, failed, lines


def _add_trace(bench: Bench, job, totals: dict) -> bool:
    names, counts, name_ids, parents, starts, ends = tracer.load(bench.spans_path(job))
    missing = [b for b in KIND_BOUNDARIES[job.kind] if b not in names]
    if missing:
        return bench.fail(job, f"traced boundaries recorded no call: {', '.join(missing)}")
    for layer, own in tracer.layer_self_times(names, name_ids, parents, starts, ends).items():
        key = "cli.import_s" if layer == "import" else f"{layer}.self_s"
        totals[key] += own
    for key, value in counts.items():
        if key in MAX_COUNTS:
            totals[key] = max(totals[key], value)
        elif key in totals:
            totals[key] += value
    rows, size = _output_size(job, bench.out_dir(job, traced=True))
    totals["cli.rows_written"] += rows
    totals["cli.bytes_written"] += size
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oplab" / "cli.py").is_file():
        print(f"error: no oplab sources at {SRC}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "OPLAB_SEED"}
    env["PYTHONPATH"] = str(SRC)
    runs = ROOT / ".perfbench_run"
    work = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    loadavg = os.getloadavg()
    launcher = Launcher(env)
    try:
        bench = Bench(args.workload, args.seed, work, launcher)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, lines = measure(bench, args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if runs.is_dir() and not any(runs.iterdir()):
            runs.rmdir()
    print("provenance " + json.dumps(provenance(bench, loadavg), sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    print(f"jobs attempted={attempted} failed={failed}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = failed == 0 and not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1

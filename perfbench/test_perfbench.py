"""Tests of the benchmark itself: span arithmetic, oracles and generation."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oplab.cli import main as cli_main
from perfbench import oracles, tracer, workloads

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "simulate": {"trials": 500, "atoms": 6, "target_points": 2},
    "estimate": {"trials": 2000, "atoms": 2},
    "kolmogorov_sat": {"observables": 2, "outcomes": 3},
    "kolmogorov_unsat": {"observables": 3, "outcomes": 2},
    "entropy": {"atoms": 20, "cells": 16},
    "dissipation": {"times": 3, "atoms": 5, "cells": 8},
    "spectral": {"d": 6},
    "validate": {"d": 4, "random_observables": 2, "states": 2},
}
KINDS = [kind for kinds in workloads.WORKLOADS.values() for kind in kinds]


def _job(kind, seed=3):
    return workloads.MAKERS[kind](seed, TINY[kind])


def _run(job, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(job.config)
    out = tmp_path / "out"
    return cli_main(job.cli_args(config, out)), out


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_times_nested_tree():
    #  0 main [0, 10]
    #  1   a [1, 4]        2 a1 [2, 3] inside a
    #  3   gen next [5, 5.5] with 4 x [5.1, 5.2] inside it
    #  5   gen next [6, 6.5]
    #  6   b [7, 8] and 7 c [7.5, 9]: overlapping siblings count once
    parents = [-1, 0, 1, 0, 3, 0, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 5.1, 6.0, 7.0, 7.5]
    ends = [10.0, 4.0, 3.0, 5.5, 5.2, 6.5, 8.0, 9.0]
    own = tracer.self_times(parents, starts, ends)
    expected = [10 - 3 - 0.5 - 0.5 - 2, 2.0, 1.0, 0.4, 0.1, 0.5, 1.0, 1.5]
    assert own == pytest.approx(expected)
    names = ["cli:main", "a:f", "a:g", "gen:rows", "x:h", "b:f", "c:f"]
    ids = [0, 1, 2, 3, 4, 3, 5, 6]
    layers = tracer.layer_self_times(names, ids, parents, starts, ends)
    assert layers == pytest.approx({"cli": 4.0, "a": 3.0, "gen": 0.9, "x": 0.1,
                                    "b": 1.0, "c": 1.5})


def test_self_times_clip_children_to_parent():
    own = tracer.self_times([-1, 0], [0.0, 0.5], [1.0, 2.0])
    assert own == pytest.approx([0.5, 1.5])


def test_generator_spans_nest_under_the_consumer():
    t = tracer.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap_call(t, "leaf", leaf)

    def rows(n):
        for k in range(n):
            yield wrapped_leaf(k)

    wrapped_rows = tracer.wrap_generator(t, "gen", rows, counter="gen.rows_yielded")
    consumer = t.open("cli:main")
    assert list(wrapped_rows(3)) == [1, 2, 3]
    t.close(consumer)
    names = [t.names[i] for i in t.name]
    # one span per next(), including the one that ends the generator
    assert names.count("gen:test_generator_spans_nest_under_the_consumer.<locals>.rows") == 4
    for idx, name in enumerate(names):
        if name.startswith("gen:"):
            assert t.parent[idx] == consumer
        if name.startswith("leaf:"):
            assert names[t.parent[idx]].startswith("gen:")
    assert t.counts["gen.rows_yielded"] == 3
    assert t.counts["gen.calls"] == 1 and t.counts["leaf.calls"] == 3
    assert all(s >= 0 for s in tracer.self_times(t.parent, t.start, t.end))


def test_dump_roundtrip(tmp_path):
    t = tracer.Tracer()
    t.add("import:oplab.cli", 1.0, 2.0)
    t.counts["simplex.solves"] += 2
    t.dump(tmp_path / "spans")
    names, counts, ids, parents, starts, ends = tracer.load(tmp_path / "spans")
    assert names == ["import:oplab.cli"] and counts == {"simplex.solves": 2}
    assert list(ids) == [0] and list(parents) == [-1]
    assert list(starts) == [1.0] and list(ends) == [2.0]


def test_traced_job_records_its_boundaries(tmp_path):
    job = _job("dissipation")
    config = tmp_path / "config.json"
    config.write_bytes(job.config)
    spans = tmp_path / "spans"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_job.py"), str(spans),
         *job.cli_args(config, tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    oracles.check(job, done.returncode, tmp_path / "out")
    names, counts, ids, parents, starts, ends = tracer.load(spans)
    from perfbench.bench import KIND_BOUNDARIES
    assert set(KIND_BOUNDARIES["dissipation"]) <= set(names)
    assert counts["dynamics.time_slices"] == 3
    assert counts["measures.partition_cells"] == 8
    layers = tracer.layer_self_times(names, ids, parents, starts, ends)
    assert {"import", "cli", "dynamics", "measures", "information"} <= set(layers)
    assert all(v >= 0 for v in layers.values())


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


MAIN_OUTPUT = {"validate": "validation.csv"}


def _flip(text: str) -> str:
    value = Fraction(text)
    return repr(float(value - Fraction(1, 4) if value >= Fraction(1, 2) else value + Fraction(1, 4)))


def _flip_probability(job, out: Path) -> None:
    if job.kind == "validate":
        path = out / "validation.json"
        payload = json.loads(path.read_text())
        payload["conditions"][0]["pass"] = False
        path.write_text(json.dumps(payload))
        return
    path = out / job.outputs[0]
    lines = path.read_text().splitlines(keepends=True)
    column = {"simulate": 3, "estimate": 1, "kolmogorov_sat": -1, "entropy": 2,
              "dissipation": 1, "spectral": 2}
    if job.kind == "kolmogorov_unsat":
        text = "".join(lines).replace("prob='1')", "prob='1/2')")
        path.write_text(text)
        return
    line = 3 if job.kind == "simulate" else 1
    cells = next(csv.reader([lines[line]]))
    k = column[job.kind]
    cells[k] = _flip(cells[k])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    lines[line] = buffer.getvalue()
    path.write_text("".join(lines))


def _drop_row(job, out: Path) -> None:
    path = out / MAIN_OUTPUT.get(job.kind, job.outputs[0])
    lines = path.read_text().splitlines(keepends=True)
    data = [k for k, line in enumerate(lines[1:], 1) if not line.startswith("#")]
    del lines[data[-1]]
    path.write_text("".join(lines))


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_accepts_true_output(kind, tmp_path):
    job = _job(kind)
    code, out = _run(job, tmp_path)
    oracles.check(job, code, out)


@pytest.mark.parametrize("corrupt", [_flip_probability, _drop_row])
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_rejects_corrupted_output(kind, corrupt, tmp_path):
    job = _job(kind)
    code, out = _run(job, tmp_path)
    corrupt(job, out)
    with pytest.raises(oracles.OracleError):
        oracles.check(job, code, out)


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_rejects_wrong_exit_code(kind, tmp_path):
    job = _job(kind)
    code, out = _run(job, tmp_path)
    with pytest.raises(oracles.OracleError):
        oracles.check(job, 1 if code != 1 else 0, out)


def test_oracle_rejects_missing_output(tmp_path):
    job = _job("entropy")
    with pytest.raises(oracles.OracleError):
        oracles.check(job, 0, tmp_path)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.make_jobs(workload, 11, TINY)
    again = workloads.make_jobs(workload, 11, TINY)
    other = workloads.make_jobs(workload, 12, TINY)
    assert [(j.config, j.args) for j in first] == [(j.config, j.args) for j in again]
    for a, b in zip(first, other):
        assert (a.config, a.args) != (b.config, b.args)
    assert [j.kind for j in first] == list(workloads.WORKLOADS[workload])

"""Output checks for each job kind, recomputed from the generator's own data.

No function here imports oplab.  ``check`` raises ``OracleError`` naming the
first problem it finds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-12
SPECTRAL_TOL = 1e-9
SIGMAS = 5.0


ESTIMATE_ROWS = [
    "p_hat", "horizon", "cesaro_mean", "cesaro_verdict", "count_monotone",
    *(f"exceedance_density_alpha={a:g}" for a in (0.5, 0.25, 0.1, 0.05, 0.01)),
    *(f"weak_star_gap_{name}" for name in ("cdf_at_0", "cdf_at_1", "identity", "square")),
    "stabilization_alpha", "first_stable_index", "first_success_index",
    "lower_bound_at_horizon", "lower_bound_holds",
]


class OracleError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def read_csv(path: Path):
    """Header, data rows and ``# key=value`` footer of a CLI table."""
    _require(path.is_file(), f"missing output {path.name}")
    body, footer = [], {}
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                footer[key] = value
            else:
                body.append(line)
    rows = list(csv.reader(body))
    _require(bool(rows), f"{path.name} has no header")
    return rows[0], rows[1:], footer


def _check_footer(footer: dict, job) -> None:
    digest = hashlib.sha256(job.config).hexdigest()
    _require(footer.get("config_hash") == f"sha256:{digest}", "footer config_hash mismatch")


def _cesaro_sigma(p: float, n: int) -> float:
    """Standard deviation of w_n, the mean of the first n running frequencies
    of Bernoulli(p) trials: w_n = sum_j X_j (H_n - H_{j-1}) / n."""
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))
    weights = harmonic[n] - harmonic[:n]
    return math.sqrt(p * (1.0 - p) * float(np.dot(weights, weights))) / n


def _simulate(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "simulate.csv")
    _check_footer(footer, job)
    n = job.expect["trials"]
    _require(header == ["i", "X_i", "xi_i", "f_i", "w_i"], f"unexpected header {header}")
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    _require(footer.get("seed") == str(job.expect["seed"]), "footer seed mismatch")
    cols = list(zip(*rows))
    i = np.array(cols[0], dtype=np.int64)
    x = np.array(cols[1], dtype=np.int64)
    xi = np.array(cols[2], dtype=np.int64)
    f = np.array(cols[3], dtype=np.float64)
    w = np.array(cols[4], dtype=np.float64)
    idx = np.arange(1, n + 1)
    _require(bool(np.all(i == idx)), "row indices are not 1..n")
    _require(bool(np.all((x == 0) | (x == 1))), "X_i outside {0, 1}")
    _require(bool(np.all(xi == np.cumsum(x))), "xi_i is not the running success count")
    _require(bool(np.all(np.abs(f - xi / idx) <= FLOAT_TOL)), "f_i is not the running mean")
    _require(bool(np.all(np.abs(w - np.cumsum(f) / idx) <= FLOAT_TOL)),
             "w_i is not the running mean of f")
    p = float(job.expect["p"])
    sigma = math.sqrt(p * (1.0 - p) / n)
    _require(abs(xi[-1] / n - p) <= SIGMAS * sigma, "success frequency far from the target")


def _estimate(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "estimate.csv")
    _check_footer(footer, job)
    _require(footer.get("seed") == str(job.expect["seed"]), "footer seed mismatch")
    _require([row[0] for row in rows] == ESTIMATE_ROWS, "estimate rows differ from the schema")
    table = dict(rows)
    _require(table["count_monotone"] == "True", "trace is not count-monotone")
    _require(table["lower_bound_holds"] == "True", "harmonic lower bound fails")
    n = job.expect["trials"]
    _require(table["horizon"] == str(n), "horizon differs from the trial count")
    p = float(job.expect["p"])
    p_hat = float(table["p_hat"])
    _require(abs(p_hat - p) <= SIGMAS * _cesaro_sigma(p, n),
             f"p_hat {p_hat} more than {SIGMAS} sigma from {p}")


def _kolmogorov_sat(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "kolmogorov.csv")
    _check_footer(footer, job)
    names, outcomes, marginals = job.expect["names"], job.expect["outcomes"], job.expect["marginals"]
    _require(header == names + ["probability"], f"unexpected header {header}")
    _require(footer.get("verdict") == "feasible", "verdict is not feasible")
    joint = [([int(v) for v in row[:-1]], Fraction(row[-1])) for row in rows]
    _require(all(p >= 0 for _, p in joint), "negative joint probability")
    _require(sum(p for _, p in joint) == 1, "joint does not sum to one")
    for k, name in enumerate(names):
        for value, prob in zip(outcomes[name], marginals[name]):
            got = sum((p for cell, p in joint if cell[k] == value), Fraction(0))
            _require(got == prob, f"P({name}={value}) = {got}, expected {prob}")


def _kolmogorov_unsat(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "kolmogorov.csv")
    _check_footer(footer, job)
    _require(header == ["certificate_index", "constraint"], f"unexpected header {header}")
    _require(footer.get("verdict") == "infeasible", "verdict is not infeasible")
    _require(len(rows) == 2, f"certificate has {len(rows)} members, expected 2")
    planted = f"JointConstraint(events={job.expect['planted']!r}, prob='1')"
    members = [text for _, text in rows]
    _require(planted in members, "planted joint constraint missing from the certificate")
    other = next(text for text in members if text != planted)
    _require(other.startswith("MarginalConstraint(observable='x0'")
             or other.startswith("MarginalConstraint(observable='x1'"),
             f"certificate member {other} does not contradict the planted constraint")


def _entropy(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "entropy.csv")
    _check_footer(footer, job)
    cells = job.expect["cells"]
    edges = [Fraction(k, cells) for k in range(cells + 1)]
    probs = [Fraction(0)] * cells
    for point, weight in job.expect["atoms"]:
        probs[bisect_right(edges, point) - 1] += weight
    _require(len(rows) == cells, f"{len(rows)} rows, expected {cells}")
    for k, (row, p) in enumerate(zip(rows, probs)):
        _require(row[0] == str(k) and Fraction(row[2]) == p, f"cell {k} probability differs")
    bits = -sum(float(p) * math.log2(float(p)) for p in probs if p > 0)
    _require(abs(float(footer.get("H_bits", "nan")) - bits) <= FLOAT_TOL,
             "H_bits differs from the binned recomputation")


def _dissipation(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "dissipation.csv")
    _check_footer(footer, job)
    times, leaks = job.expect["times"], job.expect["leaks"]
    _require(len(rows) == len(times), f"{len(rows)} rows, expected {len(times)}")
    for row, t, leak in zip(rows, times, leaks):
        _require(float(row[0]) == t, f"time {row[0]} expected {t}")
        _require(abs(float(row[1]) - (1.0 - leak)) <= FLOAT_TOL, f"coefficient at t={t} differs")
        _require(abs(float(row[3]) - leak) <= FLOAT_TOL, f"escaped mass at t={t} differs")


def _spectral(job, out: Path) -> None:
    header, rows, footer = read_csv(out / "spectral.csv")
    _check_footer(footer, job)
    d = job.expect["d"]
    labels = ["atom"] * d + ["mean", "variance"] + ["spectrum_point"] * d + ["spectral_radius"]
    _require([row[0] for row in rows] == labels, f"rows are not {d} atoms and {d} spectral points")
    weights = [float(row[2]) for row in rows[:d]]
    points = [float(row[1]) for row in rows[d + 2:2 * d + 2]]
    _require(abs(sum(weights) - 1.0) <= SPECTRAL_TOL, "weights do not sum to one")
    _require(abs(float(rows[d][2]) - job.expect["mean"]) <= SPECTRAL_TOL,
             "mean differs from tr(rho A)")
    _require(abs(float(rows[-1][2]) - max(abs(p) for p in points)) <= SPECTRAL_TOL,
             "spectral radius differs from the largest spectral point")


def _validate(job, out: Path) -> None:
    _require((out / "validation.json").is_file(), "missing output validation.json")
    records = json.loads((out / "validation.json").read_text(encoding="utf-8"))["conditions"]
    names = [r["name"] for r in records]
    _require(names == job.expect["conditions"], f"conditions {names}")
    failed = [r["name"] for r in records if r["pass"] is not True]
    _require(not failed, f"conditions failed: {failed}")
    header, rows, footer = read_csv(out / "validation.csv")
    _check_footer(footer, job)
    _require([row[0] for row in rows] == names, "validation.csv rows differ from the JSON")
    _require(all(row[1] == "True" for row in rows), "validation.csv reports a failure")


ORACLES = {
    "simulate": _simulate,
    "estimate": _estimate,
    "kolmogorov_sat": _kolmogorov_sat,
    "kolmogorov_unsat": _kolmogorov_unsat,
    "entropy": _entropy,
    "dissipation": _dissipation,
    "spectral": _spectral,
    "validate": _validate,
}


def check(job, exit_code: int, out: Path) -> None:
    """Raise OracleError unless the job's exit code and outputs are correct."""
    _require(exit_code == job.exit_code, f"exit code {exit_code}, expected {job.exit_code}")
    try:
        ORACLES[job.kind](job, out)
    except (ValueError, KeyError, IndexError, StopIteration, ZeroDivisionError) as exc:
        raise OracleError(f"malformed output: {type(exc).__name__}: {exc}") from exc


def output_digest(job, out: Path) -> str:
    """sha256 over the job's output files, for byte-identity of repeats."""
    h = hashlib.sha256()
    for name in job.outputs:
        path = out / name
        _require(path.is_file(), f"missing output {name}")
        h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()

"""Seeded generation of the benchmark's CLI jobs.

Each workload is a tuple of job kinds.  A job is one ``oplab <command>`` run
on one generated config.  Its inputs depend only on the workload seed and the
kind, so the same seed gives byte-identical configs, and the generator keeps
the data it planted (``expect``) for the oracles in ``perfbench.oracles``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = {
    "trials": ("simulate", "estimate"),
    "classical": ("kolmogorov_sat", "kolmogorov_unsat", "entropy", "dissipation"),
    "hilbert": ("spectral", "validate"),
}

# Input sizes; every job records the size it was generated with.
SIZES = {
    "simulate": {"trials": 200_000, "atoms": 6, "target_points": 2},
    "estimate": {"trials": 4_000_000, "atoms": 2},
    "kolmogorov_sat": {"observables": 3, "outcomes": 6},
    "kolmogorov_unsat": {"observables": 3, "outcomes": 5},
    "entropy": {"atoms": 200, "cells": 256},
    "dissipation": {"times": 8, "atoms": 80, "cells": 64},
    "spectral": {"d": 256},
    "validate": {"d": 48, "random_observables": 12, "states": 4},
}


MARGINAL_DENOMINATOR = 60
ESTIMATE_PROBABILITY = Fraction(3, 10)


@dataclass
class Job:
    kind: str
    command: str
    config: bytes
    args: tuple
    exit_code: int
    outputs: tuple
    expect: dict
    sizes: dict = field(default_factory=dict)

    def cli_args(self, config_path, out_dir) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out_dir), *self.args]


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _dumps(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _rng(seed: int, kind: str) -> np.random.Generator:
    return np.random.default_rng([seed, list(SIZES).index(kind)])


def _random_probabilities(rng, n: int) -> list:
    raw = [int(k) for k in rng.integers(1, 10, size=n)]
    total = sum(raw)
    return [Fraction(k, total) for k in raw]


def _cli_seed(rng) -> int:
    return int(rng.integers(1, 2 ** 62))


def make_simulate(seed: int, size: dict) -> Job:
    rng = _rng(seed, "simulate")
    points = sorted(int(p) for p in rng.choice(100, size=size["atoms"], replace=False))
    target = sorted(int(p) for p in rng.choice(points, size=size["target_points"], replace=False))
    weight = Fraction(1, size["atoms"])
    config = {
        "kind": "simulate",
        "inputs": {
            "truth": {"atoms": [[str(p), _frac(weight)] for p in points]},
            "target": {"singletons": [str(p) for p in target]},
            "trials": size["trials"],
        },
    }
    cli_seed = _cli_seed(rng)
    return Job("simulate", "simulate", _dumps(config), ("--seed", str(cli_seed)), 0,
               ("simulate.csv",),
               {"trials": size["trials"], "p": weight * len(target), "seed": cli_seed},
               {"trials": size["trials"], "atoms": len(points)})


def make_estimate(seed: int, size: dict) -> Job:
    """A fixed success probability on seeded atoms: the estimators' peak
    memory depends on the probability (347 MB at 1/2, 378 MB at 9/10)."""
    rng = _rng(seed, "estimate")
    miss, hit = (str(int(v)) for v in rng.choice(100, size=2, replace=False))
    p = ESTIMATE_PROBABILITY
    config = {
        "kind": "estimate",
        "inputs": {
            "truth": {"atoms": [[miss, _frac(1 - p)], [hit, _frac(p)]]},
            "target": {"singletons": [hit]},
            "trials": size["trials"],
        },
    }
    cli_seed = _cli_seed(rng)
    return Job("estimate", "estimate", _dumps(config), ("--seed", str(cli_seed)), 0,
               ("estimate.csv",),
               {"trials": size["trials"], "p": p, "seed": cli_seed},
               {"trials": size["trials"], "atoms": 2})


def _composition(rng, total: int, n: int) -> list:
    """n positive integers summing to total, uniformly at random."""
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, total), size=n - 1, replace=False))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _marginal_problem(rng, size: dict):
    """Marginals of every observable, with seeded outcome labels.

    The exact simplex's pivot path depends on the marginal values: with
    random values its cost varied 2.4x between seeds.  So the values are one
    fixed vector per observable, drawn once for the size, and the seed draws
    the outcome labels, which leave the LP unchanged.
    """
    names = [f"x{k}" for k in range(size["observables"])]
    fixed = np.random.default_rng([size["observables"], size["outcomes"]])
    outcomes = {name: sorted(int(v) for v in rng.choice(np.arange(-50, 50), size=size["outcomes"],
                                                        replace=False))
                for name in names}
    marginals = {name: [Fraction(k, MARGINAL_DENOMINATOR)
                        for k in _composition(fixed, MARGINAL_DENOMINATOR, size["outcomes"])]
                 for name in names}
    constraints = [
        {"type": "marginal", "observable": name, "value": v, "prob": _frac(p)}
        for name in names for v, p in zip(outcomes[name], marginals[name])
    ]
    return names, outcomes, marginals, constraints


def make_kolmogorov_sat(seed: int, size: dict) -> Job:
    rng = _rng(seed, "kolmogorov_sat")
    names, outcomes, marginals, constraints = _marginal_problem(rng, size)
    config = {"kind": "kolmogorov", "inputs": {"outcomes": outcomes, "constraints": constraints}}
    cells = size["outcomes"] ** len(names)
    return Job("kolmogorov_sat", "kolmogorov", _dumps(config), (), 0, ("kolmogorov.csv",),
               {"names": names, "outcomes": outcomes, "marginals": marginals},
               {"cells": cells, "constraints": len(constraints)})


def make_kolmogorov_unsat(seed: int, size: dict) -> Job:
    """Product-feasible marginals plus a planted joint constraint putting all
    mass on the first outcomes of x0 and x1, which the positive marginals of
    x1 contradict."""
    rng = _rng(seed, "kolmogorov_unsat")
    names, outcomes, marginals, constraints = _marginal_problem(rng, size)
    planted = (("x0", outcomes["x0"][0]), ("x1", outcomes["x1"][0]))
    constraints.append({"type": "joint", "events": dict(planted), "prob": "1"})
    config = {"kind": "kolmogorov", "inputs": {"outcomes": outcomes, "constraints": constraints}}
    cells = size["outcomes"] ** len(names)
    return Job("kolmogorov_unsat", "kolmogorov", _dumps(config), (), 2, ("kolmogorov.csv",),
               {"planted": planted},
               {"cells": cells, "constraints": len(constraints)})


def make_entropy(seed: int, size: dict) -> Job:
    rng = _rng(seed, "entropy")
    points = set()
    while len(points) < size["atoms"]:
        den = int(rng.integers(2, 1000))
        points.add(Fraction(int(rng.integers(0, den)), den))
    points = sorted(points)
    weights = _random_probabilities(rng, len(points))
    cells = size["cells"]
    config = {
        "kind": "entropy",
        "inputs": {
            "measure": {"atoms": [[_frac(p), _frac(w)] for p, w in zip(points, weights)]},
            "partition": {
                "window": ["0", "1"],
                "cells": [{"intervals": [[_frac(Fraction(k, cells)), _frac(Fraction(k + 1, cells))]]}
                          for k in range(cells)],
            },
        },
    }
    return Job("entropy", "entropy", _dumps(config), (), 0, ("entropy.csv",),
               {"atoms": list(zip(points, weights)), "cells": cells},
               {"atoms": len(points), "cells": cells})


def make_dissipation(seed: int, size: dict) -> Job:
    """An initial float measure whose mass leaks at a planted rate onto a copy
    shifted by 1/1024.  Initial points are multiples of 1/512, so no shifted
    atom meets an initial one."""
    rng = _rng(seed, "dissipation")
    n, cells = size["atoms"], size["cells"]
    grid = sorted(int(g) for g in rng.choice((cells - 1) * 512, size=n, replace=False))
    points = [g / 512 for g in grid]
    # Dyadic weights sum to exactly 1.0, as oplab needs of the initial measure:
    # a float sum a rounding error above one makes the t=0 split fail.
    weights = [k / 2 ** 16 for k in _composition(rng, 2 ** 16, n)]
    rate = float(rng.uniform(0.05, 0.3))
    times = [float(t) for t in range(size["times"])]
    leaks = [1.0 - math.exp(-rate * t) for t in times]
    measures = []
    for leak in leaks:
        atoms = [[p, (1.0 - leak) * w] for p, w in zip(points, weights)]
        if leak:
            atoms += [[p + 1 / 1024, leak * w] for p, w in zip(points, weights)]
        measures.append({"atoms": atoms})
    config = {
        "kind": "dissipation",
        "inputs": {
            "times": times,
            "measures": measures,
            "partition": {"window": ["0", str(cells)],
                          "cells": [{"intervals": [[str(k), str(k + 1)]]} for k in range(cells)]},
        },
    }
    return Job("dissipation", "dissipation", _dumps(config), ("--mode", "float"), 0,
               ("dissipation.csv",),
               {"times": times, "leaks": leaks},
               {"times": len(times), "atoms": n, "cells": cells})


def _hermitian(rng, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / (2.0 * math.sqrt(d))


def _density(rng, d: int) -> np.ndarray:
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = b @ b.conj().T / d + 0.1 * np.eye(d)
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def make_spectral(seed: int, size: dict) -> Job:
    rng = _rng(seed, "spectral")
    d = size["d"]
    a, rho = _hermitian(rng, d), _density(rng, d)
    config = {"kind": "spectral",
              "inputs": {"observable": _matrix_json(a), "state": _matrix_json(rho)}}
    return Job("spectral", "spectral", _dumps(config), (), 0, ("spectral.csv",),
               {"d": d, "mean": float(np.trace(rho @ a).real)},
               {"d": d})


def make_validate(seed: int, size: dict) -> Job:
    """Random observables with their squares and x3 scalings, declared as
    powers, scalings and compatible pairs, plus a central 2*I observable so
    the center and embedding checks run too.  Every condition holds."""
    rng = _rng(seed, "validate")
    d, k = size["d"], size["random_observables"]
    observables = {}
    relations = {"powers": [], "scalings": [], "compatible": []}
    for i in range(k):
        a = _hermitian(rng, d)
        square = a @ a
        observables[f"a{i}"] = a
        observables[f"a{i}_sq"] = (square + square.conj().T) / 2.0
        observables[f"a{i}_x3"] = 3.0 * a
        relations["powers"].append([f"a{i}", 2, f"a{i}_sq"])
        relations["scalings"].append([f"a{i}", 3.0, f"a{i}_x3"])
        relations["compatible"] += [[f"a{i}", f"a{i}_sq"], [f"a{i}", f"a{i}_x3"]]
    observables["z"] = 2.0 * np.eye(d, dtype=complex)
    states = {f"s{j}": _density(rng, d) for j in range(size["states"])}
    state_labels = sorted(states)
    suitability = [[state_labels[n % len(state_labels)], label]
                   for n, label in enumerate(observables)]
    config = {
        "kind": "validate",
        "inputs": {
            "system": {
                "observables": {label: _matrix_json(m) for label, m in observables.items()},
                "states": {label: _matrix_json(m) for label, m in states.items()},
                "suitability": suitability,
            },
            "relations": relations,
            "center": ["z"],
            "embedding_families": {"z": state_labels},
        },
    }
    conditions = ["polynomial", "sum-on-compatibility", "scalar-homogeneity",
                  "expectation-matching", "multiplicative-condition",
                  "center-commutation", "center-products", "embedding:z"]
    return Job("validate", "validate", _dumps(config), (), 0,
               ("validation.json", "validation.csv"),
               {"conditions": conditions},
               {"d": d, "observables": len(observables), "states": len(states)})


MAKERS = {
    "simulate": make_simulate,
    "estimate": make_estimate,
    "kolmogorov_sat": make_kolmogorov_sat,
    "kolmogorov_unsat": make_kolmogorov_unsat,
    "entropy": make_entropy,
    "dissipation": make_dissipation,
    "spectral": make_spectral,
    "validate": make_validate,
}


def make_jobs(workload: str, seed: int, sizes=SIZES) -> list:
    """The workload's jobs, one per kind, in round-robin order."""
    jobs = []
    for kind in WORKLOADS[workload]:
        job = MAKERS[kind](seed, sizes[kind])
        job.sizes["config_bytes"] = len(job.config)
        jobs.append(job)
    return jobs

"""Shared generators for the test suite; everything is seeded."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oplab.measures import DiscreteMeasure, JointMeasure
from oplab.spectral import DensityState, HermitianObservable

# The step ensembles were once generated in; sizes at its edges stay among the
# cases beside the edges of ``oplab.ensembles.PIECE``.
CHUNK = 1 << 16


def random_rational_probability(rng: random.Random, max_atoms: int = 16) -> DiscreteMeasure:
    n = rng.randint(1, max_atoms)
    points = rng.sample(range(-30, 31), n)
    raw = [rng.randint(1, 20) for _ in range(n)]
    total = sum(raw)
    return DiscreteMeasure([(p, Fraction(w, total)) for p, w in zip(points, raw)])


def random_rational_joint(rng: random.Random, side: int = 4) -> JointMeasure:
    points_s = rng.sample(range(-10, 11), side)
    points_t = rng.sample(range(-10, 11), side)
    raw = [[rng.randint(0, 9) for _ in range(side)] for _ in range(side)]
    total = sum(sum(row) for row in raw)
    if total == 0:
        raw[0][0] = 1
        total = 1
    atoms = []
    for i, s in enumerate(points_s):
        for j, t in enumerate(points_t):
            if raw[i][j]:
                atoms.append(((s, t), Fraction(raw[i][j], total)))
    return JointMeasure(atoms)


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianObservable:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianObservable((m + m.conj().T) / 2)


def random_density(rng: np.random.Generator, dim: int) -> DensityState:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return DensityState(rho / np.trace(rho).real)


def random_commuting_pair(rng: np.random.Generator, dim: int):
    """Two observables sharing a random eigenbasis."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    a_vals = np.round(rng.uniform(-3, 3, size=dim), 3)
    b_vals = np.round(rng.uniform(-3, 3, size=dim), 3)
    a = HermitianObservable(q @ np.diag(a_vals) @ q.conj().T)
    b = HermitianObservable(q @ np.diag(b_vals) @ q.conj().T)
    return a, b


@pytest.fixture
def rng():
    return random.Random(90125)


@pytest.fixture
def nprng():
    return np.random.default_rng(90125)

"""Shared generators for the test suite; everything is seeded."""

import os
import random
from fractions import Fraction

import numpy as np
import pytest

from oplab import _fork
from oplab.joint import JointMeasure
from oplab.measures import DiscreteMeasure
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


@pytest.fixture
def forks(monkeypatch):
    """pids of the workers forked from this process."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: from then on `oplab._fork`, which alone decides whether a
    worker starts, sees n CPUs."""
    def see(n):
        monkeypatch.setattr(_fork, "available_cpus", lambda: n)
    return see


@pytest.fixture
def parent(tmp_path):
    """Fails the test if a worker returns into it (the marker file)."""
    pid = os.getpid()
    yield pid
    if os.getpid() != pid:
        (tmp_path / "worker_returned").touch()
        os._exit(0)
    assert not (tmp_path / "worker_returned").exists()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

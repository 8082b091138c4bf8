"""Entropy and purity analytics.

Shannon entropy of a measure over a partition (bits), the Khinchin axiom
suite, an informativity order on measures, von Neumann entropy and purity of
density matrices (nats), and the bridge between the two: the density matrix
a partition induces has von Neumann entropy equal to the partition entropy
times ln 2.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import _np as np
from . import spectral
from ._base import record
from .errors import PartitionDoesNotCover, ZeroCell
from .measures import (FLOAT, RATIONAL, BorelSet, DiscreteMeasure, Partition, is_unit_mass,
                       to_scalar)

LN2 = math.log(2.0)
# How far from 1 a schema's total mass may be once any weight is a float.
SCHEMA_MASS_TOL = 1e-9
INFORMATIVITY_TOL = 1e-12


def entropy_bits(weights: Sequence) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    total = 0.0
    for w in weights:
        p = float(w)
        if p < 0:
            raise ValueError(f"negative weight {w}")
        if p > 0:
            total -= p * math.log2(p)
    return max(total, 0.0)


class Schema:
    """Finite nonnegative weight vector summing to one."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence):
        ws = tuple(to_scalar(w, RATIONAL if isinstance(w, (int, str, Fraction)) else FLOAT)
                   for w in weights)
        if not ws:
            raise ValueError("schema needs at least one weight")
        if any(w < 0 for w in ws):
            raise ValueError("schema weights must be nonnegative")
        total = sum(ws)
        exact = all(isinstance(w, Fraction) for w in ws)
        if exact:
            if total != 1:
                raise ValueError(f"schema mass {total} != 1")
        elif abs(float(total) - 1.0) > SCHEMA_MASS_TOL:
            raise ValueError(f"schema mass {total} != 1")
        self.weights = ws

    def entropy_bits(self) -> float:
        return entropy_bits(self.weights)

    def is_dirac(self) -> bool:
        return sum(1 for w in self.weights if w > 0) == 1

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"Schema({self.weights})"


# ---------------------------------------------------------------------------
# Measurement entropy over partitions
# ---------------------------------------------------------------------------


@record
class EntropyReport:
    partition: Partition
    cell_probabilities: tuple
    bits: float

    def rows(self):
        """CSV rows (cell index, description, probability, -p log2 p)."""
        for k, (cell, p) in enumerate(zip(self.partition.cells, self.cell_probabilities)):
            contribution = -float(p) * math.log2(float(p)) if p > 0 else 0.0
            yield (k, cell.describe(), p, contribution)


def shannon_entropy(measure: DiscreteMeasure, partition: Partition) -> EntropyReport:
    """Entropy of the cell-probability vector of the measure, in bits."""
    measure.require_probability()
    uncovered = [p for p in measure.support if partition.locate(p) < 0]
    if uncovered:
        raise PartitionDoesNotCover(f"atoms not covered: {uncovered}")
    probs = tuple(measure.measure_of(cell) for cell in partition.cells)
    return EntropyReport(partition=partition, cell_probabilities=probs,
                         bits=entropy_bits(probs))


# ---------------------------------------------------------------------------
# Khinchin axiom suite
# ---------------------------------------------------------------------------


@record
class AxiomResult:
    name: str
    passed: bool
    cases: int
    worst: float
    note: str = ""


def _random_schema(rng: np.random.Generator, k: int) -> Tuple[float, ...]:
    cuts = rng.dirichlet(np.ones(k))
    return tuple(float(c) for c in cuts)


def khinchin_validate(
    entropy_fn: Optional[Callable[[Sequence[float]], float]] = None,
    cases: int = 120,
    seed: int = 20240,
    tol: float = 1e-9,
) -> Tuple[AxiomResult, ...]:
    """Exercise an entropy implementation against the six axioms.

    K1 positivity and vanishing exactly on one-point schemas; K2 invariance
    under a prepended zero weight; K3 the grouping law for an equal split of
    the first cell, H(split into k) = H + w_1 log2 k (splitting a cell adds
    exactly the information needed to resolve it); K4 maximality of the
    uniform schema among equal-length schemas; K5 concavity on mixtures;
    K6 a continuity modulus spot check.
    """
    h = entropy_fn or entropy_bits
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    ok = True
    for _ in range(cases):
        k = int(rng.integers(2, 9))
        xs = _random_schema(rng, k)
        value = h(xs)
        worst = min(worst, value)
        if value < -tol:
            ok = False
        dirac = [0.0] * k
        dirac[int(rng.integers(0, k))] = 1.0
        if abs(h(dirac)) > tol:
            ok = False
        if max(xs) < 1.0 - 1e-6 and h(xs) <= tol:
            ok = False
    results.append(AxiomResult("K1-positivity", ok, cases, worst))

    worst = 0.0
    for _ in range(cases):
        xs = _random_schema(rng, int(rng.integers(2, 9)))
        gap = abs(h((0.0,) + xs) - h(xs))
        worst = max(worst, gap)
    results.append(AxiomResult("K2-zero-prefix", worst <= tol, cases, worst))

    worst = 0.0
    for _ in range(cases):
        xs = _random_schema(rng, int(rng.integers(2, 7)))
        k = int(rng.integers(2, 5))
        split = tuple([xs[0] / k] * k) + xs[1:]
        expected = h(xs) + xs[0] * math.log2(k)
        worst = max(worst, abs(h(split) - expected))
    results.append(AxiomResult(
        "K3-grouping", worst <= 1e-7, cases, worst,
        note="equal split of the first cell adds w1*log2(k)",
    ))

    ok = True
    worst = 0.0
    for _ in range(cases):
        k = int(rng.integers(2, 9))
        uniform = h([1.0 / k] * k)
        for _ in range(50):
            gap = uniform - h(_random_schema(rng, k))
            worst = min(worst, gap)
            if gap < -tol:
                ok = False
    results.append(AxiomResult("K4-uniform-max", ok, cases * 50, worst))

    ok = True
    worst = 0.0
    for _ in range(cases):
        k = int(rng.integers(2, 9))
        xs = np.array(_random_schema(rng, k))
        ys = np.array(_random_schema(rng, k))
        r = float(rng.uniform())
        mixed = tuple((1 - r) * xs + r * ys)
        gap = h(mixed) - ((1 - r) * h(tuple(xs)) + r * h(tuple(ys)))
        worst = min(worst, gap)
        if gap < -tol:
            ok = False
    results.append(AxiomResult("K5-concavity", ok, cases, worst))

    ok = True
    worst = 0.0
    delta = 1e-6
    for _ in range(cases):
        k = int(rng.integers(2, 9))
        xs = np.array(_random_schema(rng, k))
        bump = rng.dirichlet(np.ones(k)) - 1.0 / k
        scale = np.sum(np.abs(bump))
        if scale == 0:
            continue
        ys = np.clip(xs + bump * (delta / scale), 0.0, None)
        ys = ys / ys.sum()
        gap = abs(h(tuple(ys)) - h(tuple(xs)))
        worst = max(worst, gap)
        # Modulus: an L1 perturbation of size d moves H by at most
        # d * log2(k / d) + binary entropy of d, far below 1e-3 here.
        if gap > 1e-3:
            ok = False
    results.append(AxiomResult("K6-continuity", ok, cases, worst,
                               note=f"L1 perturbation {delta:g}"))
    return tuple(results)


# ---------------------------------------------------------------------------
# Informativity order
# ---------------------------------------------------------------------------


class Informativity(Enum):
    MORE_INFORMATIVE = "more-informative"
    EQUAL = "equally-informative"
    LESS_INFORMATIVE = "less-informative"
    INCOMPARABLE = "incomparable"


@record
class InformativityVerdict:
    relation: Informativity
    partitions: tuple
    """The finite partition family the verdict is restricted to."""
    entropies: tuple
    """Pairs (H(first, P), H(second, P)) per partition."""


def default_partition_family(
    measures: Sequence[DiscreteMeasure], depth: int = 10
) -> Tuple[Partition, ...]:
    """Dyadic refinements over the joint support hull plus the
    atom-separating partition of the union of supports."""
    points = []
    for m in measures:
        points.extend(to_scalar(p, RATIONAL) for p in m.support)
    if not points:
        raise ValueError("measures have empty support")
    lo, hi = min(points) - 1, max(points) + 1
    family = [Partition.dyadic(lo, hi, d) for d in range(1, depth + 1)]
    union = DiscreteMeasure.uniform(sorted(set(points)))
    family.append(Partition.separating(union))
    return tuple(family)


def informativity_compare(
    first: DiscreteMeasure,
    second: DiscreteMeasure,
    partitions: Optional[Sequence[Partition]] = None,
    tol: float = INFORMATIVITY_TOL,
) -> InformativityVerdict:
    """Compare entropies cell family by cell family.

    The order quantifies over the supplied finite family only; a verdict is
    relative to it, which the result records.
    """
    if partitions is None:
        partitions = default_partition_family([first, second])
    entries = []
    for partition in partitions:
        h1 = shannon_entropy(first, partition).bits
        h2 = shannon_entropy(second, partition).bits
        entries.append((h1, h2))
    all_le = all(h1 <= h2 + tol for h1, h2 in entries)
    all_ge = all(h1 >= h2 - tol for h1, h2 in entries)
    if all_le and all_ge:
        relation = Informativity.EQUAL
    elif all_le:
        relation = Informativity.MORE_INFORMATIVE
    elif all_ge:
        relation = Informativity.LESS_INFORMATIVE
    else:
        relation = Informativity.INCOMPARABLE
    return InformativityVerdict(relation, tuple(partitions), tuple(entries))


# ---------------------------------------------------------------------------
# von Neumann entropy, purity, and the partition bridge
# ---------------------------------------------------------------------------


def vn_entropy_and_purity(state: spectral.DensityState) -> Tuple[float, float]:
    """Von Neumann entropy in nats and purity (trace of the square)."""
    evals = state.eigenvalues
    entropy = float(-np.sum(evals[evals > 0] * np.log(evals[evals > 0])))
    purity = float(np.sum(evals * evals))
    return max(entropy, 0.0), purity


@record
class EntropyBridge:
    state: spectral.DensityState
    vn_nats: float
    shannon_bits: float

    @property
    def gap(self) -> float:
        return abs(self.vn_nats - self.shannon_bits * LN2)


def partition_density_matrix(measure: DiscreteMeasure, partition: Partition) -> EntropyBridge:
    """Diagonal density matrix carrying the cell probabilities.

    Its von Neumann entropy in nats equals the measurement entropy in bits
    times ln 2; the orthonormal frame is the standard basis (entropy does
    not depend on the frame).
    """
    report = shannon_entropy(measure, partition)
    weights = [float(p) for p in report.cell_probabilities]
    for k, w in enumerate(weights):
        if w <= 0:
            raise ZeroCell(f"cell {k} carries no mass")
    state = spectral.DensityState(np.diag(weights))
    vn, _ = vn_entropy_and_purity(state)
    return EntropyBridge(state=state, vn_nats=vn, shannon_bits=report.bits)


# ---------------------------------------------------------------------------
# Dirac detection by bisection
# ---------------------------------------------------------------------------


def dirac_detect(measure: DiscreteMeasure, window, depth: int = 30):
    """Locate the atom of a unit point mass by interval halving.

    Returns the midpoint of the final bracket (within (b - a) * 2**-depth of
    the atom) when the measure is a point mass, or None as soon as a split
    leaves positive mass on both sides.
    """
    measure.require_probability()
    if depth < 1:
        raise ValueError("depth must be positive")
    exact = measure.mode == RATIONAL
    lo, hi = to_scalar(window[0], measure.mode), to_scalar(window[1], measure.mode)
    if not lo < hi:
        raise ValueError("window must be nondegenerate")
    outside = [p for p in measure.support if not lo <= p <= hi]
    if outside:
        raise ValueError(f"support leaves the window: {outside}")

    a, b = lo, hi
    for _ in range(depth):
        mid = (a + b) / 2
        left = measure.measure_of(BorelSet.interval(a, mid))
        right = measure.measure_of(BorelSet.closed_interval(mid, b))
        if is_unit_mass(left, measure.mode):
            b = mid
        elif is_unit_mass(right, measure.mode):
            a = mid
        else:
            return None
    center = (a + b) / 2
    return center if exact else float(center)

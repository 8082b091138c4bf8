"""Diagnostics built on entropy and on evolution traces: the Khinchin axiom
suite, an informativity order on measures, Dirac detection by bisection,
and the Koopman transport, entropy monotonicity and affinity checks of an
evolution.

No CLI kind runs this layer.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple

from . import _np as np
from ._base import record
from .dynamics import DissipationReport, EvolutionTrace, decompose_evolution
from .errors import GridMismatch, NoAbsolutelyContinuousPart
from .information import entropy_bits, shannon_entropy
from .joint import measures_close, mixture
from .measures import (
    RATIONAL,
    BorelSet,
    DiscreteMeasure,
    Partition,
    _image,
    is_unit_mass,
    to_scalar,
)

INFORMATIVITY_TOL = 1e-12
ENTROPY_SLACK = 1e-12
AFFINE_TOL = 1e-12


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


# ---------------------------------------------------------------------------
# Evolution checks
# ---------------------------------------------------------------------------


def koopman_apply(report: DissipationReport, f: Callable, time: float):
    """Transport a function along the non-dissipative component.

    Integrates f against the kernel row and the initial measure; positive
    functions transport to positive values, and the constant one transports
    to one.  A call of ``f`` that raises, or a value that is not a scalar,
    raises DomainError, as in `DiscreteMeasure.pushforward`.
    """
    entry = report.at(time)
    if entry.surviving is None:
        raise NoAbsolutelyContinuousPart(f"no surviving mass at time {time}")
    initial = report.trace.initial
    mode = initial.mode
    total = to_scalar(0, mode)
    for s, w in initial.atoms:
        total += _image(f, (s,), s, mode) * entry.kernel[s] * w
    return total


@record
class EntropyEvolutionReport:
    monotone: bool
    dissipation_free: bool
    table: tuple
    """Triples (time, partition index, entropy bits)."""
    violations: tuple


def entropy_checks(
    trace: EvolutionTrace, partitions: Sequence[Partition], slack: float = ENTROPY_SLACK
) -> EntropyEvolutionReport:
    """Entropy never below the initial value = monotone; always equal =
    dissipation-free."""
    table = []
    violations = []
    monotone = True
    free = True
    base = [shannon_entropy(trace.initial, p).bits for p in partitions]
    for t, measure in zip(trace.times, trace.measures):
        for k, partition in enumerate(partitions):
            bits = shannon_entropy(measure, partition).bits
            table.append((t, k, bits))
            if bits < base[k] - slack:
                monotone = False
                violations.append((t, k, bits, base[k]))
            if abs(bits - base[k]) > slack:
                free = False
    return EntropyEvolutionReport(
        monotone=monotone,
        dissipation_free=free,
        table=tuple(table),
        violations=tuple(violations),
    )


@record
class AffineReport:
    affine: bool
    max_gap: float
    gaps: tuple
    mixture_split: Optional[DissipationReport]
    """Dissipation decomposition of the mixed trace when the evolution is
    affine; the non-dissipative and escaped components then split with the
    same coefficients."""


def affine_split_check(
    first: EvolutionTrace,
    second: EvolutionTrace,
    mixed: EvolutionTrace,
    ratio,
    tol: float = AFFINE_TOL,
) -> AffineReport:
    """Does the evolved mixture equal the mixture of the evolved parts?

    Compares atom by atom at every time on a shared grid; exact equality is
    required in rational mode.
    """
    if not (first.times == second.times == mixed.times):
        raise GridMismatch("time grids differ")
    gaps = []
    affine = True
    max_gap = 0.0
    for t, m1, m2, mx in zip(first.times, first.measures, second.measures, mixed.measures):
        combined = mixture([(ratio, m1), (1 - to_scalar(ratio, m1.mode), m2)])
        # Exact in rational mode, where equal atoms leave every gap 0.0.
        same = measures_close(combined, mx, weight_tol=tol)
        gap = 0.0
        if not same:
            gap = 1.0
        else:
            for (p, w), (q, v) in zip(combined.atoms, mx.atoms):
                gap = max(gap, abs(float(w) - float(v)))
        gaps.append((t, gap))
        max_gap = max(max_gap, gap)
        if not same:
            affine = False
    split = decompose_evolution(mixed) if affine else None
    return AffineReport(affine=affine, max_gap=max_gap, gaps=tuple(gaps),
                        mixture_split=split)

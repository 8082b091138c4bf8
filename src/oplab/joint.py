"""Measures made from other measures: joint measures on the plane, Markov
kernels, products and disintegration, convolution, mixtures, and the
tolerant comparison of two measures.

No CLI kind runs this layer; `oplab.spectral` and `oplab.diagnostics` read
it as a module attribute when they build a joint measure or a mixture.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ._base import RATIONAL, Scalar, to_scalar
from .errors import KernelDomainError
from .measures import (
    FLOAT_MERGE_TOL,
    BorelSet,
    DiscreteMeasure,
    _canonical_atoms,
    _check_mode,
    _FiniteMeasure,
    _image,
    _same_mode,
    _sum,
)

# Default weight tolerance of `measures_close`.
CLOSE_WEIGHT_TOL = 1e-9


def measures_close(
    a: DiscreteMeasure,
    b: DiscreteMeasure,
    point_tol: float = FLOAT_MERGE_TOL,
    weight_tol: float = CLOSE_WEIGHT_TOL,
) -> bool:
    """Atomwise comparison with tolerances; exact equality in rational mode."""
    if a.mode == RATIONAL and b.mode == RATIONAL:
        return a.atoms == b.atoms
    if len(a) != len(b):
        return False
    return all(
        abs(p - q) <= point_tol and abs(w - v) <= weight_tol
        for (p, w), (q, v) in zip(a.atoms, b.atoms)
    )


def mixture(components: Sequence, mode: str = None) -> DiscreteMeasure:
    """Weighted sum ``sum_i c_i * m_i`` of measures on a common mode."""
    if not components:
        raise ValueError("empty mixture")
    measures = [m for _, m in components]
    the_mode = _same_mode(*measures) if mode is None else mode
    atoms = []
    for coeff, m in components:
        c = to_scalar(coeff, the_mode)
        atoms.extend((p, c * w) for p, w in m.atoms)
    return DiscreteMeasure(atoms, mode=the_mode)


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Distribution of the sum of two independent outcomes.

    The mean of the result is the sum of the two means, which is the
    additivity law for jointly measured quantities.
    """
    mode = _same_mode(mu, nu)
    mu.require_probability("left operand")
    nu.require_probability("right operand")
    atoms = [(p + q, w * v) for p, w in mu.atoms for q, v in nu.atoms]
    return DiscreteMeasure(atoms, mode=mode)


# ---------------------------------------------------------------------------
# Joint measures and Markov kernels
# ---------------------------------------------------------------------------


class JointMeasure(_FiniteMeasure):
    """Finite-support measure on the plane, used for paired measurements."""

    __slots__ = ()
    _what = "joint measure"

    def __init__(self, atoms: Iterable, mode: str = RATIONAL):
        _check_mode(mode)
        rows = [
            (to_scalar(s, mode), to_scalar(t, mode), to_scalar(w, mode))
            for (s, t), w in atoms
        ]
        self.atoms = tuple(((s, t), w) for s, t, w in _canonical_atoms(rows, mode))
        self.mode = mode

    def measure_of(self, delta_s: BorelSet, delta_t: BorelSet, singleton_tol=0) -> Scalar:
        return _sum((w for (s, t), w in self.atoms
                     if delta_s.contains(s, singleton_tol) and delta_t.contains(t, singleton_tol)),
                    self.mode)

    def marginals(self):
        """Pair of coordinate projections."""
        first = DiscreteMeasure([(s, w) for (s, _), w in self.atoms], mode=self.mode)
        second = DiscreteMeasure([(t, w) for (_, t), w in self.atoms], mode=self.mode)
        return first, second

    def pushforward(self, f: Callable) -> DiscreteMeasure:
        """Image measure on the line under ``f(s, t)``."""
        return DiscreteMeasure([(_image(f, p, p, self.mode), w) for p, w in self.atoms],
                               mode=self.mode)

    def means(self):
        """Coordinatewise expectation pair."""
        self.require_probability()
        return (_sum((s * w for (s, _), w in self.atoms), self.mode),
                _sum((t * w for (_, t), w in self.atoms), self.mode))

    def __repr__(self) -> str:
        inner = ", ".join(f"({s},{t}):{w}" for (s, t), w in self.atoms)
        return f"JointMeasure({{{inner}}}, mode={self.mode})"


class MarkovKernel:
    """Family of conditional probability measures indexed by marginal points."""

    __slots__ = ("rows", "mode")

    def __init__(self, rows: Mapping):
        if not rows:
            raise ValueError("kernel needs at least one row")
        measures = list(rows.values())
        mode = _same_mode(*measures)
        converted = {}
        for point, row in rows.items():
            row.require_probability(f"kernel row at {point}")
            converted[to_scalar(point, mode)] = row
        self.rows = converted
        self.mode = mode

    def row(self, point) -> DiscreteMeasure:
        key = to_scalar(point, self.mode)
        if key not in self.rows:
            raise KernelDomainError(f"kernel has no row at {point}")
        return self.rows[key]

    def __contains__(self, point) -> bool:
        return to_scalar(point, self.mode) in self.rows

    def __repr__(self) -> str:
        return f"MarkovKernel(points={sorted(self.rows)}, mode={self.mode})"


def product_measure(marginal: DiscreteMeasure, kernel: MarkovKernel) -> JointMeasure:
    """Integrate the kernel rows against the marginal.

    The first marginal of the result reproduces ``marginal`` exactly; rows
    are required only where the marginal puts positive weight.
    """
    _same_mode(marginal, kernel)
    atoms = []
    for s, w in marginal.atoms:
        row = kernel.row(s)
        atoms.extend(((s, t), w * v) for t, v in row.atoms)
    return JointMeasure(atoms, mode=marginal.mode)


def disintegrate(joint: JointMeasure):
    """Split a joint probability into first marginal and conditional rows.

    ``product_measure`` of the output reproduces the input atom by atom, and
    integrating any row set against the marginal gives back the second
    marginal.
    """
    joint.require_probability()
    by_point: dict = {}
    for (s, t), w in joint.atoms:
        by_point.setdefault(s, []).append((t, w))
    totals = {s: _sum((w for _, w in entries), joint.mode) for s, entries in by_point.items()}
    rows = {s: DiscreteMeasure([(t, w / totals[s]) for t, w in entries], mode=joint.mode)
            for s, entries in by_point.items()}
    return DiscreteMeasure(totals.items(), mode=joint.mode), MarkovKernel(rows)

"""Exact finite-support measure calculus on the real line and the plane.

Measures are finite lists of weighted atoms.  Two arithmetic modes exist:
``rational`` (exact, `fractions.Fraction` everywhere, identities are
bit-testable) and ``float`` (double precision, atoms closer than 1e-9 are
merged).  All values are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

import math
import numbers
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    ConditioningOnNull,
    DomainError,
    KernelDomainError,
    ModeMismatch,
    NotProbability,
)

RATIONAL = "rational"
FLOAT = "float"

FLOAT_MERGE_TOL = 1e-9
FLOAT_MASS_TOL = 1e-12
# Default weight tolerance of `measures_close`.
CLOSE_WEIGHT_TOL = 1e-9
# Largest decimal exponent a scalar string may carry: Fraction("1eN") builds
# 10**N, so an unbounded exponent costs unbounded time and memory.
MAX_SCALAR_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")

Scalar = Union[Fraction, float]
ScalarLike = Union[Fraction, float, int, str]


def to_scalar(value: ScalarLike, mode: str) -> Scalar:
    """Coerce ``value`` to the scalar type of ``mode``.

    Accepts Fractions, ints and other ``numbers.Rational`` values (numpy
    integers included), floats, and decimal or ``"p/q"`` strings.  Rational
    mode converts floats through their exact binary expansion, so the
    conversion never rounds.  Non-finite values, zero denominators and
    decimal exponents beyond ``MAX_SCALAR_EXPONENT`` raise ``ValueError`` in
    both modes.
    """
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError("non-finite scalar")
            return Fraction(value)
        if isinstance(value, str):
            return _fraction_from_str(value)
        if isinstance(value, (int, numbers.Rational)):
            return Fraction(value)
        raise TypeError(f"cannot convert {type(value).__name__} to rational scalar")
    try:
        out = float(_fraction_from_str(value) if isinstance(value, str) and "/" in value else value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError("non-finite scalar")
    return out


def _fraction_from_str(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent is not None and abs(int(exponent.group(1))) > MAX_SCALAR_EXPONENT:
        raise ValueError(f"scalar exponent beyond MAX_SCALAR_EXPONENT = {MAX_SCALAR_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def is_unit_mass(mass: Scalar, mode: str) -> bool:
    """Mass one: exactly in rational mode, within ``FLOAT_MASS_TOL`` in float mode."""
    if mode == RATIONAL:
        return mass == 1
    return abs(mass - 1.0) <= FLOAT_MASS_TOL


def _sum(values: Iterable, mode: str) -> Scalar:
    """Sum ``values`` one at a time, in the given order, from the zero of
    ``mode``.  Builtin ``sum`` compensates float sums from Python 3.12 on,
    so its results would depend on the interpreter."""
    return reduce(add, values, to_scalar(0, mode))


def _image(f: Callable, args: tuple, at, mode: str) -> Scalar:
    """``f(*args)`` as a scalar of ``mode``: the image of the atom at ``at``
    under a pushforward, on the line and on the plane alike.  A call that
    raises, or a value that is not a scalar, raises DomainError."""
    try:
        value = f(*args)
    except Exception as exc:  # noqa: BLE001 - report as domain failure
        raise DomainError(f"function undefined at {at}: {exc}") from exc
    try:
        return to_scalar(value, mode)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"function value at {at} not a scalar") from exc


def _check_mode(mode: str) -> str:
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _same_mode(*objects) -> str:
    modes = {obj.mode for obj in objects}
    if len(modes) != 1:
        raise ModeMismatch(f"mixed arithmetic modes: {sorted(modes)}")
    return modes.pop()


# ---------------------------------------------------------------------------
# Borel sets
# ---------------------------------------------------------------------------

_Endpoint = Union[Fraction, float]  # Fractions plus the +-inf sentinels


def _to_endpoint(value) -> _Endpoint:
    """``±inf`` (a float, or the wire format's ``"inf"``/``"-inf"``) or an
    exact rational."""
    if isinstance(value, float) and math.isinf(value):
        return value
    if isinstance(value, str) and value in ("inf", "-inf"):
        return float(value)
    return to_scalar(value, RATIONAL)


class BorelSet:
    """Finite union of half-open intervals ``[lo, hi)`` and isolated points.

    The representation is canonical: intervals are disjoint, sorted and
    maximal (touching intervals are merged), singletons are sorted and never
    lie inside an interval.  Endpoints are exact rationals, with ``±inf``
    allowed for unbounded intervals.
    """

    __slots__ = ("intervals", "singletons")

    def __init__(self, intervals: Iterable = (), singletons: Iterable = ()):
        ivs = []
        for lo, hi in intervals:
            lo_e, hi_e = _to_endpoint(lo), _to_endpoint(hi)
            if not lo_e < hi_e:
                raise ValueError(f"empty interval [{lo}, {hi})")
            ivs.append((lo_e, hi_e))
        ivs.sort()  # exact: Fractions and the ±inf sentinels compare correctly
        merged: list = []
        for lo_e, hi_e in ivs:
            if merged and lo_e <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi_e))
            else:
                merged.append((lo_e, hi_e))
        points = sorted({to_scalar(s, RATIONAL) for s in singletons})
        kept = tuple(
            p for p in points if not any(lo <= p < hi for lo, hi in merged)
        )
        self.intervals = tuple(merged)
        self.singletons = kept

    # -- constructors -------------------------------------------------------

    @classmethod
    def interval(cls, lo, hi) -> "BorelSet":
        """Half-open interval ``[lo, hi)``."""
        return cls(intervals=[(lo, hi)])

    @classmethod
    def closed_interval(cls, lo, hi) -> "BorelSet":
        """Closed interval ``[lo, hi]``."""
        return cls(intervals=[(lo, hi)], singletons=[hi])

    @classmethod
    def point(cls, value) -> "BorelSet":
        return cls(singletons=[value])

    @classmethod
    def points(cls, values: Iterable) -> "BorelSet":
        return cls(singletons=values)

    @classmethod
    def real_line(cls) -> "BorelSet":
        return cls(intervals=[(-math.inf, math.inf)])

    # -- predicates ----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals and not self.singletons

    def __bool__(self) -> bool:
        return not self.is_empty()

    def contains(self, x, singleton_tol=0) -> bool:
        """Membership test.

        ``singleton_tol`` widens singleton atoms to ``|x - s| <= tol``; it is
        meant for inexact spectra matched against exact sets.  Interval
        membership is always exact.
        """
        for lo, hi in self.intervals:
            if lo <= x < hi:
                return True
        if singleton_tol:
            return any(abs(x - s) <= singleton_tol for s in self.singletons)
        return any(x == s for s in self.singletons)

    def __contains__(self, x) -> bool:
        return self.contains(x)

    # -- algebra -------------------------------------------------------------

    def union(self, other: "BorelSet") -> "BorelSet":
        return BorelSet(
            intervals=self.intervals + other.intervals,
            singletons=self.singletons + other.singletons,
        )

    def intersection(self, other: "BorelSet") -> "BorelSet":
        intervals = []
        for lo1, hi1 in self.intervals:
            for lo2, hi2 in other.intervals:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo < hi:
                    intervals.append((lo, hi))
        singles = [s for s in self.singletons if other.contains(s)]
        singles += [s for s in other.singletons if self.contains(s)]
        return BorelSet(intervals=intervals, singletons=singles)

    def is_disjoint_from(self, other: "BorelSet") -> bool:
        return self.intersection(other).is_empty()

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BorelSet)
            and self.intervals == other.intervals
            and self.singletons == other.singletons
        )

    def __hash__(self) -> int:
        return hash((self.intervals, self.singletons))

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``[0,1) ∪ {2}``."""
        parts = [f"[{lo},{hi})" for lo, hi in self.intervals]
        if self.singletons:
            parts.append("{" + ",".join(str(s) for s in self.singletons) + "}")
        return " u ".join(parts) if parts else "{}"

    def __repr__(self) -> str:
        return f"BorelSet({self.describe()})"


# ---------------------------------------------------------------------------
# Canonical atoms, shared by measures on the line and the plane
# ---------------------------------------------------------------------------


def _weighted_mean(a: tuple, b: tuple) -> tuple:
    """Merge two rows ``(x_1, …, x_d, w)`` into ``((a·w + b·v)/(w + v), w + v)``."""
    w, v = a[-1], b[-1]
    total = w + v
    return (*((x * w + y * v) / total for x, y in zip(a[:-1], b[:-1])), total)


def _float_runs(rows: list, axis: int) -> list:
    """Sort rows stably on coordinate ``axis``, split them into runs whose
    coordinate is within ``FLOAT_MERGE_TOL`` of the run start, and pair each
    run with its weighted mean.

    Once an ulp exceeds the tolerance, a mean can round onto or past the
    next run's.  While a run's mean is not below the next run's on ``axis``,
    the two runs join, so the means strictly increase on ``axis``.
    """
    runs = []
    for row in sorted(rows, key=itemgetter(axis)):
        if runs and row[axis] - start <= FLOAT_MERGE_TOL:
            runs[-1].append(row)
        else:
            start = row[axis]
            runs.append([row])
    joined = []
    for run in runs:
        mean = reduce(_weighted_mean, run)
        while joined and joined[-1][1][axis] >= mean[axis]:
            run = joined.pop()[0] + run
            mean = reduce(_weighted_mean, run)
        joined.append((run, mean))
    return joined


def _canonical_atoms(rows, mode: str) -> tuple:
    """Canonical form of atoms given as rows ``(x_1, …, x_d, weight)``.

    Sorts, drops zero weights and rejects negative ones (float mode forgives
    ``FLOAT_MASS_TOL``).  Rational mode merges equal points.  Float mode
    splits into runs on one coordinate at a time, each run on the next (see
    `_float_runs`), and merges each final run, in sorted order, into its
    weighted mean; the rows come out in run order, so line points strictly
    increase in both modes.  The result depends only on the multiset of rows.
    """
    items = []
    for row in sorted(rows):
        weight = row[-1]
        if weight < 0:
            if mode == RATIONAL or weight < -FLOAT_MASS_TOL:
                point = row[0] if len(row) == 2 else row[:-1]
                raise ValueError(f"negative weight {weight} at {point}")
        elif not weight:
            continue
        elif mode == RATIONAL and items and items[-1][:-1] == row[:-1]:
            items[-1] = (*row[:-1], items[-1][-1] + weight)
        else:
            items.append(row)
    if mode == RATIONAL or not items:
        return tuple(items)
    runs = [items]
    *axes, last = range(len(items[0]) - 1)
    for axis in axes:
        runs = [run for rows in runs for run, _ in _float_runs(rows, axis)]
    return tuple(mean for rows in runs for _, mean in _float_runs(rows, last))


class _FiniteMeasure:
    """Canonical atoms and arithmetic mode; the queries that only need those."""

    __slots__ = ("atoms", "mode")
    _what = "measure"

    @property
    def mass(self) -> Scalar:
        return _sum((w for _, w in self.atoms), self.mode)

    def is_probability(self) -> bool:
        return is_unit_mass(self.mass, self.mode)

    def require_probability(self, what: str = None):
        """Return ``self`` if it has mass one, else raise ``NotProbability``
        naming ``what`` (by default the kind of measure)."""
        if not self.is_probability():
            raise NotProbability(f"{what or self._what} has mass {self.mass}, expected 1")
        return self

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.mode == other.mode
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)


# ---------------------------------------------------------------------------
# Measures on the line
# ---------------------------------------------------------------------------


class DiscreteMeasure(_FiniteMeasure):
    """Nonnegative measure with finitely many atoms on the real line; the
    atom points strictly increase."""

    __slots__ = ()

    def __init__(self, atoms: Iterable, mode: str = RATIONAL):
        _check_mode(mode)
        rows = [(to_scalar(p, mode), to_scalar(w, mode)) for p, w in atoms]
        self.atoms = _canonical_atoms(rows, mode)
        self.mode = mode

    def _hits(self, delta: BorelSet, singleton_tol=0) -> list:
        """Positions of the atoms lying in ``delta``, in increasing order.

        Each interval and singleton of ``delta`` finds its atoms by bisecting
        the atoms, whose points strictly increase.  A nonzero
        ``singleton_tol`` (see ``BorelSet.contains``) is not an interval
        query, so it tests every atom.
        """
        atoms, point = self.atoms, itemgetter(0)
        if singleton_tol:
            return [k for k, (p, _) in enumerate(atoms) if delta.contains(p, singleton_tol)]
        spans = [(bisect_left(atoms, lo, key=point), bisect_left(atoms, hi, key=point))
                 for lo, hi in delta.intervals]
        spans += [(bisect_left(atoms, s, key=point), bisect_right(atoms, s, key=point))
                  for s in delta.singletons]
        return [k for a, b in sorted(spans) for k in range(a, b)]

    # -- constructors --------------------------------------------------------

    @classmethod
    def dirac(cls, point, mode: str = RATIONAL) -> "DiscreteMeasure":
        return cls([(point, 1)], mode=mode)

    @classmethod
    def uniform(cls, points: Sequence, mode: str = RATIONAL) -> "DiscreteMeasure":
        n = len(points)
        if n == 0:
            raise ValueError("uniform measure needs at least one point")
        w = Fraction(1, n) if mode == RATIONAL else 1.0 / n
        return cls([(p, w) for p in points], mode=mode)

    @classmethod
    def from_weights(cls, table: Mapping, mode: str = RATIONAL) -> "DiscreteMeasure":
        return cls(list(table.items()), mode=mode)

    # -- basic queries -------------------------------------------------------

    @property
    def support(self):
        return tuple(p for p, _ in self.atoms)

    def weight_at(self, point) -> Scalar:
        point = to_scalar(point, self.mode)
        k = bisect_left(self.atoms, point, key=itemgetter(0))
        if k < len(self.atoms) and self.atoms[k][0] == point:
            return self.atoms[k][1]
        return to_scalar(0, self.mode)

    # -- the measure itself --------------------------------------------------

    def measure_of(self, delta: BorelSet, singleton_tol=0) -> Scalar:
        """Total weight of atoms lying in ``delta``, summed in atom order."""
        return _sum((self.atoms[k][1] for k in self._hits(delta, singleton_tol)), self.mode)

    def mean(self) -> Scalar:
        """First moment; defined for probability measures only."""
        self.require_probability()
        return _sum((p * w for p, w in self.atoms), self.mode)

    def variance(self) -> Scalar:
        """Second central moment (the dispersion of the outcome)."""
        m = self.mean()
        return _sum(((p - m) * (p - m) * w for p, w in self.atoms), self.mode)

    def expectation(self, f: Callable) -> Scalar:
        """Integral of ``f`` against the measure."""
        return _sum((to_scalar(f(p), self.mode) * w for p, w in self.atoms), self.mode)

    # -- transformations -----------------------------------------------------

    def pushforward(self, f) -> "DiscreteMeasure":
        """Image measure under ``f`` (callable or lookup table).

        Atoms whose images coincide are merged, so mass is preserved.
        """
        if isinstance(f, Mapping):
            for p, _ in self.atoms:
                if p not in f:
                    raise DomainError(f"lookup table undefined at {p}")
            f = f.__getitem__
        return DiscreteMeasure([(_image(f, (p,), p, self.mode), w) for p, w in self.atoms],
                               mode=self.mode)

    def bayes_condition(self, delta: BorelSet) -> "DiscreteMeasure":
        """Conditional measure ``A -> m(A & delta) / m(delta)``."""
        kept = [self.atoms[k] for k in self._hits(delta)]
        denom = _sum((w for _, w in kept), self.mode)
        if denom == 0:
            raise ConditioningOnNull(f"conditioning set has measure zero: {delta!r}")
        return DiscreteMeasure([(p, w / denom) for p, w in kept], mode=self.mode)

    def restrict(self, delta: BorelSet) -> "DiscreteMeasure":
        """Unnormalized restriction to ``delta``."""
        return DiscreteMeasure([self.atoms[k] for k in self._hits(delta)], mode=self.mode)

    def scale(self, factor) -> "DiscreteMeasure":
        c = to_scalar(factor, self.mode)
        if c < 0:
            raise ValueError("negative scale factor")
        return DiscreteMeasure([(p, w * c) for p, w in self.atoms], mode=self.mode)

    # -- plumbing ------------------------------------------------------------

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{w}" for p, w in self.atoms)
        return f"DiscreteMeasure({{{inner}}}, mode={self.mode})"


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
# Lebesgue decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LebesgueDecomposition:
    """Split of ``nu`` into parts inside and outside the support of ``mu``.

    ``absolutely_continuous + singular == nu`` atom by atom.  The density
    table is the Radon-Nikodym derivative of the absolutely continuous part
    with respect to ``mu``, tabulated on the support of ``mu``.
    """

    absolutely_continuous: DiscreteMeasure
    singular: DiscreteMeasure
    continuous_mass: Scalar
    density: dict

    def normalized_continuous(self) -> DiscreteMeasure:
        if self.continuous_mass == 0:
            raise ZeroDivisionError("absolutely continuous part is null")
        return self.absolutely_continuous.scale(1 / self.continuous_mass)

    def normalized_singular(self) -> DiscreteMeasure:
        rem = self.singular.mass
        if rem == 0:
            raise ZeroDivisionError("singular part is null")
        return self.singular.scale(1 / rem)


def lebesgue_decompose(nu: DiscreteMeasure, mu: DiscreteMeasure) -> LebesgueDecomposition:
    """Unique split ``nu = ac + sing`` with ``ac`` carried by supp(mu) and
    ``sing`` disjoint from it."""
    _same_mode(nu, mu)
    nu.require_probability("decomposed measure")
    mu.require_probability("reference measure")
    mu_support = set(mu.support)
    ac = [(p, w) for p, w in nu.atoms if p in mu_support]
    sing = [(p, w) for p, w in nu.atoms if p not in mu_support]
    ac_measure = DiscreteMeasure(ac, mode=nu.mode)
    sing_measure = DiscreteMeasure(sing, mode=nu.mode)
    density = {p: nu.weight_at(p) / w for p, w in mu.atoms}
    return LebesgueDecomposition(
        absolutely_continuous=ac_measure,
        singular=sing_measure,
        continuous_mass=ac_measure.mass,
        density=density,
    )


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


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def _first_overlap(pieces: list):
    """Smallest pair ``(i, j)``, ``i < j``, of cells sharing a point, or None.

    ``pieces`` are ``(start, end, cell)`` sorted by start.  An earlier piece
    ``(a, b)`` meets a piece starting at ``x >= a`` iff ``x < b or x == a``;
    once it misses one, it misses every later one.  The heap holds earlier
    pieces by cell and drops missed ones from its top, so its top is the
    smallest cell that meets the current piece.  Pairing every piece with
    that cell and keeping the smallest pair gives the same pair as a check
    of all pairs in order.
    """
    best = None
    earlier: list = []  # heap of (cell, start, end)
    for x, end, k in pieces:
        while earlier and not (x < earlier[0][2] or x == earlier[0][1]):
            heappop(earlier)
        if earlier:
            m = earlier[0][0]
            pair = (min(m, k), max(m, k))
            if best is None or pair < best:
                best = pair
        heappush(earlier, (k, x, end))
    return best


class Partition:
    """Finite family of pairwise disjoint Borel cells over a window.

    The pieces of all cells, intervals ``[lo, hi)`` and singletons, live in
    one index sorted by left end and tagged with their cell.  Disjointness
    is one sweep over it and ``locate`` one bisection.
    """

    __slots__ = ("window", "cells", "_starts", "_pieces")

    def __init__(self, window, cells: Sequence[BorelSet]):
        lo, hi = map(_to_endpoint, window)
        if not lo < hi:
            raise ValueError("window must be a nondegenerate interval")
        cells = tuple(cells)
        if not cells:
            raise ValueError("partition needs at least one cell")
        # A piece is (start, end, cell); a singleton has end == start.
        pieces = [(a, b, k) for k, cell in enumerate(cells) for a, b in cell.intervals]
        pieces += [(s, s, k) for k, cell in enumerate(cells) for s in cell.singletons]
        pieces.sort(key=itemgetter(0))
        overlap = _first_overlap(pieces)
        if overlap is not None:
            raise ValueError(f"cells {overlap[0]} and {overlap[1]} overlap")
        self.window = (lo, hi)
        self.cells = cells
        self._starts = [a for a, _, _ in pieces]
        self._pieces = pieces

    @classmethod
    def dyadic(cls, lo, hi, depth: int) -> "Partition":
        """2**depth equal half-open cells over [lo, hi], last cell closed."""
        lo_e, hi_e = to_scalar(lo, RATIONAL), to_scalar(hi, RATIONAL)
        n = 2 ** depth
        step = (hi_e - lo_e) / n
        cells = []
        for k in range(n):
            a, b = lo_e + k * step, lo_e + (k + 1) * step
            cell = BorelSet.closed_interval(a, b) if k == n - 1 else BorelSet.interval(a, b)
            cells.append(cell)
        return cls((lo_e, hi_e), cells)

    @classmethod
    def separating(cls, measure: DiscreteMeasure) -> "Partition":
        """One singleton cell per atom; the finest partition the atoms see."""
        support = measure.support
        if not support:
            raise ValueError("empty measure has no separating partition")
        pts = [to_scalar(p, RATIONAL) for p in support]
        lo = min(pts) - 1
        hi = max(pts) + 1
        return cls((lo, hi), [BorelSet.point(p) for p in support])

    def locate(self, x) -> int:
        """Index of the cell containing ``x``, or -1 (always for NaN)."""
        i = bisect_right(self._starts, x) - 1
        if i >= 0:
            a, b, k = self._pieces[i]
            if x < b or x == a:
                return k
        return -1

    def covers(self, measure: DiscreteMeasure) -> bool:
        return all(self.locate(p) >= 0 for p in measure.support)

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"Partition(window={self.window}, cells={len(self.cells)})"

"""Exact finite-support measure calculus on the real line: Borel sets,
measures, the Lebesgue decomposition and partitions.  The atom canonicalizer
here serves the plane measures of `oplab.joint` too.

Measures are finite lists of weighted atoms.  Two arithmetic modes exist:
``rational`` (exact, `fractions.Fraction` everywhere, identities are
bit-testable) and ``float`` (double precision; atoms chained within 1e-9
in every coordinate merge into their mean).  All values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from ._base import (  # noqa: F401  re-exported: the scalar coercion lives in _base
    FLOAT,
    MAX_SCALAR_EXPONENT,
    RATIONAL,
    Scalar,
    _fraction_from_str,
    _to_endpoint,
    record,
    to_scalar,
)
from .errors import (
    ConditioningOnNull,
    DomainError,
    ModeMismatch,
    NotProbability,
)

FLOAT_MERGE_TOL = 1e-9
FLOAT_MASS_TOL = 1e-12
_start = itemgetter(0)  # the left end of a piece, the point of an atom


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
    """``f(*args)`` as a scalar of ``mode``: the value of a caller's
    function at the atom at ``at``, in a pushforward on the line or the plane,
    an expectation or a Koopman transport.  A call that raises, or a value
    that is not a scalar, raises DomainError."""
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

class BorelSet:
    """Finite union of half-open intervals ``[lo, hi)`` and isolated points.

    The representation is canonical: pairwise disjoint pieces sorted by left
    end, an interval as ``(lo, hi)`` and a singleton as ``(s, s)``, where
    touching intervals are merged and no singleton lies inside an interval.
    Endpoints are exact rationals, with ``±inf`` allowed for unbounded
    intervals.  ``Partition`` tags the same pieces with their cell.
    """

    __slots__ = ("_pieces", "_floats")

    def __init__(self, intervals: Iterable = (), singletons: Iterable = ()):
        pieces = []
        for lo, hi in intervals:
            lo_e, hi_e = _to_endpoint(lo), _to_endpoint(hi)
            if not lo_e < hi_e:
                raise ValueError(f"empty interval [{lo}, {hi})")
            pieces.append((lo_e, hi_e))
        pieces += [(p := to_scalar(s, RATIONAL), p) for s in singletons]
        pieces.sort(key=_start)  # stable: an interval before a singleton at its left end
        kept = pieces[:1]
        for a, b in pieces[1:]:
            start, end = kept[-1]
            if a < b and a <= end:  # an interval touching the last piece: merge
                kept[-1] = (start, max(end, b))
            elif a < b or not (a < end or a == start):  # not a singleton inside it
                kept.append((a, b))
        self._pieces = tuple(kept)
        self._floats = None

    @property
    def intervals(self) -> tuple:
        """The intervals ``(lo, hi)``, sorted."""
        return tuple(p for p in self._pieces if p[0] != p[1])

    @property
    def singletons(self) -> tuple:
        """The isolated points, sorted."""
        return tuple(a for a, b in self._pieces if a == b)

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
        return not self._pieces

    def __bool__(self) -> bool:
        return not self.is_empty()

    def contains(self, x, singleton_tol=0) -> bool:
        """Membership test.

        ``singleton_tol`` widens singleton atoms to ``|x - s| <= tol``; it is
        meant for inexact spectra matched against exact sets.  Interval
        membership is always exact.  Both are bisections: the piece that may
        hold ``x``, and the pieces whose start ``s`` has ``s - x`` within
        ``±tol``.  ``s - x`` never falls as ``s`` grows, even rounded, so
        those pieces are one run and hold every singleton within ``tol``.
        """
        pieces = _index(self, isinstance(x, float))
        i = _find(pieces, x)
        if not singleton_tol:
            return i >= 0
        if i >= 0 and pieces[i][0] != pieces[i][1]:
            return True

        def offset(piece):  # no arithmetic on -inf: an exact x may be beyond a double
            return _minus(piece[0], x) if piece[0] != -math.inf else -math.inf

        lo = bisect_left(pieces, -singleton_tol, key=offset)
        hi = bisect_right(pieces, singleton_tol, lo, key=offset)
        return any(abs(_minus(a, x)) <= singleton_tol for a, b in pieces[lo:hi] if a == b)

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
        return isinstance(other, BorelSet) and self._pieces == other._pieces

    def __hash__(self) -> int:
        return hash(self._pieces)

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``[0,1) u {2}``."""
        parts = [f"[{lo},{hi})" for lo, hi in self.intervals]
        if self.singletons:
            parts.append("{" + ",".join(str(s) for s in self.singletons) + "}")
        return " u ".join(parts) if parts else "{}"

    def __repr__(self) -> str:
        return f"BorelSet({self.describe()})"


def _minus(endpoint, x):
    """``endpoint - x`` for a float ``x``, rounded as floats round: an
    endpoint beyond a double, which ``float`` cannot convert, rounds to the
    infinity of its sign, as the nearest double would.  An exact difference
    there would break the order of the keys, since a smaller endpoint's
    rounded difference may already be an infinity.  An exact ``x`` is
    looked up among the exact endpoints, whose differences never overflow."""
    try:
        return endpoint - x
    except OverflowError:
        return (math.inf if endpoint > 0 else -math.inf) - x


def _float_key(endpoint):
    """``endpoint`` as its double where that double is exactly it, else as it
    is (a Fraction too large for a double or between two doubles).  A float
    compares with the key exactly as with the endpoint, and with a double
    key without building a Fraction."""
    try:
        key = float(endpoint)
    except OverflowError:
        return endpoint
    return key if key == endpoint else endpoint


def _index(owner, floats: bool) -> Sequence:
    """The pieces ``(start, end, ...)`` of a `BorelSet` or `Partition`, or for
    float queries their copy with `_float_key` endpoints, built on the first
    one.  A singleton's endpoint is converted once."""
    if not floats:
        return owner._pieces
    if owner._floats is None:
        copy = []
        for a, b, *tag in owner._pieces:
            start = _float_key(a)
            copy.append((start, start if b == a else _float_key(b), *tag))
        owner._floats = tuple(copy)
    return owner._floats


def _find(pieces: Sequence, x) -> int:
    """Position of the piece holding ``x`` among pairwise disjoint ``pieces``
    sorted by start, or -1 (always for NaN).  Only the last piece starting
    at or before ``x`` can hold it: an interval ``[start, end)`` when
    ``x < end``, a singleton (``end == start``) when ``x == start``."""
    i = bisect_right(pieces, x, key=_start) - 1
    return i if i >= 0 and (x < pieces[i][1] or x == pieces[i][0]) else -1


# ---------------------------------------------------------------------------
# Canonical atoms, shared by measures on the line and the plane
# ---------------------------------------------------------------------------


def _weighted_mean(a: tuple, b: tuple) -> tuple:
    """Merge two rows ``(x_1, …, x_d, w)`` into ``((a·w + b·v)/(w + v), w + v)``;
    a coordinate the two rows share stays exactly as it is."""
    w, v = a[-1], b[-1]
    total = w + v
    return (*[x if x == y else (x * w + y * v) / total for x, y in zip(a[:-1], b[:-1])], total)


def _linked_clusters(rows: list) -> list:
    """The clusters of sorted float rows, each in sorted order, where rows
    link when every coordinate differs by at most ``FLOAT_MERGE_TOL``: on the
    line, the runs of gaps within it.  On the plane, in O(n log n), a row
    links the nearest row on each side of its t among the last earlier rows
    at each t whose s links.  Two of those on one side within the tolerance
    link, as float subtraction is monotone, so they already share a root."""
    parent = list(range(len(rows)))
    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k
    if len(rows[0]) == 2:
        for k in range(1, len(rows)):
            if rows[k][0] - rows[k - 1][0] <= FLOAT_MERGE_TOL:
                parent[k] = parent[k - 1]
    ts, last, first = [], {}, 0
    for k, (s, t, _) in enumerate(rows if len(rows[0]) == 3 else ()):
        while s - rows[first][0] > FLOAT_MERGE_TOL:
            if last.get(u := rows[first][1]) == first:
                del last[u], ts[bisect_left(ts, u)]
            first += 1
        at = bisect_left(ts, t)
        if at and t - ts[at - 1] <= FLOAT_MERGE_TOL:
            parent[root(last[ts[at - 1]])] = root(k)
        if at < len(ts) and ts[at] - t <= FLOAT_MERGE_TOL:
            parent[root(last[ts[at]])] = root(k)
        if t not in last:
            ts.insert(at, t)
        last[t] = k
    clusters: dict = {}
    for k, row in enumerate(rows):
        clusters.setdefault(root(k), []).append(row)
    return list(clusters.values())


def _canonical_atoms(rows, mode: str) -> tuple:
    """Canonical form of atoms given as rows ``(x_1, …, x_d, weight)``.

    Sorts, drops zero weights and rejects negative ones (float mode forgives
    ``FLOAT_MASS_TOL``).  Rational mode merges equal points.  Float mode
    merges each cluster of rows linked within ``FLOAT_MERGE_TOL`` in every
    coordinate, in sorted order, into its weighted mean, until no two rows
    link.  Line points strictly increase, the atoms depend only on the
    multiset of rows, and a row that links no other changes no other atom."""
    items = []
    for row in sorted(rows):
        weight = row[-1]
        if weight < 0 and (mode == RATIONAL or weight < -FLOAT_MASS_TOL):
            raise ValueError(f"negative weight {weight} at {row[0] if len(row) == 2 else row[:-1]}")
        if weight <= 0:
            continue
        if mode == RATIONAL and items and items[-1][:-1] == row[:-1]:
            items[-1] = (*row[:-1], items[-1][-1] + weight)
        else:
            items.append(row)
    while mode == FLOAT and items:
        clusters = _linked_clusters(items)
        if len(clusters) == len(items):
            break
        items = sorted(reduce(_weighted_mean, rows) for rows in clusters)
    return tuple(items)


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
        return type(other) is type(self) and (self.mode, self.atoms) == (other.mode, other.atoms)

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

        Each piece of ``delta``, in order, finds its atoms by bisecting the
        atoms, whose points strictly increase; in float mode against the
        endpoints' `_float_key`, built once per set.  A nonzero
        ``singleton_tol`` (see ``BorelSet.contains``) is not an interval
        query, so it asks the set about every atom.
        """
        atoms = self.atoms
        if singleton_tol:
            return [k for k, (p, _) in enumerate(atoms) if delta.contains(p, singleton_tol)]
        hits: list = []
        for a, b in _index(delta, self.mode == FLOAT):
            last = (bisect_right if a == b else bisect_left)(atoms, b, key=_start)
            hits += range(bisect_left(atoms, a, key=_start), last)
        return hits

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
        k = bisect_left(self.atoms, point, key=_start)
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
        """Integral of ``f`` against the measure.  A call of ``f`` that
        raises, or a value that is not a scalar, raises DomainError."""
        return _sum((_image(f, (p,), p, self.mode) * w for p, w in self.atoms), self.mode)

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


# ---------------------------------------------------------------------------
# Lebesgue decomposition
# ---------------------------------------------------------------------------


@record
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

    The pieces of all cells, in `BorelSet`'s encoding and tagged with their
    cell as ``(start, end, cell)``, live in one index sorted by start.
    Disjointness is one sweep over it, and ``locate`` the lookup of
    ``BorelSet.contains``.  Float queries use the index's copy with
    `_float_key` endpoints, built on the first float query.
    """

    __slots__ = ("window", "cells", "_pieces", "_floats")

    def __init__(self, window, cells: Sequence[BorelSet]):
        lo, hi = map(_to_endpoint, window)
        if not lo < hi:
            raise ValueError("window must be a nondegenerate interval")
        cells = tuple(cells)
        if not cells:
            raise ValueError("partition needs at least one cell")
        pieces = [(a, b, k) for k, cell in enumerate(cells) for a, b in cell._pieces]
        pieces.sort(key=_start)
        overlap = _first_overlap(pieces)
        if overlap is not None:
            raise ValueError(f"cells {overlap[0]} and {overlap[1]} overlap")
        self.window = (lo, hi)
        self.cells = cells
        self._pieces = pieces
        self._floats = None

    @classmethod
    def dyadic(cls, lo, hi, depth: int) -> "Partition":
        """2**depth equal half-open cells over [lo, hi], last cell closed."""
        if not isinstance(depth, int) or depth < 0:
            raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
        lo_e, hi_e = to_scalar(lo, RATIONAL), to_scalar(hi, RATIONAL)
        n = 2 ** depth
        step = (hi_e - lo_e) / n
        cells = [BorelSet.interval(lo_e + k * step, lo_e + (k + 1) * step) for k in range(n - 1)]
        return cls((lo_e, hi_e), cells + [BorelSet.closed_interval(hi_e - step, hi_e)])

    @classmethod
    def separating(cls, measure: DiscreteMeasure) -> "Partition":
        """One singleton cell per atom; the finest partition the atoms see."""
        support = measure.support
        if not support:
            raise ValueError("empty measure has no separating partition")
        lo, hi = to_scalar(support[0], RATIONAL) - 1, to_scalar(support[-1], RATIONAL) + 1
        return cls((lo, hi), [BorelSet.point(p) for p in support])

    def locate(self, x) -> int:
        """Index of the cell containing ``x``, or -1 (always for NaN)."""
        pieces = _index(self, isinstance(x, float))
        i = _find(pieces, x)
        return pieces[i][2] if i >= 0 else -1

    def covers(self, measure: DiscreteMeasure) -> bool:
        return all(self.locate(p) >= 0 for p in measure.support)

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"Partition(window={self.window}, cells={len(self.cells)})"

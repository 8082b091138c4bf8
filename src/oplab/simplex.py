"""Exact phase-one simplex over the rationals, revised on an integer B⁻¹.

Solves the feasibility problem ``A x = b, x >= 0`` exactly, so infeasibility
verdicts are certificates rather than numerical artifacts.  Each row is scaled
to integers by the lcm of its coefficients' denominators, and so is its
artificial column; the right-hand sides share one common scale.  Columns are
stored sparse.  The simplex keeps only the basis inverse, as an integer
adjugate ``N`` over the basis determinant ``D`` (integer pivoting as in
Edmonds 1967 and Bareiss 1968): a pivot with entering column ``u = N·a`` on
row ``r`` sets each other row ``N_i`` to ``(u_r·N_i − u_i·N_r) / D``, an exact
division, and ``D`` to ``u_r``.  Bland's rule keeps the pivoting finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from ._base import record


@record
class FeasibilityResult:
    feasible: bool
    x: Optional[tuple]
    deficit: Fraction
    """Phase-one optimum: zero iff the system is feasible."""
    farkas: Optional[tuple] = None
    """When infeasible, ``y`` with ``yᵀA <= 0`` and ``yᵀb > 0``."""
    pivots: int = 0
    """Simplex pivots, phase one and the drive-out of artificials together."""


def find_feasible_point(rows: Sequence[Sequence], rhs: Sequence) -> FeasibilityResult:
    """Find ``x >= 0`` with ``rows @ x == rhs`` or report the deficit."""
    m = len(rows)
    if m == 0:
        return FeasibilityResult(True, (), Fraction(0))
    n = len(rows[0])
    # Row i is scaled by sign[i]·scale[i]: scale[i] clears the denominators of
    # its coefficients, and the sign makes b_i >= 0 so that the artificial
    # basis is feasible.  Column j is its nonzeros, their rows in at[j] and
    # values in val[j], which is None when every value is 1; the artificial
    # column of row i is scale[i]·e_i.
    at, val = [[] for _ in range(n)], [[] for _ in range(n)]
    scale, sign, b = [], [], []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        nonzero = [(j, v if isinstance(v, (int, Fraction)) else Fraction(v))
                   for j, v in enumerate(row) if v]
        d = math.lcm(*[v.denominator for _, v in nonzero])
        target = Fraction(rhs[i])
        s = -1 if target < 0 else 1
        for j, v in nonzero:
            at[j].append(i)
            val[j].append(s * v.numerator * (d // v.denominator))
        scale.append(d)
        sign.append(s)
        b.append(s * d * target)
    val = [None if all(v == 1 for v in values) else values for values in val]
    # The right-hand sides at one common scale, so that basic values are
    # beta / (D·common).
    common = math.lcm(*(v.denominator for v in b))
    det = math.prod(scale)
    adj = [[det // scale[i] if k == i else 0 for k in range(m)] for i in range(m)]
    beta = [det // scale[i] * int(b[i] * common) for i in range(m)]
    basis = list(range(n, n + m))
    pivots = 0

    def dot(row: list, j: int):
        """``row·a_j`` over the nonzeros of structural column j."""
        if val[j] is None:
            return sum(map(row.__getitem__, at[j]))
        return sum(map(mul, map(row.__getitem__, at[j]), val[j]))

    def column(j: int) -> list:
        """``N·a_j``."""
        if j >= n:
            k, d = j - n, scale[j - n]
            return [row[k] * d for row in adj]
        return [dot(row, j) for row in adj]

    def pivot(r: int, c: int, u: list) -> None:
        nonlocal det, pivots
        ur, adj_r, beta_r = u[r], adj[r], beta[r]
        for i in range(m):
            ui = u[i]
            # A row with u_i = 0 keeps its values when D does not change.
            if i != r and (ui or ur != det):
                adj[i] = [(ur * v - ui * w) // det for v, w in zip(adj[i], adj_r)]
                beta[i] = (ur * beta[i] - ui * beta_r) // det
        det = ur
        basis[r] = c
        pivots += 1

    while True:
        # The phase-one duals times D: the sum of the rows of N whose basic
        # variable is artificial.  D stays positive in phase one, so a
        # negative reduced cost is a positive y·a_j, or y_k·scale_k > D on an
        # artificial column.
        y = [sum(col) for col in zip(*[adj[i] for i in range(m) if basis[i] >= n])]
        if not y:
            break
        entering = next((j for j in range(n) if dot(y, j) > 0), None)
        if entering is None:
            entering = next((n + k for k in range(m) if y[k] * scale[k] > det), None)
            if entering is None:
                break
        u = column(entering)
        # Least ratio beta_i / u_i over u_i > 0, ties to the lowest basis
        # index, compared cross-multiplied.
        leaving = None
        for i in range(m):
            a = u[i]
            if a <= 0:
                continue
            if leaving is not None:
                lhs, rhs_ = beta[i] * best_a, best_b * a
                if lhs > rhs_ or (lhs == rhs_ and basis[i] > basis[leaving]):
                    continue
            leaving, best_b, best_a = i, beta[i], a
        if leaving is None:
            # Phase one is bounded below by zero, so this cannot happen.
            raise RuntimeError("phase-one ratio test failed")
        pivot(leaving, entering, u)

    deficit = sum(beta[i] for i in range(m) if basis[i] >= n)
    if deficit > 0:
        # Each row's dual, with its scaling and negation undone.
        farkas = tuple(s * Fraction(d * yi, det) for s, d, yi in zip(sign, scale, y))
        return FeasibilityResult(False, None, Fraction(deficit, det * common), farkas, pivots)

    # Drive leftover artificials out of the basis where possible.  The pivot
    # element may be negative here, and D with it.
    for r in range(m):
        if basis[r] >= n:
            adj_r = adj[r]
            c = next((j for j in range(n) if dot(adj_r, j)), None)
            if c is not None:
                pivot(r, c, column(c))

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(beta[i], det * common)
    return FeasibilityResult(True, tuple(x), Fraction(0), None, pivots)

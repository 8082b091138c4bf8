"""Exact phase-one simplex over the rationals, on integer rows.

Solves the feasibility problem ``A x = b, x >= 0`` exactly, so infeasibility
verdicts are certificates rather than numerical artifacts.  Each tableau row
is a list of Python integers over one positive denominator; a pivot updates
rows fraction-free and divides each by its gcd.  Bland's rule keeps the
pivoting finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _reduced(row: list, den: int) -> tuple:
    """``row / den`` as integers over a positive denominator, in lowest terms."""
    if den < 0:
        row, den = [-v for v in row], -den
    g = math.gcd(*row, den)
    return ([v // g for v in row], den // g) if g > 1 else (row, den)


def find_feasible_point(rows: Sequence[Sequence], rhs: Sequence) -> FeasibilityResult:
    """Find ``x >= 0`` with ``rows @ x == rhs`` or report the deficit."""
    m = len(rows)
    if m == 0:
        return FeasibilityResult(True, (), Fraction(0))
    n = len(rows[0])
    width = n + m
    # Row i of [A | I | b] is tab[i] / den[i], negated first if b_i < 0 so
    # that the artificial basis is feasible.
    tab, den, sign = [], [], []
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError("ragged constraint matrix")
        exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (*rows[i], rhs[i])]
        d = math.lcm(*(v.denominator for v in exact))
        s = -1 if exact[-1] < 0 else 1
        row = [s * v.numerator * (d // v.denominator) for v in exact]
        tab.append(row[:n] + [d if j == i else 0 for j in range(m)] + row[n:])
        den.append(d)
        sign.append(s)
    # Row m holds the reduced costs of minimizing the sum of artificials and,
    # last, minus that sum.
    obj_den = math.lcm(*den)
    obj = [-sum(obj_den // den[i] * tab[i][j] for i in range(m)) for j in range(width + 1)]
    obj[n:width] = [0] * m
    tab.append(obj)
    den.append(obj_den)
    basis = [n + i for i in range(m)]

    def pivot(r: int, c: int) -> None:
        # Row i becomes (p·T_i − T_ic·T_r) / (D_i·p); the pivot row T_r / p.
        pr, p = tab[r], tab[r][c]
        for i in range(m + 1):
            f = tab[i][c]
            if f and i != r:
                tab[i], den[i] = _reduced([p * v - f * w for v, w in zip(tab[i], pr)], den[i] * p)
        tab[r], den[r] = _reduced(pr, p)
        basis[r] = c

    while True:
        obj = tab[m]
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        # Least ratio b_i / a_i over a_i > 0, ties to the lowest basis index.
        # The row denominator cancels, so integers compare cross-multiplied.
        leaving = None
        for i in range(m):
            a = tab[i][entering]
            if a <= 0:
                continue
            if leaving is not None:
                lhs, rhs_ = tab[i][-1] * best_a, best_b * a
                if lhs > rhs_ or (lhs == rhs_ and basis[i] > basis[leaving]):
                    continue
            leaving, best_b, best_a = i, tab[i][-1], a
        if leaving is None:
            # Phase one is bounded below by zero, so this cannot happen.
            raise RuntimeError("phase-one ratio test failed")
        pivot(leaving, entering)

    if obj[-1] < 0:
        # The duals of the artificial rows, 1 − reduced cost, with each row's
        # negation undone.
        d = den[m]
        farkas = tuple(s * Fraction(d - obj[n + i], d) for i, s in enumerate(sign))
        return FeasibilityResult(False, None, Fraction(-obj[-1], d), farkas)

    # Drive leftover artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], den[i])
    return FeasibilityResult(True, tuple(x), Fraction(0))

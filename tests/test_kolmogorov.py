import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import kolmogorov
from oplab.errors import CapacityError
from oplab.kolmogorov import (
    ConditionalConstraint,
    CorrelationConstraint,
    ExpectationConstraint,
    JointConstraint,
    MarginalConstraint,
    kolmogorov_check,
    verify_farkas,
    verify_joint,
)
from oplab.simplex import FeasibilityResult, find_feasible_point

PM1 = {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]}


def test_single_marginal_trivially_feasible():
    constraints = [MarginalConstraint("a", 1, F(2, 7))]
    result = kolmogorov_check({"a": [-1, 1]}, constraints)
    assert result.feasible
    assert verify_joint(result.joint, {"a": [-1, 1]}, constraints)


def test_product_measure_tables_recovered():
    # Pairwise tables generated from a true product measure p(a) x p(b).
    pa = {-1: F(1, 4), 1: F(3, 4)}
    pb = {-1: F(2, 5), 1: F(3, 5)}
    constraints = []
    for va, vb in itertools.product([-1, 1], repeat=2):
        constraints.append(JointConstraint.of({"a": va, "b": vb}, pa[va] * pb[vb]))
    result = kolmogorov_check({"a": [-1, 1], "b": [-1, 1]}, constraints)
    assert result.feasible
    assert verify_joint(result.joint, {"a": [-1, 1], "b": [-1, 1]}, constraints)


def test_correlation_triple_infeasible_with_certificate():
    constraints = [
        CorrelationConstraint(("a", "b"), F(-9, 10)),
        CorrelationConstraint(("a", "c"), F(-9, 10)),
        CorrelationConstraint(("b", "c"), F(-9, 10)),
    ]
    result = kolmogorov_check(PM1, constraints)
    assert not result.feasible
    assert result.deficit > 0
    assert set(result.certificate) == set(constraints)


def test_pairwise_sum_bound_oracle():
    # Enumeration oracle: on every atom of the 8-point space the sum of the
    # three pair products is either -1 or 3, so its expectation is >= -1 and
    # any target sum below -1 is impossible while any above is realizable.
    sums = {
        sa * sb + sa * sc + sb * sc
        for sa, sb, sc in itertools.product([-1, 1], repeat=3)
    }
    assert sums == {-1, 3}
    # Just feasible at the extreme point E12 = E13 = E23 = -1/3.
    boundary = [
        CorrelationConstraint(("a", "b"), F(-1, 3)),
        CorrelationConstraint(("a", "c"), F(-1, 3)),
        CorrelationConstraint(("b", "c"), F(-1, 3)),
    ]
    result = kolmogorov_check(PM1, boundary)
    assert result.feasible
    assert verify_joint(result.joint, PM1, boundary)


def test_verdicts_match_oracle_on_correlation_grid():
    # E12 = E13 = E23 = e is classical iff 3e >= -1.
    for numerator in range(-12, 13, 3):
        e = F(numerator, 12)
        constraints = [
            CorrelationConstraint(("a", "b"), e),
            CorrelationConstraint(("a", "c"), e),
            CorrelationConstraint(("b", "c"), e),
        ]
        result = kolmogorov_check(PM1, constraints)
        assert result.feasible == (3 * e >= -1)
        if result.feasible:
            assert verify_joint(result.joint, PM1, constraints)


def test_conditional_constraints_clear_denominators():
    constraints = [
        ConditionalConstraint.of({"a": 1}, {"b": 1}, F(2, 3)),
        MarginalConstraint("b", 1, F(3, 4)),
    ]
    result = kolmogorov_check(PM1, constraints)
    assert result.feasible
    joint = result.joint
    pb = sum(p for cell, p in joint.items() if cell[1] == 1)
    pab = sum(p for cell, p in joint.items() if cell[0] == 1 and cell[1] == 1)
    assert pb == F(3, 4)
    assert pab == F(2, 3) * pb


def test_expectation_constraint():
    constraints = [ExpectationConstraint("a", F(1, 2))]
    result = kolmogorov_check({"a": [-1, 1]}, constraints)
    assert result.feasible
    assert verify_joint(result.joint, {"a": [-1, 1]}, constraints)


def test_contradictory_marginals_certificate_is_minimal():
    constraints = [
        MarginalConstraint("a", 1, F(1, 3)),
        MarginalConstraint("a", 1, F(1, 2)),
        MarginalConstraint("b", 1, F(1, 2)),
    ]
    result = kolmogorov_check({"a": [-1, 1], "b": [-1, 1]}, constraints)
    assert not result.feasible
    assert set(result.certificate) == set(constraints[:2])


def test_repeated_constraint_object_gives_a_minimal_certificate():
    c1, c2 = MarginalConstraint("a", 1, "1/2"), MarginalConstraint("a", 1, "1/3")
    repeated = kolmogorov_check({"a": [0, 1]}, [c1, c1, c2])
    copied = kolmogorov_check({"a": [0, 1]}, [c1, MarginalConstraint("a", 1, "1/2"), c2])
    assert len(repeated.certificate) == len(copied.certificate) == 2
    assert repeated.certificate == copied.certificate == (c1, c2)


def test_capacity_bound():
    spaces = {f"x{k}": list(range(10)) for k in range(5)}
    with pytest.raises(CapacityError):
        kolmogorov_check(spaces, [])


@pytest.mark.parametrize("values", [[2, 1, 1], [2, 1, "1"], [2, "2/2", 1], [1, 2, "1.0"]])
def test_a_repeated_outcome_value_is_refused(values):
    # The LP once found {(2,): 2/3, (1,): 1/3} for [2, 1, 1], and verify_joint,
    # which counted the repeated cell twice, rejected that joint.
    spaces = {"y": [0, 1], "x": values}
    constraints = [MarginalConstraint("x", 1, F(1, 3))]
    for call in (lambda: kolmogorov_check(spaces, constraints),
                 lambda: verify_joint({(0, 1): 1}, spaces, constraints),
                 lambda: verify_farkas([1, 0], spaces, constraints)):
        with pytest.raises(ValueError, match="^outcome list of 'x' repeats the value 1$"):
            call()


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="^ragged constraint matrix$"):
        find_feasible_point([[1, 1], [1]], [1, 0])


def test_feasible_solution_is_exact():
    constraints = [
        CorrelationConstraint(("a", "b"), F(1, 7)),
        MarginalConstraint("c", 1, F(1, 13)),
    ]
    result = kolmogorov_check(PM1, constraints)
    assert result.feasible
    assert sum(result.joint.values()) == 1
    assert all(isinstance(v, F) for v in result.joint.values())


# ---------------------------------------------------------------------------
# The integer LP core against the Fraction simplex and plain deletion filter
# it replaced, kept here verbatim in behaviour as references.
# ---------------------------------------------------------------------------


def reference_find_feasible_point(rows, rhs):
    """Phase one on Fraction rows: (feasible, x, deficit)."""
    m = len(rows)
    if m == 0:
        return True, (), F(0)
    n = len(rows[0])
    tab, b = [], []
    for i in range(m):
        row, bi = [F(v) for v in rows[i]], F(rhs[i])
        if bi < 0:
            row, bi = [-v for v in row], -bi
        tab.append(row + [F(int(j == i)) for j in range(m)])
        b.append(bi)
    width = n + m
    basis = [n + i for i in range(m)]
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(width)]
    for i in range(m):
        obj[n + i] += 1
    value = sum(b)

    def pivot(row, col):
        nonlocal value
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        b[row] /= piv
        for i in range(m):
            if i != row and tab[i][col] != 0:
                factor = tab[i][col]
                tab[i] = [v - factor * w for v, w in zip(tab[i], tab[row])]
                b[i] -= factor * b[row]
        if obj[col] != 0:
            factor = obj[col]
            for j in range(width):
                obj[j] -= factor * tab[row][j]
            value += factor * b[row]
        basis[row] = col

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        best, leaving = None, None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = b[i] / tab[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        pivot(leaving, entering)
    if value > 0:
        return False, None, value
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = b[i]
    return True, tuple(x), F(0)


def reference_row(constraint, names, cells):
    index = {name: k for k, name in enumerate(names)}

    def hit(cell, events):
        return all(cell[index[name]] == F(value) for name, value in events)

    if isinstance(constraint, MarginalConstraint):
        events = [(constraint.observable, constraint.value)]
        return [F(int(hit(cell, events))) for cell in cells], F(constraint.prob)
    if isinstance(constraint, JointConstraint):
        return [F(int(hit(cell, constraint.events))) for cell in cells], F(constraint.prob)
    if isinstance(constraint, ConditionalConstraint):
        p = F(constraint.prob)
        return [(int(hit(cell, constraint.event)) - p) if hit(cell, constraint.given) else F(0)
                for cell in cells], F(0)
    i, j = (index[name] for name in constraint.observables)
    return [cell[i] * cell[j] for cell in cells], F(constraint.value)


def reference_check(spaces, constraints):
    """(feasible, joint, certificate, deficit) by a solve per candidate."""
    names = tuple(spaces)
    cells = [tuple(F(v) for v in cell) for cell in itertools.product(*spaces.values())]

    def solve(subset):
        rows, rhs = [[F(1)] * len(cells)], [F(1)]
        for c in subset:
            row, target = reference_row(c, names, cells)
            rows.append(row)
            rhs.append(target)
        return reference_find_feasible_point(rows, rhs)

    feasible, x, deficit = solve(constraints)
    if feasible:
        return True, {c: w for c, w in zip(cells, x) if w != 0}, None, deficit
    core = list(enumerate(constraints))
    for candidate in range(len(constraints)):
        trial = [(k, c) for k, c in core if k != candidate]
        if not solve([c for _, c in trial])[0]:
            core = trial
    return False, None, tuple(c for _, c in core), deficit


def assert_same_verdict(spaces, constraints):
    result = kolmogorov_check(spaces, constraints)
    feasible, joint, certificate, deficit = reference_check(spaces, constraints)
    assert (result.feasible, result.joint, result.deficit) == (feasible, joint, deficit)
    if feasible:
        assert result.farkas is None and result.solves == 1
        assert verify_joint(result.joint, spaces, constraints)
        return result
    assert len(result.certificate) == len(certificate)
    assert all(a is b for a, b in zip(result.certificate, certificate))
    assert verify_farkas(result.farkas, spaces, constraints)
    # A minimal core is exactly the support of any Farkas vector on it.
    support = {id(c) for c, y in zip(constraints, result.farkas[1:]) if y != 0}
    assert support == {id(c) for c in certificate}
    return result


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_simplex_matches_fraction_reference(data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.lists(st.one_of(st.just(0), small), min_size=n, max_size=n),
                              min_size=m, max_size=m))
    rhs = data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                             min_size=m, max_size=m))
    result = find_feasible_point(rows, rhs)
    assert (result.feasible, result.x, result.deficit) == reference_find_feasible_point(rows, rhs)
    if result.feasible:
        assert result.farkas is None
    else:
        y = result.farkas
        assert all(sum(y[i] * F(rows[i][j]) for i in range(m)) <= 0 for j in range(n))
        assert sum(y[i] * rhs[i] for i in range(m)) > 0


def test_degenerate_ratio_ties_match_reference():
    # Entries and right-hand sides from a few small integers make ratio-test
    # ties common; the tie rule then decides which vertex x is reached.
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(400):
            m, n = rng.randint(2, 5), rng.randint(2, 8)
            rows = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
            rhs = [rng.choice((-1, 0, 1, 2)) for _ in range(m)]
            result = find_feasible_point(rows, rhs)
            expected = reference_find_feasible_point(rows, rhs)
            assert (result.feasible, result.x, result.deficit) == expected, (rows, rhs)


@st.composite
def constraint_sets(draw):
    spaces = {name: draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3, unique=True))
              for name in "abc"[:draw(st.integers(2, 3))]}
    names = sorted(spaces)
    prob = st.fractions(min_value=0, max_value=1, max_denominator=6)

    def events():
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        return {name: draw(st.sampled_from(spaces[name])) for name in chosen}

    constraints = []
    for kind in draw(st.lists(st.sampled_from("mjc"), min_size=1, max_size=6)):
        if kind == "m":
            name = draw(st.sampled_from(names))
            constraints.append(MarginalConstraint(name, draw(st.sampled_from(spaces[name])), draw(prob)))
        elif kind == "j":
            constraints.append(JointConstraint.of(events(), draw(prob)))
        else:
            constraints.append(ConditionalConstraint.of(events(), events(), draw(prob)))
    if draw(st.booleans()):
        # The same object twice: each copy is a candidate of its own.
        constraints.insert(draw(st.integers(0, len(constraints))), constraints[0])
    return spaces, constraints


@settings(max_examples=100, deadline=None)
@given(problem=constraint_sets())
def test_certificate_matches_reference_filter(problem):
    assert_same_verdict(*problem)


def test_correlation_triple_farkas_verifies():
    constraints = [CorrelationConstraint(pair, F(-9, 10)) for pair in (("a", "b"), ("a", "c"), ("b", "c"))]
    result = assert_same_verdict(PM1, constraints)
    assert len(result.farkas) == 1 + len(constraints)
    assert not verify_farkas([0] * 4, PM1, constraints)
    assert not verify_farkas(result.farkas[:3], PM1, constraints)


def test_benchmark_shaped_filter_skips_solves():
    # 5^3 cells, 15 marginals over the denominator 60, and a joint constraint
    # putting all mass on (x0, x1) = (0, 0), which x1's marginals contradict.
    spaces = {name: list(range(5)) for name in ("x0", "x1", "x2")}
    constraints = [MarginalConstraint(name, v, F(k, 60))
                   for name in spaces for v, k in enumerate((7, 9, 11, 15, 18))]
    constraints.append(JointConstraint.of({"x0": 0, "x1": 0}, 1))
    result = kolmogorov_check(spaces, constraints)
    # The plain filter solves once per constraint after the first solve.
    assert result.solves < 1 + len(constraints)
    # The reference filter's core, as it finds it.
    assert result.certificate == (constraints[9], constraints[15])
    assert verify_farkas(result.farkas, spaces, constraints)


# ---------------------------------------------------------------------------
# The revised simplex against the tableau simplex it replaced, kept here as a
# reference that also counts its pivots: both follow the same Bland pivots,
# so they agree on x, the deficit, the Farkas vector and the pivot count.
# ---------------------------------------------------------------------------


def _reduced(row: list, den: int) -> tuple:
    """``row / den`` as integers over a positive denominator, in lowest terms."""
    if den < 0:
        row, den = [-v for v in row], -den
    g = math.gcd(*row, den)
    return ([v // g for v in row], den // g) if g > 1 else (row, den)


def tableau_find_feasible_point(rows, rhs) -> FeasibilityResult:
    """Find ``x >= 0`` with ``rows @ x == rhs`` or report the deficit."""
    m = len(rows)
    if m == 0:
        return FeasibilityResult(True, (), F(0))
    n = len(rows[0])
    width = n + m
    # Row i of [A | I | b] is tab[i] / den[i], negated first if b_i < 0 so
    # that the artificial basis is feasible.
    tab, den, sign = [], [], []
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError("ragged constraint matrix")
        exact = [v if isinstance(v, (int, F)) else F(v) for v in (*rows[i], rhs[i])]
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
    pivots = 0

    def pivot(r: int, c: int) -> None:
        nonlocal pivots
        pivots += 1
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
        farkas = tuple(s * F(d - obj[n + i], d) for i, s in enumerate(sign))
        return FeasibilityResult(False, None, F(-obj[-1], d), farkas, pivots)

    # Drive leftover artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)

    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = F(tab[i][-1], den[i])
    return FeasibilityResult(True, tuple(x), F(0), None, pivots)


entries = st.one_of(st.just(0), st.just(1), st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def redundant_systems(draw):
    """Up to 12 rows with rational entries and right-hand sides of either
    sign; some rows repeat another row or sum two, right-hand side included,
    so that artificials stay basic at zero and the drive-out runs."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                        min_size=m, max_size=m))
    for i in range(1, m):
        if draw(st.integers(0, 3)) == 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            scale = draw(st.sampled_from((0, 1, -1)))
            rows[i] = [a + scale * b for a, b in zip(rows[j], rows[k])]
            rhs[i] = rhs[j] + scale * rhs[k]
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(system=redundant_systems())
def test_revised_simplex_follows_the_tableau_pivots(system):
    rows, rhs = system
    assert find_feasible_point(rows, rhs) == tableau_find_feasible_point(rows, rhs)


def test_drive_out_pivots_on_a_negative_element():
    # The last row is the sum of the first and third, so an artificial stays
    # basic at zero.  The drive-out pivots on -1 and then on 2, which leaves
    # the basis determinant negative when x is read.
    rows = [[0, 2, 0], [-1, 0, -1], [1, -1, 0], [1, 1, 0]]
    rhs = [2, 0, -1, 1]
    result = find_feasible_point(rows, rhs)
    assert result == tableau_find_feasible_point(rows, rhs)
    assert result.x == (0, 1, 0) and result.pivots == 3


def check_on_the_tableau(spaces, constraints):
    with mock.patch.object(kolmogorov, "find_feasible_point", tableau_find_feasible_point):
        return kolmogorov_check(spaces, constraints)


@settings(max_examples=100, deadline=None)
@given(problem=constraint_sets())
def test_filter_spends_the_tableau_solves_and_pivots(problem):
    result = kolmogorov_check(*problem)
    reference = check_on_the_tableau(*problem)
    assert (result.farkas, result.solves, result.pivots) == (
        reference.farkas, reference.solves, reference.pivots)
    assert result == reference


def test_benchmark_shaped_filter_spends_the_tableau_solves_and_pivots():
    spaces = {name: list(range(5)) for name in ("x0", "x1", "x2")}
    constraints = [MarginalConstraint(name, v, F(k, 60))
                   for name in spaces for v, k in enumerate((7, 9, 11, 15, 18))]
    constraints.append(JointConstraint.of({"x0": 0, "x1": 0}, 1))
    result = kolmogorov_check(spaces, constraints)
    reference = check_on_the_tableau(spaces, constraints)
    assert (result.farkas, result.solves, result.pivots) == (
        reference.farkas, reference.solves, reference.pivots)
    assert result.pivots > result.solves > 1


# Outcomes and declared values, each exact value in several spellings.
spellings = {F(0): (0, "0", "0.0"), F(1, 2): ("1/2", "0.5", F(1, 2)), F(1): (1, "1", "2/2"),
             F(-3, 2): ("-3/2", "-1.5", -1.5)}


@st.composite
def spelled_constraints(draw):
    def spell(value):
        return draw(st.sampled_from(spellings[value]))

    def value():
        # Any of the values, so it may lie outside its observable's outcomes.
        return spell(draw(st.sampled_from(sorted(spellings))))

    spaces = {name: [spell(v) for v in draw(st.lists(st.sampled_from(sorted(spellings)),
                                                       min_size=1, max_size=3, unique=True))]
              for name in "abc"[:draw(st.integers(1, 3))]}
    names = sorted(spaces)

    def events():
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        return {name: value() for name in chosen}

    constraints = []
    for kind in draw(st.lists(st.sampled_from("mjcr"), min_size=1, max_size=5)):
        prob = value()
        if kind == "m":
            constraints.append(MarginalConstraint(draw(st.sampled_from(names)), value(), prob))
        elif kind == "j":
            constraints.append(JointConstraint.of(events(), prob))
        elif kind == "c":
            constraints.append(ConditionalConstraint.of(events(), events(), prob))
        else:
            constraints.append(CorrelationConstraint((draw(st.sampled_from(names)),
                                                      draw(st.sampled_from(names))), prob))
    return spaces, constraints


@settings(max_examples=150, deadline=None)
@given(problem=spelled_constraints())
def test_position_built_rows_match_the_reference_rows(problem):
    spaces, constraints = problem
    names, cells, rows, rhs = kolmogorov._system(spaces, constraints, bound=10 ** 4)
    assert cells == [tuple(F(v) for v in cell) for cell in itertools.product(*spaces.values())]
    assert rows[0] == [1] * len(cells) and rhs[0] == 1
    for constraint, row, target in zip(constraints, rows[1:], rhs[1:]):
        assert (row, target) == reference_row(constraint, names, cells)

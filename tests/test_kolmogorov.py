import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oplab.simplex import find_feasible_point

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

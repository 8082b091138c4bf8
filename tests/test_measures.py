import math
import random
import sys
import time
from fractions import Fraction as F
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import measures
from oplab.errors import (
    ConditioningOnNull,
    DomainError,
    KernelDomainError,
    ModeMismatch,
    NotProbability,
    PartitionDoesNotCover,
)
from oplab.diagnostics import koopman_apply
from oplab.dynamics import EvolutionTrace, decompose_evolution
from oplab.information import shannon_entropy
from oplab.joint import (
    JointMeasure,
    MarkovKernel,
    convolve,
    disintegrate,
    measures_close,
    mixture,
    product_measure,
)
from oplab.measures import (
    FLOAT_MERGE_TOL,
    MAX_SCALAR_EXPONENT,
    BorelSet,
    DiscreteMeasure,
    Partition,
    lebesgue_decompose,
    _float_key,
    to_scalar,
)

from conftest import random_rational_joint, random_rational_probability


# Endpoints 1 + k/10^30 are distinct rationals that are all the same float;
# the unbounded ends are drawn now and then.
NEAR_ONE = [1 + F(k, 10 ** 30) for k in range(-3, 4)]
near_one_ends = st.sampled_from(NEAR_ONE + [-math.inf, math.inf])
near_one_intervals = st.lists(st.tuples(near_one_ends, near_one_ends)
                              .filter(lambda p: p[0] < p[1]), min_size=1, max_size=6)


def reference_canonical(pairs, points):
    """The canonical intervals and singletons built as two lists: sort and
    merge the intervals, then keep the points outside every interval."""
    merged = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    kept = tuple(p for p in sorted(set(points)) if not any(lo <= p < hi for lo, hi in merged))
    return tuple(merged), kept


# Endpoints, singletons and queries for the tolerance lookup: exact
# quarters, thirds and a point closer to 1 than any float, unbounded ends,
# and queries at a tolerance's distance from a point, on both sides.
TOL_POINTS = st.sampled_from([F(k, 4) for k in range(-8, 9)] + [F(1, 3), F(-2, 3), NEAR_ONE[4]])
tol_ends = TOL_POINTS | st.sampled_from([-math.inf, math.inf])
TOLERANCES = st.sampled_from([0, 0.0, 1e-9, 0.25, 0.5, 1.0, 2.5, F(1, 3), F(1, 4), math.inf, -1.0])
tol_queries = st.one_of(
    TOL_POINTS, TOL_POINTS.map(float), st.integers(-3, 3), st.floats(-3, 3),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.builds(lambda p, k, t: float(p) + k * t, TOL_POINTS, st.integers(-2, 2),
              st.sampled_from([1e-9, 0.25, 0.5, 1 / 3])),
    st.builds(lambda p, k: p + k * F(1, 3), TOL_POINTS, st.integers(-2, 2)),
)


def scan_contains(delta, x, singleton_tol):
    """`BorelSet.contains` as a scan of every piece, in the float copy of the
    pieces for a float query; a tolerance of 0 asks for ``x == s``."""
    pieces = measures._index(delta, isinstance(x, float))
    if singleton_tol:
        return any(abs(x - a) <= singleton_tol if a == b else a <= x < b for a, b in pieces)
    return any(x == a if a == b else a <= x < b for a, b in pieces)


class TestBorelSet:
    def test_canonical_merge(self):
        s = BorelSet(intervals=[(0, 1), (1, 2)], singletons=[F(3, 2)])
        assert s.intervals == ((F(0), F(2)),)
        assert s.singletons == ()

    def test_singleton_outside_interval_kept(self):
        s = BorelSet(intervals=[(0, 1)], singletons=[1])
        assert s.singletons == (F(1),)
        assert s.contains(1)
        assert not s.contains(F(5, 2))

    def test_union_intersection(self):
        a = BorelSet.interval(0, 2)
        b = BorelSet(intervals=[(1, 3)], singletons=[5])
        u = a.union(b)
        assert u.intervals == ((F(0), F(3)),)
        assert u.singletons == (F(5),)
        assert bool(u) is True and bool(BorelSet()) is False
        i = a.intersection(b)
        assert i.intervals == ((F(1), F(2)),)
        assert not a.intersection(BorelSet.point(5))

    def test_unbounded(self):
        s = BorelSet.interval(1, math.inf)
        assert s.contains(10 ** 9)
        assert not s.contains(0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            BorelSet.interval(1, 1)

    def test_singleton_tolerance(self):
        s = BorelSet.point(1)
        assert not s.contains(1.0 + 1e-9)
        assert s.contains(1.0 + 1e-9, singleton_tol=1e-8)

    def test_endpoints_closer_than_a_float_sort_exactly(self):
        # Both lower endpoints round to the float 1.0; a float sort key kept
        # the input order and lost the point 1.
        s = BorelSet([(1 + F(1, 10 ** 30), 2), (1, 3)])
        assert s.intervals == ((F(1), F(3)),)
        assert s.contains(1)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_canonical_form_ignores_input_order(self, data):
        pairs = data.draw(near_one_intervals)
        points = data.draw(st.lists(st.sampled_from(NEAR_ONE), max_size=4))
        canonical = BorelSet(sorted(pairs), sorted(points))
        for order in (pairs, data.draw(st.permutations(pairs))):
            s = BorelSet(order, list(reversed(points)))
            assert (s.intervals, s.singletons) == (canonical.intervals, canonical.singletons)
        for p in points + [lo for lo, _ in pairs if lo != -math.inf]:
            inside = p in points or any(lo <= p < hi for lo, hi in pairs)
            assert canonical.contains(p) == reference_contains(canonical, p) == inside

    @settings(max_examples=200, deadline=None)
    @given(pairs=near_one_intervals | st.just([]),
           points=st.lists(st.sampled_from(NEAR_ONE), max_size=6))
    def test_canonical_pieces_are_sorted_disjoint_and_maximal(self, pairs, points):
        s = BorelSet(pairs, points)
        for (a, b), (c, d) in zip(s._pieces, s._pieces[1:]):
            assert a <= b <= c <= d and (a, b) != (c, d)
            assert not (a < b and c < d and b == c)  # touching intervals merged
            assert not (a == b == c)  # a singleton at an interval's start is inside it
        for x in s.singletons:
            assert not any(lo <= x < hi for lo, hi in s.intervals)
        assert (s.intervals, s.singletons) == reference_canonical(pairs, points)

    @settings(max_examples=400, deadline=None)
    @given(pairs=st.lists(st.tuples(tol_ends, tol_ends).filter(lambda p: p[0] < p[1]),
                          max_size=4),
           points=st.lists(TOL_POINTS, max_size=6), x=tol_queries, tol=TOLERANCES)
    def test_tolerance_lookup_answers_as_a_scan_of_every_piece(self, pairs, points, x, tol):
        s = BorelSet(pairs, points)
        assert s.contains(x, tol) == scan_contains(s, x, tol) == reference_contains(s, x, tol)

    def test_tolerance_lookup_beyond_a_double_stays_exact(self):
        huge = F(10) ** 400
        s = BorelSet([(-math.inf, 0)], [huge])
        assert s.contains(huge + 1, 1) and not s.contains(huge + 2, 1)
        assert s.contains(-huge, 1) and s.contains(-huge, 0)
        # A float query near such an endpoint: the endpoint rounds to the
        # infinity of its sign, as the nearest double would, and the
        # singletons a double can hold are found as before.
        far = BorelSet.points([10 ** 400, 0])
        assert not far.contains(5.0, 0.5) and far.contains(0.2, 0.5)
        assert not far.contains(math.inf, 0.5) and not far.contains(1e308, 1e300)
        assert far.contains(1e308, 1e308) and far.contains(5.0, math.inf)
        assert not far.contains(math.nan, 0.5)
        below = BorelSet.points([-(10 ** 400), 0])
        assert not below.contains(-5.0, 0.5) and below.contains(-0.2, 0.5)
        assert not below.contains(-math.inf, 1.0)
        inside = BorelSet([(-(10 ** 400), 10 ** 400)], [10 ** 401])
        assert inside.contains(1e308, 0.5) and inside.contains(-1e308, 0.5)
        # An exact query beyond a double meets exact endpoints, a float
        # one among them too.
        small = BorelSet.points([1.5, 10 ** 400])
        assert not small.contains(10 ** 400 + 2, 1) and small.contains(10 ** 400 + 1, 1)
        assert not small.contains(-(10 ** 400), 0.5) and small.contains(F(5, 2), 1)
        assert not BorelSet.points([1.5]).contains(10 ** 400, 0.5)

    def test_tolerance_lookups_grow_as_n_log_n(self):
        # Every point of a set asked for with a tolerance: on a 2-core VM a
        # scan of every piece took 2.8 s, and the bisections take 0.15 s.
        points = [F(k, 8) for k in range(8192)]
        s = BorelSet.points(points)
        start = time.perf_counter()
        hits = sum(s.contains(float(p), 1e-9) for p in points)
        assert time.perf_counter() - start < 1.0
        assert hits == len(points)

    def test_thousands_of_intervals_and_points_build_fast(self):
        start = time.perf_counter()
        s = BorelSet([(k, k + F(1, 2)) for k in range(3000)], [k + F(3, 4) for k in range(3000)])
        assert time.perf_counter() - start < 1.0
        assert len(s.intervals) == len(s.singletons) == 3000
        assert s.contains(2999 + F(3, 4)) and not s.contains(2999 + F(1, 2))


class TestMeasureOf:
    def test_dirac_in_interval(self):
        assert DiscreteMeasure.dirac(2).measure_of(BorelSet.interval(1, 3)) == 1

    def test_two_point_singleton(self):
        m = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        assert m.measure_of(BorelSet.point(1)) == F(1, 2)

    def test_tail_interval(self):
        m = DiscreteMeasure([(0, "0.2"), (1, "0.3"), (2, "0.5")])
        assert m.measure_of(BorelSet.interval(1, math.inf)) == F(4, 5)

    def test_additivity_on_disjoint_sets(self, rng):
        for _ in range(50):
            m = random_rational_probability(rng)
            cut = rng.randint(-30, 30)
            left = BorelSet.interval(-math.inf, cut)
            right = BorelSet.interval(cut, math.inf)
            assert m.measure_of(left) + m.measure_of(right) == m.mass
            assert m.measure_of(left.union(right)) == m.mass


class TestPushforward:
    def test_image_collision_merges(self):
        m = DiscreteMeasure([(-1, F(1, 2)), (1, F(1, 2))])
        assert m.pushforward(lambda t: t * t) == DiscreteMeasure.dirac(1)

    def test_identity(self, rng):
        m = random_rational_probability(rng)
        assert m.pushforward(lambda t: t) == m

    def test_indicator(self):
        m = DiscreteMeasure([(-1, "0.2"), (0, "0.3"), (2, "0.5")])
        image = m.pushforward(lambda t: 1 if t >= 0 else 0)
        assert image == DiscreteMeasure([(0, F(1, 5)), (1, F(4, 5))])

    def test_composition(self, rng):
        f = lambda t: t + 3
        g = lambda t: t * t
        for _ in range(25):
            m = random_rational_probability(rng)
            assert m.pushforward(f).pushforward(g) == m.pushforward(lambda t: g(f(t)))

    def test_complete_lookup_table(self):
        m = DiscreteMeasure([(-1, F(1, 4)), (0, F(1, 4)), (1, F(1, 2))])
        image = m.pushforward({-1: 1, 0: 0, 1: 1, 5: 7})
        assert image == DiscreteMeasure([(0, F(1, 4)), (1, F(3, 4))])

    def test_lookup_table_domain_error(self):
        m = DiscreteMeasure([(0, 1)])
        with pytest.raises(DomainError):
            m.pushforward({1: 2})

    def test_mass_preserved(self, rng):
        m = random_rational_probability(rng)
        assert m.pushforward(lambda t: t % 3).mass == m.mass

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("value", ["x", None, math.nan])
    def test_a_value_that_is_not_a_scalar_fails_alike_on_line_and_plane(self, value, mode):
        line = DiscreteMeasure([(0, 1)], mode=mode)
        plane = JointMeasure([((0, 0), 1)], mode=mode)
        with pytest.raises(DomainError, match="not a scalar"):
            line.pushforward(lambda s: value)
        with pytest.raises(DomainError, match="not a scalar"):
            plane.pushforward(lambda s, t: value)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("f, message", [
        (lambda s: 1 / 0, "undefined at 0"),
        (lambda s: "x", "not a scalar"),
        (lambda s: math.nan, "not a scalar"),
    ], ids=["raises", "string", "nan"])
    def test_expectation_and_koopman_fail_on_a_bad_value_as_pushforward_does(self, f, message,
                                                                              mode):
        m = DiscreteMeasure([(0, 1)], mode=mode)
        report = decompose_evolution(EvolutionTrace([0, 1], [m, m]))
        for apply in (m.pushforward, m.expectation, lambda g: koopman_apply(report, g, 1)):
            with pytest.raises(DomainError, match=message):
                apply(f)


class TestMeanAndVariance:
    def test_dirac(self):
        assert DiscreteMeasure.dirac(F(7, 2)).mean() == F(7, 2)

    def test_half_half(self):
        assert DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))]).mean() == F(1, 2)

    def test_weighted(self):
        m = DiscreteMeasure([(0, "0.2"), (1, "0.3"), (2, "0.5")])
        assert m.mean() == F(13, 10)

    def test_requires_probability(self):
        with pytest.raises(NotProbability):
            DiscreteMeasure([(0, F(1, 2))]).mean()

    def test_variance_zero_iff_dirac(self, rng):
        assert DiscreteMeasure.dirac(4).variance() == 0
        m = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        assert m.variance() == F(1, 4)


class TestConvolve:
    def test_dirac_shift(self):
        assert convolve(DiscreteMeasure.dirac(2), DiscreteMeasure.dirac(5)) == \
            DiscreteMeasure.dirac(7)

    def test_coin_pair(self):
        half = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        assert convolve(half, half) == DiscreteMeasure(
            [(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))]
        )

    def test_mean_additivity(self, rng):
        for _ in range(50):
            a = random_rational_probability(rng, max_atoms=6)
            b = random_rational_probability(rng, max_atoms=6)
            assert convolve(a, b).mean() == a.mean() + b.mean()

    def test_commutative_associative(self, rng):
        a = random_rational_probability(rng, max_atoms=5)
        b = random_rational_probability(rng, max_atoms=5)
        c = random_rational_probability(rng, max_atoms=5)
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            convolve(DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(0, mode="float"))


class TestLebesgueDecompose:
    def test_dirac_inside_support(self):
        mu = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        dec = lebesgue_decompose(DiscreteMeasure.dirac(0), mu)
        assert dec.absolutely_continuous == DiscreteMeasure.dirac(0)
        assert dec.singular.mass == 0
        assert dec.continuous_mass == 1

    def test_dirac_outside_support(self):
        mu = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        dec = lebesgue_decompose(DiscreteMeasure.dirac(9), mu)
        assert dec.absolutely_continuous.mass == 0
        assert dec.singular == DiscreteMeasure.dirac(9)
        assert dec.continuous_mass == 0

    def test_atomwise_split(self):
        nu = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        dec = lebesgue_decompose(nu, DiscreteMeasure.dirac(0))
        assert dec.absolutely_continuous == DiscreteMeasure([(0, F(1, 2))])
        assert dec.singular == DiscreteMeasure([(1, F(1, 2))])
        assert dec.continuous_mass == F(1, 2)
        assert dec.density == {F(0): F(1, 2)}

    def test_recombination_and_uniqueness(self, rng):
        for _ in range(100):
            nu = random_rational_probability(rng)
            mu = random_rational_probability(rng)
            dec = lebesgue_decompose(nu, mu)
            recombined = mixture([(1, dec.absolutely_continuous), (1, dec.singular)])
            assert recombined == nu
            again = lebesgue_decompose(nu, mu)
            assert again.absolutely_continuous == dec.absolutely_continuous
            assert again.singular == dec.singular
            support = set(mu.support)
            assert set(dec.absolutely_continuous.support) <= support
            assert not set(dec.singular.support) & support


class TestBayes:
    def test_full_set_is_identity(self, rng):
        m = random_rational_probability(rng)
        assert m.bayes_condition(BorelSet.real_line()) == m

    def test_renormalized_restriction(self):
        m = DiscreteMeasure([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])
        got = m.bayes_condition(BorelSet.interval(1, 3))
        assert got == DiscreteMeasure([(1, F(1, 3)), (2, F(2, 3))])

    def test_singleton_gives_dirac(self):
        m = DiscreteMeasure([(0, F(1, 4)), (1, F(3, 4))])
        assert m.bayes_condition(BorelSet.point(1)) == DiscreteMeasure.dirac(1)

    def test_mean_stays_in_window(self, rng):
        for _ in range(20):
            m = random_rational_probability(rng)
            delta = BorelSet.interval(-10, 10)
            if m.measure_of(delta) == 0:
                continue
            eta = m.bayes_condition(delta)
            inside = [p for p in m.support if reference_contains(delta, p)]
            assert min(inside) <= eta.mean() <= max(inside)

    def test_null_set_rejected(self):
        with pytest.raises(ConditioningOnNull):
            DiscreteMeasure.dirac(0).bayes_condition(BorelSet.point(1))


class TestKernelAndJoint:
    def test_independent_kernel_is_product(self):
        marginal = DiscreteMeasure([(0, F(1, 3)), (1, F(2, 3))])
        nu = DiscreteMeasure([(5, F(1, 2)), (6, F(1, 2))])
        kernel = MarkovKernel({p: nu for p in marginal.support})
        joint = product_measure(marginal, kernel)
        first, second = joint.marginals()
        assert first == marginal
        assert second == nu

    def test_dirac_marginal(self):
        row = DiscreteMeasure([(1, F(1, 4)), (2, F(3, 4))])
        joint = product_measure(DiscreteMeasure.dirac(7), MarkovKernel({7: row}))
        assert joint.measure_of(BorelSet.point(7), BorelSet.point(2)) == F(3, 4)

    def test_missing_row(self):
        marginal = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        kernel = MarkovKernel({0: DiscreteMeasure.dirac(0)})
        with pytest.raises(KernelDomainError):
            product_measure(marginal, kernel)

    def test_disintegrate_independent(self):
        mu = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        nu = DiscreteMeasure([(3, F(1, 4)), (4, F(3, 4))])
        joint = product_measure(mu, MarkovKernel({p: nu for p in mu.support}))
        marginal, kernel = disintegrate(joint)
        assert marginal == mu
        for p in mu.support:
            assert kernel.row(p) == nu

    def test_disintegrate_point_mass(self):
        joint = JointMeasure([((2, 5), 1)])
        marginal, kernel = disintegrate(joint)
        assert marginal == DiscreteMeasure.dirac(2)
        assert kernel.row(2) == DiscreteMeasure.dirac(5)

    def test_round_trip_random_tables(self, rng):
        for _ in range(100):
            joint = random_rational_joint(rng)
            marginal, kernel = disintegrate(joint)
            assert product_measure(marginal, kernel) == joint
            # second-marginal identity: integrating rows reproduces it
            _, second = joint.marginals()
            total = mixture([(w, kernel.row(s)) for s, w in marginal.atoms])
            assert total == second

    def test_kernel_contains_its_row_points(self):
        kernel = MarkovKernel({0: DiscreteMeasure.dirac(0), "1/2": DiscreteMeasure.dirac(1)})
        assert 0 in kernel and F(1, 2) in kernel and "0.5" in kernel
        assert 1 not in kernel

    def test_joint_means(self):
        joint = JointMeasure([((0, 1), F(1, 4)), ((2, -3), F(3, 4))])
        assert joint.means() == (F(3, 2), F(-2))
        with pytest.raises(NotProbability):
            JointMeasure([((0, 1), F(1, 2))]).means()

    def test_joint_pushforward_sum(self):
        joint = JointMeasure([((0, 1), F(1, 2)), ((2, 3), F(1, 2))])
        assert joint.pushforward(lambda s, t: s + t) == DiscreteMeasure(
            [(1, F(1, 2)), (5, F(1, 2))]
        )


class TestFloatMode:
    def test_atom_merge_tolerance(self):
        m = DiscreteMeasure([(0.0, 0.5), (1e-10, 0.5)], mode="float")
        assert len(m) == 1
        assert m.is_probability()

    def test_measures_close(self):
        a = DiscreteMeasure([(0.0, 0.5), (1.0, 0.5)], mode="float")
        b = DiscreteMeasure([(0.0, 0.5 + 1e-12), (1.0, 0.5 - 1e-12)], mode="float")
        assert measures_close(a, b)


def reference_float_merge(rows):
    """The float merge by its definition, all pairs per round: rows
    ``(x_1, …, x_d, w)`` link when every coordinate differs by at most
    FLOAT_MERGE_TOL, each linked cluster merges, in sorted order, into its
    weighted mean (keeping a coordinate two rows share), and rounds repeat
    until no two rows link."""
    def mean(a, b):
        w, v = a[-1], b[-1]
        return (*(x if x == y else (x * w + y * v) / (w + v)
                  for x, y in zip(a[:-1], b[:-1])), w + v)

    rows = sorted(row for row in rows if row[-1] > 0)
    while True:
        label = list(range(len(rows)))
        for i, a in enumerate(rows):
            for j, b in enumerate(rows[:i]):
                if all(abs(x - y) <= FLOAT_MERGE_TOL for x, y in zip(a[:-1], b[:-1])):
                    label = [label[j] if c == label[i] else c for c in label]
        clusters = [[row for row, c in zip(rows, label) if c == k] for k in sorted(set(label))]
        if len(clusters) == len(rows):
            return tuple(rows)
        rows = sorted(reduce(mean, cluster) for cluster in clusters)


def reference_line_atoms(pairs):
    return reference_float_merge([(p, w) for p, w in pairs])


def reference_plane_atoms(pairs):
    return tuple(((s, t), w) for s, t, w in reference_float_merge([(*p, w) for p, w in pairs]))


# Float coordinates in a few clusters whose members are spaced at fractions of
# FLOAT_MERGE_TOL, so that runs chain, split and straddle the tolerance.
float_coords = st.builds(
    lambda centre, k: centre + k * FLOAT_MERGE_TOL / 4,
    st.sampled_from([-1.0, 0.0, 0.5, 3.0]),
    st.integers(min_value=-9, max_value=9),
)
float_weights = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0), st.sampled_from([0.0, 0.25, 1 / 3, -1e-13])
)
rational_coords = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
rational_weights = st.builds(F, st.integers(0, 5), st.sampled_from([1, 4, 7]))

# At these magnitudes an ulp exceeds FLOAT_MERGE_TOL, so neighbouring doubles
# do not link, and a weighted mean of unequal points rounds by an ulp.  Once,
# when a run's mean was placed without regard to the next run, the float atoms
# of BIG_ATOMS sorted out of order and two of TWIN_ATOMS shared one point.
BIG = 255321120.96853784
BIG_ATOMS = [(BIG, 0.6645385878596914), (BIG, 0.8085794114042175),
             (BIG, 0.268503178698661), (BIG, 0.3755020528476283),
             (math.nextafter(BIG, math.inf), 0.2705756500399875)]
TWIN = 509673262.7545747
TWIN_ATOMS = [(TWIN, 0.48492511222773416), (TWIN, 0.3567899645449557),
              (math.nextafter(TWIN, math.inf), 0.3460779190181549)]


@st.composite
def big_float_pairs(draw):
    """Atoms a few ulps or fractions of FLOAT_MERGE_TOL around one point of
    magnitude up to 1e15.  From about 8e6 on an ulp exceeds the tolerance, so
    a weighted mean can round onto or past its neighbour."""
    centre = draw(st.floats(1e6, 1e15) | st.sampled_from([BIG, TWIN]))
    centre *= draw(st.sampled_from([1, -1]))
    step = draw(st.sampled_from([math.ulp(centre), FLOAT_MERGE_TOL / 3, FLOAT_MERGE_TOL]))
    offsets = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=10))
    return [(centre + k * step, draw(st.floats(1e-3, 1.0))) for k in offsets]


@st.composite
def big_float_plane(draw):
    """Plane atoms whose s and whose t each come from `big_float_pairs`."""
    pairs, other = draw(big_float_pairs()), draw(big_float_pairs())
    return [((s, other[k % len(other)][0]), w) for k, (s, w) in enumerate(pairs)]


float_line = st.lists(st.tuples(float_coords, float_weights), max_size=12)
float_plane = st.lists(st.tuples(st.tuples(float_coords, float_coords), float_weights),
                       max_size=12)


class TestCanonicalAtoms:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["rational", "float"]))
    def test_line_atoms_ignore_input_order(self, data, mode):
        coords, weights = (float_coords, float_weights) if mode == "float" else (
            rational_coords, rational_weights)
        pairs = data.draw(st.lists(st.tuples(coords, weights), max_size=12))
        shuffled = data.draw(st.permutations(pairs))
        assert DiscreteMeasure(shuffled, mode).atoms == DiscreteMeasure(pairs, mode).atoms

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["rational", "float"]))
    def test_plane_atoms_ignore_input_order(self, data, mode):
        coords, weights = (float_coords, float_weights) if mode == "float" else (
            rational_coords, rational_weights)
        pairs = data.draw(st.lists(st.tuples(st.tuples(coords, coords), weights), max_size=12))
        shuffled = data.draw(st.permutations(pairs))
        assert JointMeasure(shuffled, mode).atoms == JointMeasure(pairs, mode).atoms

    @settings(max_examples=300, deadline=None)
    @given(pairs=float_line)
    def test_float_line_atoms_match_the_reference_merge(self, pairs):
        assert DiscreteMeasure(pairs, "float").atoms == reference_line_atoms(pairs)

    @settings(max_examples=300, deadline=None)
    @given(pairs=float_plane)
    def test_float_plane_atoms_match_the_reference_merge(self, pairs):
        assert JointMeasure(pairs, "float").atoms == reference_plane_atoms(pairs)

    @settings(max_examples=200, deadline=None)
    @given(line=big_float_pairs(), plane=big_float_plane())
    def test_float_atoms_match_the_reference_merge_at_any_magnitude(self, line, plane):
        assert DiscreteMeasure(line, "float").atoms == reference_line_atoms(line)
        assert JointMeasure(plane, "float").atoms == reference_plane_atoms(plane)

    @settings(max_examples=300, deadline=None)
    @given(line=float_line | big_float_pairs(), plane=float_plane | big_float_plane())
    def test_float_merge_is_idempotent(self, line, plane):
        m, joint = DiscreteMeasure(line, "float"), JointMeasure(plane, "float")
        assert DiscreteMeasure(m.atoms, "float") == m
        assert JointMeasure(joint.atoms, "float") == joint

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), line=big_float_pairs(), plane=big_float_plane())
    def test_float_merge_ignores_input_order_at_any_magnitude(self, data, line, plane):
        assert DiscreteMeasure(data.draw(st.permutations(line)), "float") == DiscreteMeasure(
            line, "float")
        assert JointMeasure(data.draw(st.permutations(plane)), "float") == JointMeasure(
            plane, "float")

    @settings(max_examples=300, deadline=None)
    @given(line=float_line, plane=float_plane, x=float_coords, w=st.floats(1e-3, 1.0))
    def test_float_merge_is_local(self, line, plane, x, w):
        # An atom that links no other leaves every other atom as it was.
        assert DiscreteMeasure(line + [(100.0, w)], "float").atoms == (
            DiscreteMeasure(line, "float").atoms + ((100.0, w),))
        far = JointMeasure(plane + [((x, 100.0), w)], "float")
        assert far.atoms == tuple(sorted(JointMeasure(plane, "float").atoms + (((x, 100.0), w),)))

    def test_float_chain_merges_once_and_for_all(self):
        # Split from the run start, these atoms once gave (5e-10, .5) and
        # (1.1e-9, .5), which merged when read again.
        m = DiscreteMeasure([(0.0, .25), (1e-9, .25), (1.1e-9, .5)], "float")
        assert len(m) == 1 and DiscreteMeasure(m.atoms, "float") == m
        chain = DiscreteMeasure([(k * 0.9e-9, 0.01) for k in range(100)], "float")
        assert len(chain) == 1

    def test_float_plane_merge_ignores_a_far_atom(self):
        # Through shared s-runs, the atom at t = 5 once kept the other two apart.
        pair = [((0, 0), .5), ((7.5e-10, 0), .5)]
        merged = JointMeasure(pair, "float")
        assert merged.atoms == (((3.75e-10, 0.0), 1.0),)
        far = JointMeasure(pair + [((-5e-10, 5), .5)], "float")
        assert far.atoms == (((-5e-10, 5.0), .5),) + merged.atoms

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(float_coords, float_weights), max_size=12),
           other=float_coords, axis=st.sampled_from([0, 1]))
    def test_float_plane_on_a_line_merges_like_the_line(self, pairs, other, axis):
        joint = JointMeasure([((x, other) if axis == 0 else (other, x), w) for x, w in pairs],
                             "float")
        assert [(point[axis], w) for point, w in joint.atoms] == list(
            DiscreteMeasure(pairs, "float").atoms)

    @settings(max_examples=300, deadline=None)
    @given(pairs=big_float_pairs())
    def test_float_line_atoms_strictly_increase_at_any_magnitude(self, pairs):
        m = DiscreteMeasure(pairs, "float")
        assert all(p < q for p, q in zip(m.support, m.support[1:]))
        for p, w in m.atoms:
            assert m.weight_at(p) == w

    @settings(max_examples=200, deadline=None)
    @given(pairs=big_float_pairs(), other=st.sampled_from([0.0, BIG, -1e15]),
           axis=st.sampled_from([0, 1]))
    def test_float_plane_on_a_line_merges_like_the_line_at_any_magnitude(
            self, pairs, other, axis):
        joint = JointMeasure([((x, other) if axis == 0 else (other, x), w) for x, w in pairs],
                             "float")
        assert [(point[axis], w) for point, w in joint.atoms] == list(
            DiscreteMeasure(pairs, "float").atoms)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-50, 50), st.floats(1e-6, 1e6)), max_size=20))
    def test_float_mass_is_the_left_to_right_sum(self, pairs):
        # Builtin sum compensates float sums from Python 3.12 on.
        m = DiscreteMeasure(pairs, "float")
        assert repr(m.mass) == repr(reduce(add, (w for _, w in m.atoms), 0.0))

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.tuples(rational_coords, rational_coords),
                                    rational_weights), max_size=12))
    def test_rational_plane_atoms_sum_equal_points(self, pairs):
        totals = {}
        for point, w in pairs:
            totals[point] = totals.get(point, 0) + w
        expected = tuple(sorted((point, w) for point, w in totals.items() if w))
        assert JointMeasure(pairs).atoms == expected

    def test_joint_float_merge_skips_an_atom_sorted_between(self):
        # (1e-10, 5) sorts between (0, 0) and (2e-10, 0); the two still merge.
        joint = JointMeasure([((0, 0), .25), ((1e-10, 5), .5), ((2e-10, 0), .25)], mode="float")
        assert joint.atoms == (((1e-10, 0.0), 0.5), ((1e-10, 5.0), 0.5))

    def test_negative_weight_message(self):
        with pytest.raises(ValueError, match="negative weight -1 at 2$"):
            DiscreteMeasure([(2, -1)])
        with pytest.raises(ValueError, match=r"at \(Fraction\(1, 1\), Fraction\(2, 1\)\)"):
            JointMeasure([((1, 2), -1)])

    def test_shared_queries(self):
        line = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        assert DiscreteMeasure.from_weights({1: "1/2", 0: 0.5}) == line
        plane = JointMeasure([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        assert line.is_probability() and plane.is_probability()
        assert len(line) == len(plane) == 2
        assert line != plane and hash(line) == hash(DiscreteMeasure(line.atoms))
        with pytest.raises(NotProbability, match="^joint measure has mass 1/2"):
            JointMeasure([((0, 0), F(1, 2))]).require_probability()
        with pytest.raises(NotProbability, match="^measure has mass 1/2"):
            DiscreteMeasure([(0, F(1, 2))]).require_probability()


class TestToScalar:
    @pytest.mark.parametrize("value, mode, expected", [
        ("1/3", "float", 1 / 3),
        ("0.1", "float", 0.1),
        ("-2/4", "rational", F(-1, 2)),
        (np.int64(7), "rational", F(7)),
        (np.int64(7), "float", 7.0),
        (0.1, "rational", F(0.1)),
    ])
    def test_accepted(self, value, mode, expected):
        out = to_scalar(value, mode)
        assert out == expected and type(out) is type(expected)

    @pytest.mark.parametrize("value, mode", [
        (math.inf, "rational"), (math.nan, "rational"), (math.inf, "float"),
        ("1e999", "float"), (F(10 ** 400), "float"), (10 ** 400, "float"),
    ])
    def test_non_finite_rejected(self, value, mode):
        with pytest.raises(ValueError, match="non-finite"):
            to_scalar(value, mode)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("value", ["1/0", "-3/0", " 0/0 "])
    def test_zero_denominator_rejected(self, value, mode):
        with pytest.raises(ValueError, match="zero denominator"):
            to_scalar(value, mode)

    @pytest.mark.parametrize("value", ["1e100000000", "1e-100000000", "2.5E+100_000_000"])
    def test_huge_exponent_rejected_quickly(self, value):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_SCALAR_EXPONENT"):
            to_scalar(value, "rational")
        assert time.perf_counter() - start < 0.1

    def test_exponent_at_the_bound_accepted(self):
        n = MAX_SCALAR_EXPONENT
        assert to_scalar(f"1e{n}", "rational") == 10 ** n
        assert to_scalar(f"1e-{n}", "rational") == F(1, 10 ** n)
        with pytest.raises(ValueError, match="MAX_SCALAR_EXPONENT"):
            to_scalar(f"1e{n + 1}", "rational")

    def test_endpoints_and_singletons(self):
        assert BorelSet([(0, "inf")]) == BorelSet([(0, math.inf)])
        with pytest.raises(ValueError, match="non-finite"):
            BorelSet(singletons=[math.inf])


class TestPartition:
    def test_overlapping_cells_rejected(self):
        with pytest.raises(ValueError):
            Partition((0, 2), [BorelSet.interval(0, 1), BorelSet.interval(F(1, 2), 2)])

    def test_dyadic_covers_window(self):
        part = Partition.dyadic(0, 1, 3)
        assert len(part) == 8
        m = DiscreteMeasure([(0, F(1, 3)), (F(1, 2), F(1, 3)), (1, F(1, 3))])
        assert part.covers(m)

    @pytest.mark.parametrize("depth", [-1, 1.5, "2"])
    def test_dyadic_depth_must_be_a_nonnegative_integer(self, depth):
        message = f"^depth must be a nonnegative integer, got {depth!r}$"
        with pytest.raises(ValueError, match=message):
            Partition.dyadic(0, 1, depth)

    def test_dyadic_depth_zero_is_the_closed_window(self):
        part = Partition.dyadic(0, 1, 0)
        assert part.cells == (BorelSet.closed_interval(0, 1),)
        assert Partition.dyadic(-1, 1, 2).cells == (
            BorelSet.interval(-1, F(-1, 2)), BorelSet.interval(F(-1, 2), 0),
            BorelSet.interval(0, F(1, 2)), BorelSet.closed_interval(F(1, 2), 1))

    def test_separating(self):
        m = DiscreteMeasure([(0, F(1, 2)), (5, F(1, 2))])
        part = Partition.separating(m)
        assert part.covers(m)
        assert len(part) == 2

    @pytest.mark.parametrize("cells, pair", [
        ([BorelSet.interval(0, 1), BorelSet.point(0)], (0, 1)),
        ([BorelSet.interval(0, 1), BorelSet.point(1)], None),
        ([BorelSet.interval(0, 1), BorelSet.interval(1, 2)], None),
        ([BorelSet.interval(0, 1), BorelSet.closed_interval(1, 2), BorelSet.interval(2, 3)],
         (1, 2)),
        # Sorted by left end the cells run 1, 2, 0: the sweep meets the
        # overlap (1, 2) first, but the pairwise order names (0, 1).
        ([BorelSet.interval(5, 6), BorelSet.interval(0, 10), BorelSet.interval(1, 2)], (0, 1)),
        ([BorelSet.point(3), BorelSet.interval(-math.inf, math.inf)], (0, 1)),
    ])
    def test_overlap_names_the_first_pair(self, cells, pair):
        assert reference_overlap(cells) == pair
        assert_partition_matches_pairwise(cells)

    def test_locate_on_touching_and_closed_cells(self):
        part = Partition.dyadic(0, 1, 2)
        assert [part.locate(x) for x in (0, 0.25, F(1, 2) - F(1, 10 ** 30), 1, 1.0)] == [
            0, 1, 1, 3, 3]
        assert [part.locate(x) for x in (-1e-300, F(1) + F(1, 10 ** 30), math.nan,
                                         math.inf, -math.inf)] == [-1] * 5

    def test_dyadic_depth_ten_is_fast(self):
        start = time.perf_counter()
        part = Partition.dyadic(0, 1, 10)
        assert time.perf_counter() - start < 1.0
        assert len(part) == 1024 and part.locate(F(1023, 1024)) == 1023


# Linear-scan references for the indexed partition and measure queries.

def reference_overlap(cells):
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if not cells[i].is_disjoint_from(cells[j]):
                return (i, j)
    return None


def assert_partition_matches_pairwise(cells):
    """``Partition`` rejects exactly the cells the pairwise check rejects,
    naming the same first pair."""
    pair = reference_overlap(cells)
    if pair is None:
        Partition((-10, 20), cells)
    else:
        with pytest.raises(ValueError, match=f"^cells {pair[0]} and {pair[1]} overlap$"):
            Partition((-10, 20), cells)


def reference_contains(delta, x, singleton_tol=0):
    """Membership by a scan of the set's intervals and singletons."""
    if any(lo <= x < hi for lo, hi in delta.intervals):
        return True
    if singleton_tol:
        return any(abs(x - s) <= singleton_tol for s in delta.singletons)
    return any(x == s for s in delta.singletons)


def reference_locate(partition, x):
    for k, cell in enumerate(partition.cells):
        if reference_contains(cell, x):
            return k
    return -1


def reference_measure_of(measure, delta, singleton_tol=0):
    total = to_scalar(0, measure.mode)
    for p, w in measure.atoms:
        if reference_contains(delta, p, singleton_tol):
            total += w
    return total


def reference_restrict(measure, delta):
    return DiscreteMeasure([(p, w) for p, w in measure.atoms if reference_contains(delta, p)],
                           measure.mode)


def reference_bayes_condition(measure, delta):
    denom = reference_measure_of(measure, delta)
    if denom == 0:
        raise ConditioningOnNull(f"conditioning set has measure zero: {delta!r}")
    return DiscreteMeasure(
        [(p, w / denom) for p, w in measure.atoms if reference_contains(delta, p)], measure.mode)


def reference_weight_at(measure, point):
    point = to_scalar(point, measure.mode)
    for p, w in measure.atoms:
        if p == point:
            return w
    return to_scalar(0, measure.mode)


def outcome(fn, *args):
    """``repr`` of the result, so float sums compare bit for bit, or the error."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return f"{type(exc).__name__}: {exc}"


GRID = [F(k, 4) for k in range(-12, 13)]
TINY = F(1, 10 ** 9)


@st.composite
def grid_cells(draw):
    """Cells built from pairwise disjoint pieces on GRID: intervals between
    drawn cuts, singletons at cuts, ``±inf`` rays and a closing singleton at
    the last cut, which joins the cell of an interval ending there.  The
    pieces are dealt to cells at random, some cells left empty."""
    cuts = sorted(draw(st.sets(st.sampled_from(GRID), min_size=1, max_size=9)))
    groups = []  # (intervals, singletons) dealt to one cell together
    if draw(st.booleans()):
        groups.append(([(-math.inf, cuts[0])], []))
    for a, b in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from(["interval", "point", "gap"]))
        if kind == "interval":
            groups.append(([(a, b)], []))
        elif kind == "point":
            groups.append(([], [a]))
    last = draw(st.sampled_from(["ray", "closed", "none"]))
    if last == "ray":
        groups.append(([(cuts[-1], math.inf)], []))
    elif last == "closed" and groups and groups[-1][0] and groups[-1][0][-1][1] == cuts[-1]:
        groups[-1][1].append(cuts[-1])
    elif last == "closed":
        groups.append(([], [cuts[-1]]))
    dealt = [([], []) for _ in range(draw(st.integers(1, len(groups) + 1)))]
    for ivs, pts in groups:
        cell = dealt[draw(st.integers(0, len(dealt) - 1))]
        cell[0].extend(ivs)
        cell[1].extend(pts)
    return [BorelSet(ivs, pts) for ivs, pts in dealt]


stray_pieces = st.one_of(
    st.tuples(st.sampled_from(GRID), st.sampled_from(GRID)).filter(lambda p: p[0] < p[1])
    .map(lambda p: BorelSet.interval(*p)),
    st.sampled_from(GRID).map(BorelSet.point),
    st.sampled_from(GRID).map(lambda g: BorelSet.interval(g, math.inf)),
)
queries = st.one_of(
    st.sampled_from(GRID),
    st.sampled_from(GRID).map(float),
    st.sampled_from(GRID).flatmap(lambda g: st.sampled_from([
        g + TINY, g - TINY, math.nextafter(float(g), math.inf),
        math.nextafter(float(g), -math.inf)])),
    st.fractions(-4, 4, max_denominator=12),
    st.floats(-4, 4),
    st.integers(-4, 4),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
rational_atoms = st.lists(st.tuples(
    st.one_of(st.sampled_from(GRID), st.sampled_from(GRID).map(lambda g: g + TINY),
              st.fractions(-4, 4, max_denominator=12)),
    st.fractions(F(1, 100), 1, max_denominator=100)), min_size=1, max_size=10)
float_atoms = st.lists(st.tuples(
    st.one_of(st.sampled_from(GRID).map(float),
              st.sampled_from(GRID).map(lambda g: math.nextafter(float(g), -math.inf)),
              st.floats(-4, 4)),
    st.floats(1e-3, 1.0)), min_size=1, max_size=10,
).map(lambda atoms: atoms + (BIG_ATOMS + TWIN_ATOMS)[:len(atoms) % 9])


@st.composite
def measures_on_the_grid(draw):
    mode = draw(st.sampled_from(["rational", "float"]))
    return DiscreteMeasure(draw(rational_atoms if mode == "rational" else float_atoms), mode)


class TestIndexedQueries:
    """The sorted piece index and the atom bisection against linear scans."""

    @settings(max_examples=200, deadline=None)
    @given(cells=grid_cells(), xs=st.lists(queries, min_size=1, max_size=12))
    def test_locate_matches_linear_scan(self, cells, xs):
        part = Partition((-10, 10), cells)
        for x in xs:
            assert part.locate(x) == reference_locate(part, x)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cells=grid_cells())
    def test_partition_accepts_exactly_the_pairwise_disjoint(self, data, cells):
        cells = data.draw(st.permutations(cells))
        for _ in range(data.draw(st.integers(0, 2))):
            k = data.draw(st.integers(0, len(cells)))
            cells.insert(k, data.draw(stray_pieces))
        assert_partition_matches_pairwise(cells)

    @settings(max_examples=150, deadline=None)
    @given(m=measures_on_the_grid(), cells=grid_cells(), stray=stray_pieces,
           xs=st.lists(queries, max_size=8))
    def test_measure_of_and_weight_at_match_linear_scan(self, m, cells, stray, xs):
        for delta in cells + [stray, BorelSet.real_line(), BorelSet(singletons=m.support)]:
            assert outcome(m.measure_of, delta) == outcome(reference_measure_of, m, delta)
            assert outcome(m.restrict, delta) == outcome(reference_restrict, m, delta)
            assert outcome(m.bayes_condition, delta) == outcome(
                reference_bayes_condition, m, delta)
            assert repr(m.measure_of(delta, FLOAT_MERGE_TOL)) == repr(
                reference_measure_of(m, delta, FLOAT_MERGE_TOL))
        for x in xs + list(m.support):
            assert outcome(m.weight_at, x) == outcome(reference_weight_at, m, x)

    @settings(max_examples=150, deadline=None)
    @given(m=measures_on_the_grid(), cells=grid_cells(), covered=st.booleans())
    def test_entropy_cell_probabilities_match_linear_scan(self, m, cells, covered):
        part = Partition((-10, 10), cells)
        if covered:
            m = m.restrict(BorelSet([iv for c in cells for iv in c.intervals],
                                    [s for c in cells for s in c.singletons]))
        if not m.atoms:
            return
        m = m.scale(1 / m.mass)
        uncovered = [p for p in m.support if reference_locate(part, p) < 0]
        if uncovered:
            with pytest.raises(PartitionDoesNotCover):
                shannon_entropy(m, part)
            return
        expected = tuple(reference_measure_of(m, cell) for cell in part.cells)
        assert repr(shannon_entropy(m, part).cell_probabilities) == repr(expected)

    def test_unsorted_and_twin_float_atoms(self):
        unsorted = DiscreteMeasure([(0.0, 0.7)] + BIG_ATOMS, "float")
        twins = DiscreteMeasure(TWIN_ATOMS, "float")
        # Equal points merge onto themselves; the next double lies an ulp, more
        # than the tolerance, away, so it links none of them and stays apart.
        assert unsorted.support == (0.0, BIG, math.nextafter(BIG, math.inf))
        assert twins.support == (TWIN, math.nextafter(TWIN, math.inf))
        assert repr(unsorted.measure_of(BorelSet.real_line())) == "3.0876988808501857"
        assert twins.weight_at(TWIN) == 0.48492511222773416 + 0.3567899645449557
        for m in (unsorted, twins):
            for x in m.support + (BIG, TWIN):
                assert repr(m.weight_at(x)) == repr(reference_weight_at(m, x))
                for delta in (BorelSet.point(x), BorelSet.interval(F(x), math.inf),
                              BorelSet.interval(-math.inf, F(x))):
                    assert repr(m.measure_of(delta)) == repr(reference_measure_of(m, delta))


# Endpoints of float-mode lookups: dyadic ones, which are doubles, ones that
# lie between two doubles, and 10**400, beyond every double.
HUGE = F(10 ** 400)
float_key_endpoints = st.one_of(
    st.integers(-48, 48).map(lambda k: F(k, 16)),
    st.sampled_from([F(1, 3), F(1, 10), F(1501, 1000), -F(1, 3), HUGE, -HUGE]),
)


def near(endpoint) -> list:
    """The doubles at and one ulp on either side of ``endpoint``; the
    largest finite doubles for 10**400."""
    try:
        x = float(endpoint)
    except OverflowError:
        x = sys.float_info.max if endpoint > 0 else -sys.float_info.max
        return [x, math.nextafter(x, 0.0)]
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


@st.composite
def float_key_cells(draw):
    """Pairwise disjoint cells on sorted endpoints: between each two, the
    interval or a singleton at the left one; maybe a ray at either end."""
    cuts = sorted(draw(st.sets(float_key_endpoints, min_size=1, max_size=8)))
    cells = [BorelSet.interval(-math.inf, cuts[0])] if draw(st.booleans()) else []
    for a, b in zip(cuts, cuts[1:]):
        cells.append(BorelSet.interval(a, b) if draw(st.booleans()) else BorelSet.point(a))
    cells.append(BorelSet.interval(cuts[-1], math.inf) if draw(st.booleans())
                 else BorelSet.point(cuts[-1]))
    return cuts, cells


class TestFloatKeys:
    """Float queries compare with each endpoint's double where that double
    is exactly it, and with the exact Fraction otherwise."""

    def test_float_key_is_the_double_only_when_exact(self):
        assert _float_key(F(1, 4)) == 0.25 and type(_float_key(F(1, 4))) is float
        assert _float_key(F(1, 3)) is not None and type(_float_key(F(1, 3))) is F
        assert _float_key(HUGE) is HUGE
        assert _float_key(-math.inf) == -math.inf

    @settings(max_examples=200, deadline=None)
    @given(drawn=float_key_cells(), extra=st.lists(st.floats(-2, 2), max_size=4))
    def test_locate_matches_the_exact_endpoints(self, drawn, extra):
        cuts, cells = drawn
        part = Partition((-1, 1), cells)
        for x in [y for c in cuts for y in near(c)] + [F(1, 3), 0, 1]:
            if not isinstance(x, float):
                assert part.locate(x) == reference_locate(part, x)
        assert part._floats is None  # no float query yet
        xs = [y for c in cuts for y in near(c)] + extra + [-0.0, math.inf, -math.inf, math.nan]
        for x in xs:
            assert part.locate(x) == reference_locate(part, x), x

    @settings(max_examples=200, deadline=None)
    @given(drawn=float_key_cells(), data=st.data())
    def test_measure_of_matches_the_exact_endpoints(self, drawn, data):
        cuts, cells = drawn
        points = [data.draw(st.sampled_from(near(c))) for c in cuts]
        points += data.draw(st.lists(st.sampled_from([-0.0, 0.5, -1.25]), max_size=2))
        atoms = [(p, data.draw(st.floats(1e-3, 1.0))) for p in points]
        m = DiscreteMeasure(atoms, "float")
        for delta in cells + [BorelSet(singletons=cuts), BorelSet.real_line(),
                              BorelSet.interval(-math.inf, cuts[-1]),
                              BorelSet.interval(cuts[0], math.inf)]:
            assert repr(m.measure_of(delta)) == repr(reference_measure_of(m, delta))
            assert outcome(m.restrict, delta) == outcome(reference_restrict, m, delta)


def test_a_set_converts_its_endpoints_for_float_queries_once(monkeypatch):
    calls = []
    monkeypatch.setattr(measures, "_float_key", lambda e: calls.append(e) or _float_key(e))
    delta = BorelSet([(F(1, 3), F(1, 2))], singletons=[F(3, 4)])
    m = DiscreteMeasure([(0.4, 0.5), (0.75, 0.5)], "float")
    for query in (m.measure_of, m.measure_of, DiscreteMeasure([(0.45, 1.0)], "float").measure_of):
        query(delta)
    assert calls == [F(1, 3), F(1, 2), F(3, 4)]
    assert m.measure_of(delta) == 1.0
    assert DiscreteMeasure([(F(1, 3), 1)]).measure_of(delta) == 1 and delta._floats is not None


# Hypothesis property checks on small rational measures.

weights = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)
points = st.lists(st.integers(min_value=-20, max_value=20), min_size=6, max_size=6, unique=True)


@st.composite
def rational_measures(draw):
    ws = draw(weights)
    ps = draw(points)[: len(ws)]
    total = sum(ws)
    return DiscreteMeasure([(p, F(w, total)) for p, w in zip(ps, ws)])


@settings(max_examples=60, deadline=None)
@given(nu=rational_measures(), mu=rational_measures())
def test_lebesgue_components_always_recombine(nu, mu):
    dec = lebesgue_decompose(nu, mu)
    assert mixture([(1, dec.absolutely_continuous), (1, dec.singular)]) == nu


@settings(max_examples=60, deadline=None)
@given(m=rational_measures(), cut=st.integers(min_value=-20, max_value=20))
def test_finite_additivity(m, cut):
    left = BorelSet.interval(-math.inf, cut)
    right = BorelSet.interval(cut, math.inf)
    assert m.measure_of(left) + m.measure_of(right) == 1


@settings(max_examples=40, deadline=None)
@given(a=rational_measures(), b=rational_measures())
def test_convolution_mean_additive(a, b):
    assert convolve(a, b).mean() == a.mean() + b.mean()

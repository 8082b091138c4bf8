import math
import random
import time
from fractions import Fraction as F
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab.errors import (
    ConditioningOnNull,
    DomainError,
    KernelDomainError,
    ModeMismatch,
    NotProbability,
    PartitionDoesNotCover,
)
from oplab.information import shannon_entropy
from oplab.measures import (
    FLOAT_MASS_TOL,
    FLOAT_MERGE_TOL,
    MAX_SCALAR_EXPONENT,
    BorelSet,
    DiscreteMeasure,
    JointMeasure,
    MarkovKernel,
    Partition,
    convolve,
    disintegrate,
    lebesgue_decompose,
    measures_close,
    mixture,
    product_measure,
    to_scalar,
)

from conftest import random_rational_joint, random_rational_probability


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
        # Endpoints 1 + k/10^30 are distinct rationals that are all the same
        # float; the unbounded ends are drawn now and then.
        near = [1 + F(k, 10 ** 30) for k in range(-3, 4)]
        ends = st.sampled_from(near + [-math.inf, math.inf])
        pairs = data.draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] < p[1]),
                                   min_size=1, max_size=6))
        points = data.draw(st.lists(st.sampled_from(near), max_size=4))
        canonical = BorelSet(sorted(pairs), sorted(points))
        for order in (pairs, data.draw(st.permutations(pairs))):
            s = BorelSet(order, list(reversed(points)))
            assert (s.intervals, s.singletons) == (canonical.intervals, canonical.singletons)
        for p in points + [lo for lo, _ in pairs if lo != -math.inf]:
            assert canonical.contains(p) == (p in points or any(lo <= p < hi for lo, hi in pairs))


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
            inside = [p for p in m.support if delta.contains(p)]
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


def reference_merge_atoms(pairs, mode):
    """The line merge before line and plane shared one canonicalizer."""
    items = sorted((p, w) for p, w in pairs)
    out = []
    for point, weight in items:
        if weight < 0:
            if mode == "float" and weight >= -FLOAT_MASS_TOL:
                weight = 0.0
            else:
                raise ValueError(f"negative weight {weight} at {point}")
        if weight == 0:
            continue
        if out:
            prev_point, prev_weight, run_start = out[-1]
            coincident = (
                point == prev_point
                if mode == "rational"
                else point - run_start <= FLOAT_MERGE_TOL
            )
            if coincident:
                new_w = prev_weight + weight
                new_p = (prev_point * prev_weight + point * weight) / new_w
                out[-1] = (new_p, new_w, run_start)
                continue
        out.append((point, weight, point))
    return tuple((p, w) for p, w, _ in out)


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

# Weighted means at these magnitudes round by an ulp, more than
# FLOAT_MERGE_TOL: merged run by run, the float atoms of BIG_ATOMS would sort
# out of order and those of TWIN_ATOMS would share one point, so their runs
# join.
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
    a run's weighted mean can round onto or past the next run."""
    centre = draw(st.floats(1e6, 1e15) | st.sampled_from([BIG, TWIN]))
    centre *= draw(st.sampled_from([1, -1]))
    step = draw(st.sampled_from([math.ulp(centre), FLOAT_MERGE_TOL / 3, FLOAT_MERGE_TOL]))
    offsets = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=10))
    return [(centre + k * step, draw(st.floats(1e-3, 1.0))) for k in offsets]


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
    @given(pairs=st.lists(st.tuples(float_coords, float_weights), max_size=12))
    def test_float_line_atoms_match_the_reference_merge(self, pairs):
        assert DiscreteMeasure(pairs, "float").atoms == reference_merge_atoms(pairs, "float")

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


def reference_locate(partition, x):
    for k, cell in enumerate(partition.cells):
        if cell.contains(x):
            return k
    return -1


def reference_measure_of(measure, delta, singleton_tol=0):
    total = to_scalar(0, measure.mode)
    for p, w in measure.atoms:
        if delta.contains(p, singleton_tol=singleton_tol):
            total += w
    return total


def reference_restrict(measure, delta):
    return DiscreteMeasure([(p, w) for p, w in measure.atoms if delta.contains(p)], measure.mode)


def reference_bayes_condition(measure, delta):
    denom = reference_measure_of(measure, delta)
    if denom == 0:
        raise ConditioningOnNull(f"conditioning set has measure zero: {delta!r}")
    return DiscreteMeasure([(p, w / denom) for p, w in measure.atoms if delta.contains(p)],
                           measure.mode)


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
        # The runs whose means would cross or meet join into one atom each.
        assert len(unsorted) == 2 and len(twins) == 1
        for m in (unsorted, twins):
            assert all(p < q for p, q in zip(m.support, m.support[1:]))
        assert repr(unsorted.measure_of(BorelSet.real_line())) == "3.0876988808501853"
        assert twins.weight_at(twins.support[0]) == twins.mass
        for m in (unsorted, twins):
            for x in m.support + (BIG, TWIN):
                assert repr(m.weight_at(x)) == repr(reference_weight_at(m, x))
                for delta in (BorelSet.point(x), BorelSet.interval(F(x), math.inf),
                              BorelSet.interval(-math.inf, F(x))):
                    assert repr(m.measure_of(delta)) == repr(reference_measure_of(m, delta))


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

import math
from fractions import Fraction as F

import numpy as np
import pytest

from oplab.errors import PartitionDoesNotCover, ZeroCell
from oplab.diagnostics import Informativity, dirac_detect, informativity_compare, khinchin_validate
from oplab.information import (
    Schema,
    entropy_bits,
    partition_density_matrix,
    shannon_entropy,
    vn_entropy_and_purity,
)
from oplab.joint import mixture
from oplab.measures import BorelSet, DiscreteMeasure, Partition
from oplab.spectral import DensityState

from conftest import random_density, random_rational_probability


class TestShannon:
    def test_dirac_vanishes(self):
        m = DiscreteMeasure.dirac(3)
        part = Partition((0, 10), [BorelSet.interval(0, 5), BorelSet.interval(5, 10)])
        assert shannon_entropy(m, part).bits == 0.0

    def test_fair_coin_is_one_bit(self):
        m = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        assert shannon_entropy(m, Partition.separating(m)).bits == 1.0

    def test_uniform_four_is_two_bits(self):
        m = DiscreteMeasure.uniform([0, 1, 2, 3])
        assert shannon_entropy(m, Partition.separating(m)).bits == 2.0

    def test_coverage_required(self):
        m = DiscreteMeasure([(0, F(1, 2)), (9, F(1, 2))])
        part = Partition((0, 1), [BorelSet.interval(0, 1)])
        with pytest.raises(PartitionDoesNotCover):
            shannon_entropy(m, part)

    def test_entropy_bounded_by_log_cell_count(self, rng):
        for _ in range(25):
            m = random_rational_probability(rng)
            part = Partition.separating(m)
            report = shannon_entropy(m, part)
            assert -1e-12 <= report.bits <= math.log2(len(part)) + 1e-12

    def test_mixing_raises_entropy(self, rng):
        for _ in range(25):
            a = random_rational_probability(rng, max_atoms=6)
            b = random_rational_probability(rng, max_atoms=6)
            t = F(rng.randint(1, 9), 10)
            mixed = mixture([(t, a), (1 - t, b)])
            part = Partition.separating(mixture([(F(1, 2), a), (F(1, 2), b)]))
            h_mixed = shannon_entropy(mixed, part).bits
            h_a = shannon_entropy(a, part).bits
            h_b = shannon_entropy(b, part).bits
            assert h_mixed >= float(t) * h_a + float(1 - t) * h_b - 1e-9


class TestEntropyBits:
    @pytest.mark.parametrize("weights", [
        [-0.25, 0.5, 0.75],
        [math.nan, 0.5, 0.5],
        [0.5, 0.5, math.inf],
        [math.inf],
        [0.5, -math.inf, 0.5],
    ])
    def test_a_negative_or_non_finite_weight_is_refused(self, weights):
        with pytest.raises(ValueError, match="is negative or not finite$"):
            entropy_bits(weights)

    def test_finite_weights_keep_their_bits(self):
        assert entropy_bits([0.5, 0.5, 0.0]) == entropy_bits([F(1, 2), F(1, 2)]) == 1.0


class TestSchema:
    def test_mass_validation(self):
        with pytest.raises(ValueError):
            Schema([F(1, 2), F(1, 3)])
        assert Schema([F(1, 2), F(1, 2)]).entropy_bits() == 1.0

    @pytest.mark.parametrize("weights", [
        [float("nan"), 1.0],
        ["1/0"],
        ["0e10001", 1],
    ])
    def test_unreadable_weight_is_a_value_error(self, weights):
        with pytest.raises(ValueError):
            Schema(weights)

    def test_dirac_detection(self):
        assert Schema([0, 1, 0]).is_dirac()
        assert not Schema([F(1, 2), F(1, 2)]).is_dirac()


class TestKhinchin:
    def test_suite_passes(self):
        results = khinchin_validate()
        assert all(r.passed for r in results), [(r.name, r.worst) for r in results]
        assert {r.name.split("-")[0] for r in results} == {"K1", "K2", "K3", "K4", "K5", "K6"}

    def test_each_axiom_has_enough_cases(self):
        for result in khinchin_validate(cases=100):
            assert result.cases >= 100

    def test_broken_entropy_is_caught(self):
        fake = lambda ws: sum(float(w) ** 2 for w in ws)  # purity, not entropy
        results = khinchin_validate(fake, cases=30)
        assert not all(r.passed for r in results)


class TestInformativity:
    def test_dirac_dominates(self):
        half = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        verdict = informativity_compare(DiscreteMeasure.dirac(0), half)
        assert verdict.relation is Informativity.MORE_INFORMATIVE

    def test_reflexive_equality(self, rng):
        m = random_rational_probability(rng, max_atoms=4)
        assert informativity_compare(m, m).relation is Informativity.EQUAL

    def test_biased_coin_beats_fair_coin(self):
        biased = DiscreteMeasure([(0, F(9, 10)), (1, F(1, 10))])
        fair = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        verdict = informativity_compare(biased, fair)
        assert verdict.relation is Informativity.MORE_INFORMATIVE

    def test_verdict_carries_family(self):
        fair = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        verdict = informativity_compare(fair, fair)
        assert len(verdict.partitions) >= 1
        assert len(verdict.entropies) == len(verdict.partitions)

    def test_incomparable_pair(self):
        # each is flatter than the other on one of the two partitions
        a = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        b = DiscreteMeasure([(0, F(8, 10)), (F(1, 2), F(1, 10)), (1, F(1, 10))])
        split = Partition((-1, 2), [
            BorelSet.interval(-1, F(1, 4)), BorelSet.interval(F(1, 4), 2),
        ])
        grouped = Partition((-1, 2), [
            BorelSet.points([0, 1]), BorelSet.point(F(1, 2)),
        ])
        verdict = informativity_compare(a, b, [split, grouped])
        assert verdict.relation is Informativity.INCOMPARABLE


class TestVnEntropyPurity:
    def test_pure_state(self):
        s, p = vn_entropy_and_purity(DensityState.pure([1, 1j]))
        assert s < 1e-12
        assert abs(p - 1.0) < 1e-12

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            s, p = vn_entropy_and_purity(DensityState.maximally_mixed(d))
            assert abs(s - math.log(d)) < 1e-12
            assert abs(p - 1 / d) < 1e-12

    def test_three_quarters(self):
        s, p = vn_entropy_and_purity(DensityState(np.diag([0.75, 0.25])))
        assert abs(p - 0.625) < 1e-12
        assert abs(s - (-0.75 * math.log(0.75) - 0.25 * math.log(0.25))) < 1e-12

    def test_purity_one_iff_entropy_zero(self, nprng):
        for _ in range(20):
            rho = random_density(nprng, 4)
            s, p = vn_entropy_and_purity(rho)
            assert 0 < p <= 1 + 1e-12
            assert s >= 0
            assert (p > 1 - 1e-10) == (s < 1e-8) == (rho.eigenvalues[-1] > 1 - 1e-10)


class TestPartitionBridge:
    def test_single_cell_rank_one(self):
        m = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        part = Partition((-1, 2), [BorelSet.interval(-1, 2)])
        bridge = partition_density_matrix(m, part)
        assert bridge.vn_nats < 1e-12
        _, purity = vn_entropy_and_purity(bridge.state)
        assert abs(purity - 1.0) < 1e-12

    def test_two_cells_half(self):
        m = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        bridge = partition_density_matrix(m, Partition.separating(m))
        assert abs(bridge.vn_nats - math.log(2)) < 1e-12
        assert np.allclose(bridge.state.matrix, np.eye(2) / 2)

    def test_quarter_quarter_half(self):
        m = DiscreteMeasure([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])
        bridge = partition_density_matrix(m, Partition.separating(m))
        assert bridge.gap < 1e-12
        assert abs(bridge.shannon_bits - 1.5) < 1e-12

    def test_zero_cell_rejected(self):
        m = DiscreteMeasure([(0, 1)])
        part = Partition((-1, 2), [BorelSet.interval(-1, F(1, 2)), BorelSet.interval(F(1, 2), 2)])
        with pytest.raises(ZeroCell):
            partition_density_matrix(m, part)

    def test_bridge_random(self, rng):
        for _ in range(50):
            m = random_rational_probability(rng, max_atoms=8)
            bridge = partition_density_matrix(m, Partition.separating(m))
            assert bridge.gap < 1e-9


class TestDiracDetect:
    def test_locates_atom(self):
        lam = dirac_detect(DiscreteMeasure.dirac(F(3, 10)), (0, 1), depth=20)
        assert lam is not None
        assert abs(float(lam) - 0.3) <= 2 ** -20

    def test_two_atoms_rejected_at_first_split(self):
        m = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        assert dirac_detect(m, (-1, 2), depth=10) is None

    def test_boundary_atom(self):
        lam = dirac_detect(DiscreteMeasure.dirac(0), (0, 1), depth=20)
        assert abs(float(lam)) <= 2 ** -20

    def test_support_must_stay_inside_window(self):
        with pytest.raises(ValueError):
            dirac_detect(DiscreteMeasure.dirac(5), (0, 1))

    def test_float_mode(self):
        lam = dirac_detect(DiscreteMeasure.dirac(0.625, mode="float"), (0.0, 1.0), depth=25)
        assert abs(lam - 0.625) <= 2 ** -25


class TestDispersionFreeEquivalence:
    def test_three_way_equivalence(self, rng):
        for _ in range(25):
            m = random_rational_probability(rng, max_atoms=4)
            window = (min(m.support) - 1, max(m.support) + 1)
            is_dirac_by_variance = m.variance() == 0
            is_dirac_by_bisection = dirac_detect(m, window, depth=10) is not None
            zero_entropy = shannon_entropy(m, Partition.separating(m)).bits == 0.0
            assert is_dirac_by_variance == is_dirac_by_bisection == zero_entropy

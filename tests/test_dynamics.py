from fractions import Fraction as F

import pytest

from oplab.diagnostics import affine_split_check, entropy_checks, koopman_apply
from oplab.dynamics import EvolutionTrace, decompose_evolution
from oplab.errors import GridMismatch, NoAbsolutelyContinuousPart
from oplab.joint import mixture
from oplab.measures import DiscreteMeasure, Partition

from conftest import random_rational_probability


def dirac_start_trace(r=F(2), leak=F(1, 10), steps=4):
    times = list(range(steps))
    measures = [
        DiscreteMeasure([(r, 1 - leak * t), (r + 1, leak * t)]) for t in times
    ]
    return EvolutionTrace(times, measures), r, leak


class TestEvolutionTrace:
    def test_requires_time_zero(self):
        with pytest.raises(ValueError):
            EvolutionTrace([1, 2], [DiscreteMeasure.dirac(0)] * 2)

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            EvolutionTrace([0, 0], [DiscreteMeasure.dirac(0)] * 2)

    @pytest.mark.parametrize("last", [float("nan"), float("inf")])
    def test_times_must_be_finite(self, last):
        # Comparisons with NaN are always False, so an ordering check alone
        # lets NaN through; inf is strictly above every finite time.
        with pytest.raises(ValueError, match="finite"):
            EvolutionTrace([0, last], [DiscreteMeasure.dirac(0)] * 2)

    def test_probability_required(self):
        with pytest.raises(ValueError):
            EvolutionTrace([0], [DiscreteMeasure([(0, F(1, 2))])])

    def test_at_a_recorded_time(self):
        trace, r, leak = dirac_start_trace()
        assert trace.at(2) == DiscreteMeasure([(r, 1 - 2 * leak), (r + 1, 2 * leak)])
        assert trace.at(0.0) is trace.initial
        with pytest.raises(KeyError, match="no measure recorded at time 1.5"):
            trace.at(1.5)

    def test_continuity_report(self):
        trace, _, leak = dirac_start_trace()
        report = trace.continuity_report()
        assert report.observed_rate == pytest.approx(float(leak))
        declared = trace.continuity_report(declared_rate=float(leak) / 2)
        assert declared.violations


class TestDecomposeEvolution:
    def test_constant_trace(self, rng):
        m = random_rational_probability(rng, max_atoms=5)
        trace = EvolutionTrace([0, 1, 2], [m, m, m])
        report = decompose_evolution(trace)
        for t, chi in report.coefficients():
            assert chi == 1
            entry = report.at(t)
            assert entry.surviving == m
            assert entry.escaped is None
            assert all(v == 1 for v in entry.kernel.values())

    def test_full_escape(self):
        start = DiscreteMeasure.dirac(0)
        gone = DiscreteMeasure.dirac(5)
        report = decompose_evolution(EvolutionTrace([0, 1], [start, gone]))
        entry = report.at(1)
        assert entry.coefficient == 0
        assert entry.surviving is None
        assert entry.escaped == gone

    def test_float_mass_one_plus_rounding_does_not_escape(self):
        # The weights sum to 1.0000000000000002: a probability within the
        # float mass tolerance, with nothing outside the initial support.
        m = DiscreteMeasure(
            [(0.0, 0.44444444444444453), (1.0, 0.055555555555555566),
             (2.0, 0.2777777777777778), (3.0, 0.22222222222222227)],
            mode="float",
        )
        assert m.mass > 1.0 and m.is_probability()
        entry = decompose_evolution(EvolutionTrace([0.0], [m])).at(0.0)
        assert entry.escaped is None
        assert entry.surviving.is_probability()
        assert all(v == pytest.approx(1.0) for v in entry.kernel.values())

    def test_escape_lighter_than_the_mass_tolerance(self):
        # chi is exactly 1.0, so 1 - chi is no divisor for the escaped part.
        start = DiscreteMeasure([(0, 1.0)], mode="float")
        later = DiscreteMeasure([(0, 1.0), (5, 1e-13)], mode="float")
        entry = decompose_evolution(EvolutionTrace([0, 1], [start, later])).at(1)
        assert entry.coefficient == 1.0
        assert entry.escaped == DiscreteMeasure([(5, 1.0)], mode="float")

    def test_escape_next_to_a_mass_above_one(self):
        # chi exceeds 1 by a rounding error, so 1 - chi is negative.
        start = DiscreteMeasure([(0, 0.5), (1, 0.5)], mode="float")
        later = DiscreteMeasure([(0, 0.6), (1, 0.4 + 5e-13), (5, 1e-13)], mode="float")
        entry = decompose_evolution(EvolutionTrace([0, 1], [start, later])).at(1)
        assert entry.coefficient > 1.0
        assert entry.escaped == DiscreteMeasure([(5, 1.0)], mode="float")
        assert entry.surviving.is_probability()

    def test_dirac_start_formula(self):
        trace, r, _ = dirac_start_trace()
        report = decompose_evolution(trace)
        for t, measure in zip(trace.times, trace.measures):
            assert report.at(t).coefficient == measure.weight_at(r)

    def test_reconstruction_exact(self, rng):
        base = random_rational_probability(rng, max_atoms=6)
        drift = random_rational_probability(rng, max_atoms=6)
        measures = [base]
        for k in (1, 2, 3):
            t = F(k, 4)
            measures.append(mixture([(1 - t, base), (t, drift)]))
        trace = EvolutionTrace([0, 1, 2, 3], measures)
        report = decompose_evolution(trace)
        for t, measure in zip(trace.times, trace.measures):
            entry = report.at(t)
            parts = []
            if entry.surviving is not None:
                parts.append((entry.coefficient, entry.surviving))
            if entry.escaped is not None:
                parts.append((1 - entry.coefficient, entry.escaped))
            assert mixture(parts) == measure

    def test_support_separation(self, rng):
        base = random_rational_probability(rng, max_atoms=6)
        drift = random_rational_probability(rng, max_atoms=6)
        mixed = mixture([(F(1, 3), base), (F(2, 3), drift)])
        report = decompose_evolution(EvolutionTrace([0, 1], [base, mixed]))
        entry = report.at(1)
        base_support = set(base.support)
        if entry.surviving is not None:
            assert set(entry.surviving.support) <= base_support
        if entry.escaped is not None:
            assert not set(entry.escaped.support) & base_support


class TestKoopman:
    def test_constant_function_transports_to_one(self):
        trace, _, _ = dirac_start_trace()
        report = decompose_evolution(trace)
        assert koopman_apply(report, lambda s: 1, 2) == 1

    def test_no_dissipation_reproduces_initial_expectation(self, rng):
        m = random_rational_probability(rng, max_atoms=5)
        report = decompose_evolution(EvolutionTrace([0, 1], [m, m]))
        f = lambda s: s * s + 1
        assert koopman_apply(report, f, 1) == m.expectation(f)

    def test_crafted_kernel_matches_direct_sum(self):
        initial = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
        evolved = DiscreteMeasure([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 4)), (5, F(1, 4))])
        report = decompose_evolution(EvolutionTrace([0, 1], [initial, evolved]))
        entry = report.at(1)
        f = lambda s: 3 * s
        direct = sum(
            f(s) * entry.kernel[s] * initial.weight_at(s) for s in initial.support
        )
        assert koopman_apply(report, f, 1) == direct

    def test_positivity(self, rng):
        base = random_rational_probability(rng, max_atoms=5)
        drift = random_rational_probability(rng, max_atoms=5)
        mixed = mixture([(F(1, 2), base), (F(1, 2), drift)])
        report = decompose_evolution(EvolutionTrace([0, 1], [base, mixed]))
        assert koopman_apply(report, lambda s: abs(s) + 1, 1) > 0

    def test_consistency_with_unnormalized_part(self):
        trace, r, _ = dirac_start_trace()
        report = decompose_evolution(trace)
        for t, measure in zip(trace.times, trace.measures):
            indicator = lambda s: 1 if s == r else 0
            lhs = koopman_apply(report, indicator, t) * report.at(t).coefficient
            assert lhs == measure.weight_at(r)

    def test_no_surviving_mass(self):
        report = decompose_evolution(EvolutionTrace(
            [0, 1], [DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(9)]
        ))
        with pytest.raises(NoAbsolutelyContinuousPart):
            koopman_apply(report, lambda s: 1, 1)


class TestEntropyChecks:
    def test_constant_trace_dissipation_free(self, rng):
        m = random_rational_probability(rng, max_atoms=4)
        trace = EvolutionTrace([0, 1], [m, m])
        report = entropy_checks(trace, [Partition.separating(m)])
        assert report.monotone and report.dissipation_free

    def test_spreading_dirac_monotone_not_free(self):
        trace, r, _ = dirac_start_trace()
        part = Partition.separating(DiscreteMeasure.uniform([r, r + 1]))
        report = entropy_checks(trace, [part])
        assert report.monotone
        assert not report.dissipation_free

    def test_entropy_dip_flagged(self):
        spread = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        concentrated = DiscreteMeasure([(0, F(99, 100)), (1, F(1, 100))])
        trace = EvolutionTrace([0, 1], [spread, concentrated])
        part = Partition.separating(spread)
        report = entropy_checks(trace, [part])
        assert not report.monotone
        assert report.violations

    def test_dirac_start_mixture_entropy_bound(self):
        trace, r, _ = dirac_start_trace()
        part = Partition.separating(DiscreteMeasure.uniform([r, r + 1]))
        report = decompose_evolution(trace)
        from oplab.information import shannon_entropy

        for t, measure in zip(trace.times, trace.measures):
            entry = report.at(t)
            if entry.escaped is None:
                continue
            h_total = shannon_entropy(measure, part).bits
            h_escaped = shannon_entropy(entry.escaped, part).bits
            assert h_total >= float(1 - entry.coefficient) * h_escaped - 1e-12


class TestAffine:
    @staticmethod
    def _linear_map(measure, t):
        out = []
        rate = F(1, 4) * t
        for p, w in measure.atoms:
            out.append((p, w * (1 - rate)))
            out.append((p + 1, w * rate))
        return DiscreteMeasure(out)

    def test_ratio_one_trivially_affine(self, rng):
        m = random_rational_probability(rng, max_atoms=4)
        grid = [0, 1]
        tr = EvolutionTrace(grid, [self._linear_map(m, t) for t in grid])
        other = random_rational_probability(rng, max_atoms=4)
        tr_other = EvolutionTrace(grid, [self._linear_map(other, t) for t in grid])
        report = affine_split_check(tr, tr_other, tr, 1)
        assert report.affine

    def test_shared_kernel_is_affine(self, rng):
        a = random_rational_probability(rng, max_atoms=4)
        b = random_rational_probability(rng, max_atoms=4)
        r = F(1, 3)
        grid = [0, 1, 2]
        tr_a = EvolutionTrace(grid, [self._linear_map(a, t) for t in grid])
        tr_b = EvolutionTrace(grid, [self._linear_map(b, t) for t in grid])
        mixed0 = mixture([(r, a), (1 - r, b)])
        tr_m = EvolutionTrace(grid, [self._linear_map(mixed0, t) for t in grid])
        report = affine_split_check(tr_a, tr_b, tr_m, r)
        assert report.affine
        assert report.mixture_split is not None

    def test_state_dependent_map_not_affine(self):
        a = DiscreteMeasure.dirac(0)
        b = DiscreteMeasure.uniform([0, 2])
        r = F(1, 2)

        def evolve(measure, t):
            # leaves point masses alone: depends on the input measure
            if len(measure) == 1:
                return measure
            return self._linear_map(measure, t)

        grid = [0, 1]
        tr_a = EvolutionTrace(grid, [evolve(a, t) for t in grid])
        tr_b = EvolutionTrace(grid, [evolve(b, t) for t in grid])
        mixed0 = mixture([(r, a), (1 - r, b)])
        tr_m = EvolutionTrace(grid, [evolve(mixed0, t) for t in grid])
        report = affine_split_check(tr_a, tr_b, tr_m, r)
        assert not report.affine
        assert report.mixture_split is None

    def test_grid_mismatch(self):
        m = DiscreteMeasure.dirac(0)
        tr1 = EvolutionTrace([0, 1], [m, m])
        tr2 = EvolutionTrace([0, 2], [m, m])
        with pytest.raises(GridMismatch):
            affine_split_check(tr1, tr2, tr1, F(1, 2))

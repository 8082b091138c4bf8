import math
from fractions import Fraction as F

import numpy as np
import pytest

from oplab.ensembles import (
    CONVERGENT,
    MAX_TRIALS,
    NOT_CONVERGENT,
    FrequencyTrace,
    NaturalSubset,
    estimate_probability,
    kvn_equivalence,
    min_trials,
    natural_density,
    run_ensemble,
)
from oplab.errors import CapacityError, HorizonExceeded, NotProbability, TooShort
from oplab.measures import BorelSet, DiscreteMeasure

TRUTH = DiscreteMeasure([(0, F(7, 10)), (1, F(3, 10))])
TARGET = BorelSet.point(1)


class TestRunEnsemble:
    def test_deterministic(self):
        a = run_ensemble(TRUTH, TARGET, 5000, seed=42)
        b = run_ensemble(TRUTH, TARGET, 5000, seed=42)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_seed_changes_stream(self):
        a = run_ensemble(TRUTH, TARGET, 5000, seed=42)
        b = run_ensemble(TRUTH, TARGET, 5000, seed=43)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_copy_added_prefix(self):
        long = run_ensemble(TRUTH, TARGET, 10_000, seed=11)
        short = run_ensemble(TRUTH, TARGET, 1_000, seed=11)
        assert np.array_equal(long.outcomes[:1000], short.outcomes)
        assert np.array_equal(long.prefix(1000).outcomes, short.outcomes)

    def test_certain_and_impossible_events(self):
        ones = run_ensemble(DiscreteMeasure.dirac(1), TARGET, 64, seed=3)
        zeros = run_ensemble(DiscreteMeasure.dirac(0), TARGET, 64, seed=3)
        assert ones.outcomes.all()
        assert not zeros.outcomes.any()

    def test_three_sigma_binomial(self):
        log = run_ensemble(TRUTH, TARGET, 100_000, seed=42)
        f_n = log.trace().f[-1]
        assert abs(f_n - 0.3) <= 0.0045

    def test_requires_probability(self):
        with pytest.raises(NotProbability):
            run_ensemble(DiscreteMeasure([(0, F(1, 2))]), TARGET, 10, seed=1)

    @pytest.mark.parametrize("n", [MAX_TRIALS + 1, 2 ** 70])
    def test_trial_cap_checked_before_allocating(self, n):
        with pytest.raises(CapacityError, match="MAX_TRIALS"):
            run_ensemble(TRUTH, TARGET, n, seed=1)

    def test_success_counts_match_outcomes(self):
        log = run_ensemble(TRUTH, TARGET, 500, seed=9)
        assert np.array_equal(log.successes, np.cumsum(log.outcomes))
        rows = list(log.rows())
        i, x, xi, f, w = rows[10]
        assert xi == log.successes[10]
        assert f == xi / i


class TestFrequencyTrace:
    def test_recomputed_from_outcomes(self):
        log = run_ensemble(TRUTH, TARGET, 2000, seed=5)
        trace = log.trace()
        counts = np.cumsum(log.outcomes)
        idx = np.arange(1, 2001)
        assert np.array_equal(trace.f, counts / idx)
        assert np.allclose(trace.w, np.cumsum(trace.f) / idx, rtol=0, atol=0)

    def test_log_traces_are_count_monotone(self):
        log = run_ensemble(TRUTH, TARGET, 2000, seed=5)
        assert log.trace().is_count_monotone()

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            FrequencyTrace([0.5, 1.5])

    def test_w_in_unit_interval(self):
        trace = run_ensemble(TRUTH, TARGET, 3000, seed=8).trace()
        assert trace.w.min() >= 0 and trace.w.max() <= 1


class TestNaturalDensity:
    def test_all_naturals(self):
        sub = NaturalSubset(1000, members=list(range(1, 1001)))
        assert natural_density(sub, 1000).density == 1

    def test_evens_counting_bound(self):
        sub = NaturalSubset(10_000, rule="evens")
        for n in (10, 999, 10_000):
            d = natural_density(sub, n).density
            assert abs(d - F(1, 2)) <= F(1, n)

    def test_primes_gauss_law(self):
        n = 1_000_000
        sub = NaturalSubset(n, rule="primes")
        density = float(natural_density(sub, n).density)
        assert abs(density - 1 / math.log(n)) / (1 / math.log(n)) < 0.2

    def test_horizon_guard(self):
        sub = NaturalSubset(100, rule="squares")
        with pytest.raises(HorizonExceeded):
            natural_density(sub, 101)

    def test_estimates_bracket_density(self):
        sub = NaturalSubset(4096, rule="evens")
        report = natural_density(sub, 4096)
        assert report.lower_estimate <= report.density <= report.upper_estimate

    def test_progression(self):
        sub = NaturalSubset(1000, progression=(3, 7))
        assert natural_density(sub, 1000).count == len(range(3, 1001, 7))


class TestKvn:
    def test_zero_sequence(self):
        report = kvn_equivalence(np.zeros(1000))
        assert report.cesaro_mean == 0
        assert report.verdict == CONVERGENT
        assert all(d == 0 for _, d in report.exceedance_densities)

    def test_square_spikes_converge(self):
        n = 1_000_000
        x = NaturalSubset(n, rule="squares").indicator(n)
        report = kvn_equivalence(x)
        assert report.cesaro_mean <= 2 / math.sqrt(n)
        assert report.cesaro_mean == math.isqrt(n) / n
        assert report.verdict == CONVERGENT

    def test_evens_do_not_converge(self):
        n = 100_000
        x = NaturalSubset(n, rule="evens").indicator(n)
        report = kvn_equivalence(x)
        assert abs(report.cesaro_mean - 0.5) <= 1 / n
        densities = dict(report.exceedance_densities)
        assert abs(densities[0.5] - 0.5) <= 1 / n
        assert report.verdict == NOT_CONVERGENT

    def test_checkpoint_trend_for_zero_density_sets(self):
        n = 250_000
        x = NaturalSubset(n, rule="squares").indicator(n)
        report = kvn_equivalence(x)
        values = [v for _, v in report.cesaro_checkpoints]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * 1.05

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kvn_equivalence([-0.5, 0.5])


class TestEstimate:
    def test_constant_trace_estimates_exactly(self):
        trace = FrequencyTrace(np.full(500, 0.37))
        report = estimate_probability(trace)
        assert report.p_hat == pytest.approx(0.37, abs=1e-12)

    def test_requires_length(self):
        with pytest.raises(TooShort):
            estimate_probability(FrequencyTrace(np.full(50, 0.5)))

    def test_seeded_bernoulli_pipeline(self):
        trace = run_ensemble(TRUTH, TARGET, 100_000, seed=42).trace()
        report = estimate_probability(trace)
        assert abs(report.p_hat - 0.3) <= 0.0045
        assert report.count_monotone

    def test_zero_density_spikes_washed_out(self):
        n = 40_000
        base = np.full(n, 0.25)
        spikes = NaturalSubset(n, rule="squares").indicator(n)
        trace = FrequencyTrace(np.clip(base + 0.5 * spikes, 0, 1))
        report = estimate_probability(trace)
        assert abs(report.p_hat - 0.25) <= 0.5 * math.sqrt(n) / n + 1e-9
        assert not report.count_monotone

    def test_weak_star_gaps_vanish_for_two_point_probes(self):
        trace = run_ensemble(TRUTH, TARGET, 10_000, seed=17).trace()
        report = estimate_probability(trace)
        assert max(gap for _, gap in report.weak_star_gaps) < 1e-9


class TestMinTrials:
    def test_constant_trace_all_members(self):
        trace = FrequencyTrace(np.full(300, 0.4))
        report = min_trials(trace, 1e-9)
        assert report.membership.all()
        assert report.first_candidate == 1

    def test_huge_alpha_all_members(self):
        trace = run_ensemble(TRUTH, TARGET, 500, seed=2).trace()
        report = min_trials(trace, 1.0)
        assert report.membership.all()

    def test_membership_matches_bruteforce(self):
        trace = run_ensemble(TRUTH, TARGET, 5_000, seed=42).trace()
        alpha = 0.01
        report = min_trials(trace, alpha)
        f = trace.f
        w = trace.w
        for m in range(1, trace.n + 1):
            if m == 1:
                expected = True
            else:
                expected = abs(f[m - 1] - w[m - 2]) / m < 2 * alpha
            assert bool(report.membership[m - 1]) == expected

    def test_harmonic_lower_bound_holds_on_logs(self):
        for seed in (1, 2, 3):
            trace = run_ensemble(TRUTH, TARGET, 3_000, seed=seed).trace()
            report = min_trials(trace, 0.05)
            assert report.bound_holds
            n = trace.n
            j = report.first_success_index
            expected = trace.f[j - 1] * sum(1.0 / k for k in range(1, n - j + 1)) / n
            assert report.lower_bound_at_horizon == pytest.approx(expected, rel=1e-9)

    def test_all_zero_trace(self):
        report = min_trials(FrequencyTrace(np.zeros(100)), 0.1)
        assert report.first_success_index is None
        assert report.lower_bound_at_horizon == 0.0
        assert report.bound_holds


class TestPlaceSelection:
    def test_even_index_subsequence_consistent(self):
        from oplab.ensembles import place_selection_check

        log = run_ensemble(TRUTH, TARGET, 50_000, seed=42)
        report = place_selection_check(log)
        assert report.consistent
        assert report.gap <= report.two_sigma

    def test_short_log_rejected(self):
        from oplab.ensembles import place_selection_check

        with pytest.raises(TooShort):
            place_selection_check(run_ensemble(TRUTH, TARGET, 2, seed=1))

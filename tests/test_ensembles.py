import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplab
from oplab import ensembles
from oplab.cli import main as cli_main
from oplab.ensembles import (
    CONVERGENT,
    COUNT_MONOTONE_TOL,
    MAX_TRIALS,
    NOT_CONVERGENT,
    PIECE,
    ROW_BATCH,
    STEP,
    FrequencyTrace,
    NaturalSubset,
    TrialLog,
    counter_words,
    estimate_probability,
    kvn_equivalence,
    min_trials,
    natural_density,
    place_selection_check,
    run_ensemble,
)
from oplab.errors import CapacityError, HorizonExceeded, NotProbability, TooShort
from oplab.measures import BorelSet, DiscreteMeasure

from conftest import CHUNK

SRC = Path(oplab.__file__).resolve().parent.parent
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

    @pytest.mark.parametrize("m", [0, -1, 101])
    def test_prefix_out_of_range(self, m):
        log = run_ensemble(TRUTH, TARGET, 100, seed=11)
        with pytest.raises(ValueError, match=f"^prefix length {m} outside 1..100$"):
            log.prefix(m)

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

    # Words of the generator as released; seed 0 at index 1 is also the
    # first SplitMix64 output for state 0.  A seed at or above 2**64 wraps.
    @pytest.mark.parametrize("seed, start, words", [
        (0, 1, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]),
        (2 ** 64 + 12345, 1, [0x22118258A9D111A0, 0x346EDCE5F713F8ED, 0x1E9A57BC80E6721D]),
        (7, 2 ** 32 - 2, [0xCB3B8C0DCC008493, 0xDCB46C4C171F30E9, 0xB467F880351838C1,
                          0x962264E9A839C269]),
    ])
    def test_counter_words_are_pinned(self, seed, start, words):
        got = counter_words(seed, start, len(words))
        assert got.dtype == np.uint64
        assert [int(w) for w in got] == words
        assert np.array_equal(got, counter_words(seed % 2 ** 64, start, len(words)))

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

    def test_a_log_trace_is_count_monotone_without_a_pass(self, monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass over the trace")

        trace = run_ensemble(TRUTH, TARGET, 2000, seed=5).trace()
        monkeypatch.setattr(ensembles, "_frequency_chunks", no_pass)
        assert trace.is_count_monotone()
        with pytest.raises(AssertionError, match="a pass"):
            FrequencyTrace(np.full(10, 0.5)).is_count_monotone()

    def test_a_long_log_is_count_monotone(self):
        """The float products k f_k of this log fall by more than
        COUNT_MONOTONE_TOL at trial 16 818 838, but its success counts, running
        sums of 0/1 outcomes, never fall."""
        log = run_ensemble(TRUTH, TARGET, 17_000_000, seed=1)
        k = 16_818_838
        before, count = (int(log.outcomes[:m].sum(dtype=np.int64)) for m in (k - 1, k))
        assert count / k * k - before / (k - 1) * (k - 1) < -COUNT_MONOTONE_TOL
        trace = log.trace()
        assert trace.is_count_monotone()
        assert estimate_probability(trace).count_monotone

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            FrequencyTrace([0.5, 1.5])

    @pytest.mark.parametrize("values", [[math.nan, 1.5], [-0.5, math.nan]])
    def test_nan_does_not_hide_out_of_range(self, values):
        with pytest.raises(ValueError, match="outside"):
            FrequencyTrace(values)

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

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_is_refused(self, n):
        # A negative n once sliced the flags from their end: density -4/3 at -3.
        sub = NaturalSubset(10, rule="primes")
        for query in (lambda: natural_density(sub, n), lambda: sub.count_upto(n),
                      lambda: sub.indicator(n)):
            with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
                query()

    def test_estimates_bracket_density(self):
        sub = NaturalSubset(4096, rule="evens")
        report = natural_density(sub, 4096)
        assert report.lower_estimate <= report.density <= report.upper_estimate

    def test_odds(self):
        sub = NaturalSubset(11, rule="odds")
        assert sub.label == "odds"
        assert np.array_equal(sub.indicator(6), [1, 0, 1, 0, 1, 0])
        assert sub.count_upto(11) == 6

    @pytest.mark.parametrize("kwargs, message", [
        (dict(horizon=0, rule="odds"), "horizon must be positive"),
        (dict(horizon=10), "give exactly one of members, rule, progression"),
        (dict(horizon=10, rule="odds", members=[1]), "give exactly one of"),
        (dict(horizon=10, rule="odd"), "unknown rule 'odd'"),
    ])
    def test_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            NaturalSubset(**kwargs)

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

    @pytest.mark.parametrize("at", [0, STEP - 1, STEP, STEP + 1, 2 * STEP + 2])
    def test_negative_rejected_in_any_chunk(self, at):
        x = np.full(2 * STEP + 3, 0.5)
        x[at] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            kvn_equivalence(x)


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
        """w_bar, the mean of the stage frequencies, is p_hat itself: the
        identity probe's gap is |w_bar - p_hat|, and every gap is exactly 0."""
        for n in (10_000, 3 * PIECE + 5):
            report = estimate_probability(run_ensemble(TRUTH, TARGET, n, seed=17).trace())
            assert dict(report.weak_star_gaps) == {
                "cdf_at_0": 0.0, "cdf_at_1": 0.0, "identity": 0.0, "square": 0.0}


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

    @pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan"), float("inf")])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            min_trials(FrequencyTrace(np.full(10, 0.5)), alpha)

    @pytest.mark.parametrize("at", [STEP, PIECE, PIECE + 1, CHUNK])
    def test_a_jump_moves_the_candidate_past_it(self, at):
        """A jump of 1/2 at index ``at`` fails the test there; index m after
        it passes once (m - 1) m > 1 / (4 alpha), that is from m = 501 on."""
        x = np.full(2 * CHUNK, 0.5)
        x[at - 1] = 1.0
        report = min_trials(FrequencyTrace(x), 1e-6)
        assert report.first_candidate == at + 1
        assert not report.membership[at - 1] and report.membership[at:].all()

    def test_all_zero_trace(self):
        report = min_trials(FrequencyTrace(np.zeros(100)), 0.1)
        assert report.first_success_index is None
        assert report.lower_bound_at_horizon == 0.0
        assert report.bound_holds

    def test_reports_compare_and_hash_by_value(self):
        """Reports on equal logs are equal records with equal hashes; the
        membership is packed into bytes, so neither ``==`` nor ``hash`` meets
        an array."""
        n = 3 * PIECE + 5
        first, second = (min_trials(run_ensemble(TRUTH, TARGET, n, seed=4).trace(), 0.05)
                         for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert isinstance(first.packed_membership, bytes) and first.horizon == n
        other = min_trials(run_ensemble(TRUTH, TARGET, n, seed=4).trace(), 1e-3)
        assert other != first and not np.array_equal(other.membership, first.membership)


class TestPlaceSelection:
    def test_even_index_subsequence_consistent(self):
        log = run_ensemble(TRUTH, TARGET, 50_000, seed=42)
        report = place_selection_check(log)
        assert report.consistent
        assert report.gap <= report.two_sigma

    def test_short_log_rejected(self):
        with pytest.raises(TooShort):
            place_selection_check(run_ensemble(TRUTH, TARGET, 2, seed=1))

    def test_report_matches_running_count(self):
        log = run_ensemble(TRUTH, TARGET, 3 * CHUNK + 5, seed=42)
        report = place_selection_check(log)
        evens = log.outcomes[1::2]
        sigma = math.sqrt(0.3 * 0.7 / evens.size)
        full = float(np.cumsum(log.outcomes, dtype=np.int64)[-1] / log.n)
        selected = float(np.mean(evens))
        assert repr(report.full_frequency) == repr(full)
        assert repr(report.gap) == repr(abs(selected - full))
        assert report.two_sigma == 2.0 * sigma
        assert report.consistent == (abs(selected - full) <= 2.0 * sigma)


# ---------------------------------------------------------------------------
# Chunked pipeline against whole-vector numpy references
# ---------------------------------------------------------------------------


def _coin(p):
    """The truth whose target, the point 1, has probability p."""
    return DiscreteMeasure([(0, 1 - p), (1, p)]) if 0 < p < 1 else DiscreteMeasure.dirac(int(p))


def _ref_outcomes(p, n, seed):
    threshold = (p.numerator * 2 ** 64) // p.denominator
    if threshold >= 2 ** 64:
        return np.ones(n, dtype=np.uint8)
    if threshold <= 0:
        return np.zeros(n, dtype=np.uint8)
    return (counter_words(seed, 1, n) < np.uint64(threshold)).astype(np.uint8)


def _ref_trace(f):
    f = np.asarray(f, dtype=np.float64)
    assert not (np.any(f < -1e-12) or np.any(f > 1 + 1e-12))
    f = np.clip(f, 0.0, 1.0)
    return f, np.cumsum(f) / np.arange(1, f.size + 1, dtype=np.float64)


def _ref_count_monotone(f):
    counts = f * np.arange(1, f.size + 1, dtype=np.float64)
    return bool(np.all(np.diff(counts) >= -1e-9))


def _ref_kvn(x):
    arr = np.clip(np.asarray(x, dtype=np.float64), 0.0, None)
    n = arr.size
    csum = np.cumsum(arr)
    exceed = tuple((float(a), float(np.count_nonzero(arr > a) / n))
                   for a in (0.5, 0.25, 0.1, 0.05, 0.01))
    checkpoints = tuple((k, float(csum[k - 1] / k))
                        for k in sorted({max(1, (n * j) // 16) for j in range(8, 17)}))
    return float(csum[-1] / n), exceed, checkpoints


def _ref_estimate(f, w):
    # The mean of f_1 .. f_n is w_n: the averaged stage measure and the
    # estimate come from one sum.
    p_hat = w_bar = float(w[-1])
    probes = (lambda s: 1.0 if s <= 0.0 else 0.0, lambda s: 1.0 if s <= 1.0 else 0.0,
              lambda s: s, lambda s: s * s)
    gaps = tuple(abs(((1.0 - w_bar) * fn(0.0) + w_bar * fn(1.0))
                     - ((1.0 - p_hat) * fn(0.0) + p_hat * fn(1.0))) for fn in probes)
    return p_hat, _ref_kvn(np.abs(f - p_hat)), gaps, _ref_count_monotone(f)


def _ref_min_trials(f, w, alpha):
    n = f.size
    membership = np.ones(n, dtype=bool)
    if n > 1:
        m = np.arange(2, n + 1, dtype=np.float64)
        membership[1:] = np.abs(f[1:] - w[:-1]) / m < 2.0 * alpha
    missed = np.nonzero(~membership)[0]
    candidate = int(missed[-1]) + 2 if missed.size else 1
    positive = np.nonzero(f > 0)[0]
    if positive.size == 0:
        return membership, candidate, None, 0.0, bool(np.all(w >= -1e-12))
    first = int(positive[0]) + 1
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))
    counts = np.minimum(np.arange(1, n + 1) - first, n).clip(0)
    bounds = float(f[first - 1]) * harmonic[counts] / np.arange(1, n + 1, dtype=np.float64)
    return membership, candidate, first, float(bounds[-1]), bool(np.all(w + 1e-12 >= bounds))


def _ref_rows(outcomes):
    counts = np.cumsum(outcomes, dtype=np.int64)
    idx = np.arange(1, outcomes.size + 1, dtype=np.int64)
    f = counts / idx
    w = np.cumsum(f) / idx
    return [(int(idx[i]), int(outcomes[i]), int(counts[i]), float(f[i]), float(w[i]))
            for i in range(outcomes.size)]


def _synthetic(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random(n)
    if kind == "negative zeros":
        return np.where(rng.random(n) < 0.5, -0.0, rng.random(n))
    if kind == "all negative zero":
        return np.full(n, -0.0)
    if kind == "just outside [0, 1]":
        return np.clip(rng.random(n) * (1 + 4e-12) - 2e-12, -1e-12, 1 + 1e-12)
    if kind == "nan before the only success":
        x = np.full(n, np.nan)
        x[-1] = 0.5
        return x
    x = np.zeros(n)
    x[-1] = 1e-300
    return x


EDGES = [1, 2, 100, STEP - 1, STEP + 1, PIECE - 1, PIECE, PIECE + 1,
         CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]
SIZES = st.sampled_from(EDGES) | st.integers(1, 3 * CHUNK)
PROBABILITIES = st.sampled_from([F(0), F(1, 10 ** 5), F(3, 10), F(1, 2), F(999, 1000), F(1)])


def _assert_bit_equal(a, b):
    assert np.array_equal(a, b, equal_nan=True) and repr(a.tolist()) == repr(b.tolist())


def _assert_matches_reference(trace, f_in, alpha):
    f, w = _ref_trace(f_in)
    _assert_bit_equal(trace.f, f)
    _assert_bit_equal(trace.w, w)
    assert trace.is_count_monotone() == _ref_count_monotone(f)
    if trace.n >= 100:
        report = estimate_probability(trace)
        p_hat, (cesaro, exceed, checkpoints), gaps, monotone = _ref_estimate(f, w)
        kvn = report.cesaro_diagnostics
        assert repr((report.p_hat, kvn.cesaro_mean, kvn.exceedance_densities,
                     kvn.cesaro_checkpoints, report.count_monotone)) == repr(
            (p_hat, cesaro, exceed, checkpoints, monotone))
        assert repr(tuple(g for _, g in report.weak_star_gaps)) == repr(gaps)
        if math.isfinite(p_hat):
            assert [g for _, g in report.weak_star_gaps] == [0.0] * 4
    membership, candidate, first, bound, holds = _ref_min_trials(f, w, alpha)
    report = min_trials(trace, alpha)
    assert np.array_equal(report.membership, membership)
    assert (report.first_candidate, report.first_success_index,
            repr(report.lower_bound_at_horizon), report.bound_holds) == (
        candidate, first, repr(bound), holds)
    _assert_first_candidate_is_stable(report)


def _assert_first_candidate_is_stable(report):
    """Every index from the candidate on is a member, and the index before
    it, if there is one, is not."""
    k = report.first_candidate
    assert 1 <= k <= report.membership.size + 1
    assert report.membership[k - 1:].all()
    assert k == 1 or not report.membership[k - 2]


_RANGED_N = 2 * CHUNK + 3
# Rows are built one piece at a time, so the bounds straddle piece edges
# (PIECE, and CHUNK = 4 PIECE) and the ends of the log.
ROW_BOUNDS = st.none() | st.sampled_from(
    [0, 1, PIECE - 1, PIECE, PIECE + 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
     _RANGED_N - 1, _RANGED_N, _RANGED_N + 7, -1, -CHUNK - 1]
) | st.integers(-_RANGED_N - 2, _RANGED_N + 2)


# Runs the command in argv, its output discarded, and prints its exit code
# and its ru_maxrss.
_MAXRSS_OF = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _bits(rows) -> bytes:
    """The rows as float64 bytes: as strict as comparing reprs, and faster."""
    return np.array(rows, dtype=np.float64).tobytes()


@functools.lru_cache(maxsize=None)
def _ranged_log():
    """A log spanning three chunks, with all its rows (built once)."""
    log = run_ensemble(TRUTH, TARGET, _RANGED_N, seed=11)
    return log, list(log.rows())


class TestChunkedPipeline:
    """Every value of the chunked pipeline equals the whole-vector reference bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(n=SIZES, p=PROBABILITIES, seed=st.integers(0, 2 ** 64 - 1),
           alpha=st.sampled_from([0.01, 1e-7]))
    @example(n=2 * CHUNK + 1, p=F(3, 10), seed=1, alpha=0.01)
    # A long log whose last piece is short: 1 000 003 = 61 PIECE + 579.
    @example(n=1_000_003, p=F(3, 10), seed=2, alpha=0.01)
    def test_run_log(self, n, p, seed, alpha):
        log = run_ensemble(_coin(p), TARGET, n, seed)
        outcomes = _ref_outcomes(p, n, seed)
        assert np.array_equal(log.outcomes, outcomes)
        _assert_matches_reference(log.trace(), np.cumsum(outcomes, dtype=np.int64)
                                  / np.arange(1, n + 1, dtype=np.float64), alpha)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([100, PIECE - 1, PIECE, PIECE + 1, 3 * PIECE + 5]),
           p=st.sampled_from([F(0), F(3, 10), F(1)]), seed=st.integers(0, 2 ** 64 - 1),
           alpha=st.sampled_from([0.01, 0.05, 1e-7]))
    @example(n=3 * PIECE + 5, p=F(3, 10), seed=7, alpha=0.05)
    def test_min_trials_then_estimate_on_one_trace(self, n, p, seed, alpha):
        """The order the CLI runs them in: ``min_trials`` keeps w_n on the
        trace and ``estimate_probability`` reads p_hat from it, and both
        reports equal those of a fresh trace."""
        log = run_ensemble(_coin(p), TARGET, n, seed)
        trace = log.trace()
        stabilization = min_trials(trace, alpha)
        report = estimate_probability(trace)
        assert stabilization == min_trials(log.trace(), alpha)
        fresh = estimate_probability(log.trace())
        assert report == fresh and report.p_hat.hex() == fresh.p_hat.hex()
        f, w = _ref_trace(np.cumsum(log.outcomes, dtype=np.int64)
                          / np.arange(1, n + 1, dtype=np.float64))
        assert report.p_hat.hex() == float(w[-1]).hex()
        assert np.array_equal(stabilization.membership, _ref_min_trials(f, w, alpha)[0])

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1, 7, 9, STEP + 3, PIECE - 1, PIECE + 1, 2 * PIECE + 5])
           | st.integers(1, 2 * PIECE + 7).filter(lambda n: n % 8),
           p=PROBABILITIES, seed=st.integers(0, 2 ** 64 - 1), data=st.data())
    @example(n=2 * PIECE + 5, p=F(3, 10), seed=5, data=None)
    def test_packed_log_answers_as_its_unpacked_outcomes(self, n, p, seed, data):
        """A log keeps one bit per trial and answers as the one-byte-per-trial
        reference: its outcomes, rows, trace and estimators, its equality and
        hash with a log built from the reference, and a prefix equal to a
        fresh run that views the log's bytes."""
        truth = _coin(p)
        log = run_ensemble(truth, TARGET, n, seed)
        outcomes = _ref_outcomes(p, n, seed)
        packed = np.packbits(outcomes, bitorder="little")
        assert log._bits.tobytes() == packed.tobytes() and log.n == n
        assert np.array_equal(log.outcomes, outcomes) and log.outcomes.dtype == np.uint8
        assert repr(list(log.rows())) == repr(_ref_rows(outcomes))
        counts = np.cumsum(outcomes, dtype=np.int64)
        assert np.array_equal(log.successes, counts)
        if n >= 4:
            report = place_selection_check(log)
            evens = outcomes[1::2]
            assert (repr(report.full_frequency), repr(report.selected_frequency)) == (
                repr(float(counts[-1] / n)), repr(float(np.mean(evens))))
        _assert_matches_reference(log.trace(), counts / np.arange(1, n + 1, dtype=np.float64),
                                  0.01)
        unpacked = TrialLog(seed, truth, TARGET, outcomes, log.success_probability)
        assert unpacked == log and hash(unpacked) == hash(log)
        assert unpacked._bits.tobytes() == packed.tobytes()
        m = n - 1 if data is None else data.draw(st.integers(1, n), label="m")
        if m:
            prefix, fresh = log.prefix(m), run_ensemble(truth, TARGET, m, seed)
            assert prefix == fresh and hash(prefix) == hash(fresh)
            assert prefix._bits.base is log._bits
            assert np.array_equal(prefix.outcomes, outcomes[:m])
            assert repr(list(prefix.rows())) == repr(list(fresh.rows()))
            assert m == n or prefix != log
            if m >= 100:
                assert (estimate_probability(prefix.trace())
                        == estimate_probability(fresh.trace()))
            assert min_trials(prefix.trace(), 0.01) == min_trials(fresh.trace(), 0.01)

    def test_cli_estimate_makes_two_passes(self, monkeypatch, tmp_path):
        """``oplab estimate`` streams the log twice: ``min_trials``, then
        the Cesaro scan."""
        passes = []
        stream = ensembles._frequency_chunks

        def counted(*args, **kwargs):
            passes.append(args[0])
            return stream(*args, **kwargs)

        monkeypatch.setattr(ensembles, "_frequency_chunks", counted)
        config = Path(__file__).resolve().parent / "golden" / "configs" / "estimate.json"
        assert cli_main(["estimate", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert passes == [131_075, 131_075]

    @pytest.mark.parametrize("kind", ["uniform", "negative zeros", "all negative zero",
                                      "just outside [0, 1]", "nan before the only success",
                                      "one tiny success"])
    @settings(max_examples=8, deadline=None)
    @given(n=SIZES, seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2 * CHUNK + 1, seed=2)
    def test_synthetic_trace(self, kind, n, seed):
        x = _synthetic(kind, n, seed)
        _assert_matches_reference(FrequencyTrace(x), x, 0.01)
        cesaro, exceed, checkpoints = _ref_kvn(x)
        report = kvn_equivalence(x)
        assert repr((report.cesaro_mean, report.exceedance_densities,
                     report.cesaro_checkpoints)) == repr((cesaro, exceed, checkpoints))

    @settings(max_examples=40, deadline=None)
    @given(n=SIZES, at=SIZES, alpha=st.sampled_from([1e-9, 1e-6, 0.01, 10.0]))
    def test_first_candidate_follows_the_last_non_member(self, n, at, alpha):
        """A jump at an edge of an otherwise constant trace: the candidate
        equals the reference's, whichever piece the last non-member ends."""
        x = np.full(n, 0.5)
        x[min(at, n) - 1] = 1.0
        report = min_trials(FrequencyTrace(x), alpha)
        _, candidate, *_ = _ref_min_trials(*_ref_trace(x), alpha)
        assert report.first_candidate == candidate
        _assert_first_candidate_is_stable(report)

    def test_count_drop_at_a_chunk_edge(self):
        for edge in (PIECE, CHUNK):
            x = np.full(edge + 1, 0.5)
            x[edge] = 0.0
            assert not FrequencyTrace(x).is_count_monotone()
            assert FrequencyTrace(x[:edge]).is_count_monotone()

    @pytest.mark.parametrize("n", [PIECE - 1, PIECE + 1, CHUNK + 1, 2 * CHUNK + 1])
    def test_rows(self, n):
        log = run_ensemble(TRUTH, TARGET, n, seed=3)
        assert repr(list(log.rows())) == repr(_ref_rows(log.outcomes))

    def test_empty_log_has_no_rows(self):
        log = TrialLog(1, TRUTH, TARGET, [], F(3, 10))
        assert list(log.rows()) == []
        with pytest.raises(ValueError, match="nonempty"):
            log.trace()

    @settings(max_examples=40, deadline=None)
    @given(a=ROW_BOUNDS, b=ROW_BOUNDS)
    @example(a=CHUNK, b=2 * CHUNK)
    @example(a=CHUNK - 1, b=CHUNK + 1)
    @example(a=PIECE - 1, b=PIECE + 1)
    @example(a=PIECE + 1, b=2 * PIECE - 1)
    @example(a=0, b=None)
    def test_row_range_is_a_slice_of_all_rows(self, a, b):
        log, rows = _ranged_log()
        got = list(log.rows(a, b))
        assert got == rows[a:b]
        assert _bits(got) == _bits(rows[a:b])  # -0.0 and 0.0 compare equal

    def test_trace_does_not_alias_the_input(self):
        x = np.full(10, 0.5)
        trace = FrequencyTrace(x)
        x[:] = 0.25
        assert trace.f.tolist() == [0.5] * 10

    def test_peak_memory_is_bounded_per_trial(self):
        n = 2 ** 20 + 1
        tracemalloc.start()
        try:
            trace = run_ensemble(TRUTH, TARGET, n, seed=1).trace()
            estimate_probability(trace)
            min_trials(trace, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * n + 4 * 2 ** 20

    def test_estimate_grows_by_under_half_a_byte_per_trial(self):
        """The estimate pipeline, in the order ``oplab estimate`` runs it,
        peaks at most 0.5 byte per added trial above a 10**4-trial run at
        10**6 trials: the outcome bit and the membership bit make 1/4, and
        the estimators hold no f or w as long as the log, only pieces of
        PIECE entries, which a 10**4-trial run holds 10**4 long.  One byte
        per outcome made about 1.5."""

        def peak(n):
            tracemalloc.start()
            try:
                trace = run_ensemble(TRUTH, TARGET, n, seed=1).trace()
                stabilization = min_trials(trace, 0.01)
                estimate_probability(trace)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stabilization.horizon == n
            return top

        peak(10 ** 4)  # whatever a first run allocates once stays out of the baseline
        base = peak(10 ** 4)
        assert peak(10 ** 6) - base <= 0.5 * (10 ** 6 - 10 ** 4)

    def test_rows_build_objects_a_batch_at_a_time(self):
        """Iterating the rows of a log built beforehand peaks under 1 MiB: four
        piece buffers of 128 KiB and ROW_BATCH rows of Python objects.  Turning
        a whole piece into objects at once peaked at 2.4 MB."""
        log = run_ensemble(TRUTH, TARGET, 3 * PIECE + 5, seed=1)
        assert ROW_BATCH < PIECE
        for start in (0, PIECE + 3):
            tracemalloc.start()
            try:
                rows = sum(1 for _ in log.rows(start))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rows == log.n - start and peak < 2 ** 20, peak

    def test_min_trials_keeps_one_bit_per_trial(self):
        """On a log built beforehand, min_trials allocates its packed
        membership, n / 8 bytes, and chunks of fixed size."""
        n = 2 ** 20 + 1
        trace = run_ensemble(TRUTH, TARGET, n, seed=1).trace()
        tracemalloc.start()
        try:
            min_trials(trace, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n / 8 + 2 ** 20

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_estimate_process_peak_barely_grows_with_trials(self, tmp_path):
        """A fresh ``oplab.cli estimate`` process at 2**22 trials peaks less
        than 16 MiB above one at 2**14; 16 bytes per trial would add 64 MiB.

        A small launcher forks the command, because Linux charges a child's
        ru_maxrss with the resident size of the process that forked it."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        peaks = {}
        for trials in (2 ** 14, 2 ** 22):
            config = tmp_path / f"estimate_{trials}.json"
            config.write_text(json.dumps({
                "kind": "estimate", "seed": 1,
                "inputs": {"truth": {"atoms": [["0", "7/10"], ["1", "3/10"]]},
                           "target": {"singletons": ["1"]}, "trials": trials},
            }), encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "-c", _MAXRSS_OF, sys.executable, "-m", "oplab.cli", "estimate",
                 "--config", str(config), "--out", str(tmp_path / str(trials))],
                env=env, capture_output=True, text=True, timeout=120)
            code, peaks[trials] = map(int, done.stdout.split())
            assert code == 0, done.stderr
        # ru_maxrss is in KiB on Linux, bytes on macOS.
        unit = 1 if sys.platform == "darwin" else 1024
        assert (peaks[2 ** 22] - peaks[2 ** 14]) * unit < 16 * 2 ** 20, peaks

"""Seeded measurement ensembles and frequency-to-probability estimation.

Trials are generated by a counter-based generator keyed by (seed, index), so
the log for n trials extends the log for m < n trials without recomputation:
adding a copy to the ensemble never rewrites history.  All estimators are
pure functions of the recorded trace; limits are never asserted from finite
data, only diagnosed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, HorizonExceeded, NotProbability, TooShort
from .measures import RATIONAL, BorelSet, DiscreteMeasure, to_scalar

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WORD = 2 ** 64

# Largest ensemble run_ensemble allocates; its 64-bit generator words alone
# take 800 MB at this size.
MAX_TRIALS = 10 ** 8


def _mix64(state: np.ndarray) -> np.ndarray:
    z = state.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def counter_words(seed: int, start: int, count: int) -> np.ndarray:
    """The raw 64-bit words of the (seed, index) generator for indices
    start .. start+count-1 (1-based trial indices)."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    base = np.uint64(seed % _WORD)
    return _mix64(base + idx * _GOLDEN)


@dataclass(frozen=True)
class TrialLog:
    """Bit sequence of successes for one simulated ensemble."""

    seed: int
    truth: DiscreteMeasure
    target: BorelSet
    outcomes: np.ndarray
    success_probability: Fraction

    def __post_init__(self):
        object.__setattr__(self, "outcomes", np.asarray(self.outcomes, dtype=np.uint8))

    @property
    def n(self) -> int:
        return int(self.outcomes.size)

    @property
    def successes(self) -> np.ndarray:
        """Running success count, one entry per trial."""
        return np.cumsum(self.outcomes, dtype=np.int64)

    def prefix(self, m: int) -> "TrialLog":
        """The log of the first m trials; identical to a fresh run of size m."""
        if not 1 <= m <= self.n:
            raise ValueError(f"prefix length {m} outside 1..{self.n}")
        return TrialLog(self.seed, self.truth, self.target,
                        self.outcomes[:m], self.success_probability)

    def trace(self) -> "FrequencyTrace":
        counts = self.successes
        f = counts / np.arange(1, self.n + 1, dtype=np.float64)
        return FrequencyTrace(f)

    def rows(self):
        """CSV rows (i, X_i, xi_i, f_i, w_i)."""
        counts = self.successes
        idx = np.arange(1, self.n + 1, dtype=np.int64)
        f = counts / idx
        w = np.cumsum(f) / idx
        for i in range(self.n):
            yield (int(idx[i]), int(self.outcomes[i]), int(counts[i]),
                   float(f[i]), float(w[i]))


def run_ensemble(truth: DiscreteMeasure, target: BorelSet, n: int, seed: int) -> TrialLog:
    """Simulate n yes/no trials of the event ``outcome in target``.

    Success is decided by an exact integer threshold comparison on the raw
    generator words, so rational-mode truth probabilities are honored without
    rounding.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if n > MAX_TRIALS:
        raise CapacityError(f"{n} trials exceed MAX_TRIALS = {MAX_TRIALS}")
    if not truth.is_probability():
        raise NotProbability("truth measure must be a probability")
    p = truth.measure_of(target)
    p_exact = to_scalar(p, RATIONAL)
    threshold = (p_exact.numerator * _WORD) // p_exact.denominator
    words = counter_words(seed, 1, n)
    if threshold >= _WORD:
        outcomes = np.ones(n, dtype=np.uint8)
    elif threshold <= 0:
        outcomes = np.zeros(n, dtype=np.uint8)
    else:
        outcomes = (words < np.uint64(threshold)).astype(np.uint8)
    return TrialLog(seed=seed, truth=truth, target=target,
                    outcomes=outcomes, success_probability=p_exact)


class FrequencyTrace:
    """The sequence f_n of relative frequencies and its running average w_n.

    Frequencies must lie in [0, 1].  Traces built from a TrialLog also
    satisfy the success-count monotonicity (n+1) f_{n+1} >= n f_n; synthetic
    traces may not, which `is_count_monotone` reports.
    """

    __slots__ = ("f", "w")

    def __init__(self, frequencies: Sequence[float]):
        f = np.asarray(frequencies, dtype=np.float64)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequency trace must be a nonempty vector")
        if np.any(f < -1e-12) or np.any(f > 1 + 1e-12):
            raise ValueError("frequencies outside [0, 1]")
        self.f = np.clip(f, 0.0, 1.0)
        idx = np.arange(1, f.size + 1, dtype=np.float64)
        self.w = np.cumsum(self.f) / idx

    @property
    def n(self) -> int:
        return int(self.f.size)

    def is_count_monotone(self, tol: float = 1e-9) -> bool:
        idx = np.arange(1, self.n + 1, dtype=np.float64)
        counts = self.f * idx
        return bool(np.all(np.diff(counts) >= -tol))

    def __len__(self) -> int:
        return self.n


# ---------------------------------------------------------------------------
# Natural density
# ---------------------------------------------------------------------------


def _sieve_primes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


class NaturalSubset:
    """A subset of 1..horizon given explicitly or by a named rule."""

    RULES = ("squares", "primes", "evens", "odds")

    __slots__ = ("horizon", "flags", "label")

    def __init__(self, horizon: int, members: Optional[Sequence[int]] = None,
                 rule: Optional[str] = None, progression: Optional[Tuple[int, int]] = None):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        picked = sum(x is not None for x in (members, rule, progression))
        if picked != 1:
            raise ValueError("give exactly one of members, rule, progression")
        flags = np.zeros(horizon + 1, dtype=bool)
        if members is not None:
            arr = np.asarray(list(members), dtype=np.int64)
            if arr.size and (arr.min() < 1 or arr.max() > horizon):
                raise ValueError("members outside 1..horizon")
            flags[arr] = True
            label = "explicit"
        elif rule is not None:
            if rule == "squares":
                roots = np.arange(1, int(math.isqrt(horizon)) + 1, dtype=np.int64)
                flags[roots * roots] = True
            elif rule == "primes":
                flags = _sieve_primes(horizon)
            elif rule == "evens":
                flags[2::2] = True
            elif rule == "odds":
                flags[1::2] = True
            else:
                raise ValueError(f"unknown rule {rule!r}; known: {self.RULES}")
            label = rule
        else:
            start, step = progression
            if start < 1 or step < 1:
                raise ValueError("progression needs start >= 1 and step >= 1")
            flags[start::step] = True
            label = f"progression({start},{step})"
        flags[0] = False
        self.horizon = horizon
        self.flags = flags
        self.label = label

    def count_upto(self, n: int) -> int:
        if n > self.horizon:
            raise HorizonExceeded(f"{n} beyond horizon {self.horizon}")
        return int(np.count_nonzero(self.flags[1 : n + 1]))

    def indicator(self, n: int) -> np.ndarray:
        """0/1 vector over 1..n."""
        if n > self.horizon:
            raise HorizonExceeded(f"{n} beyond horizon {self.horizon}")
        return self.flags[1 : n + 1].astype(np.float64)


def _checkpoints(n: int) -> Tuple[int, ...]:
    """Nine deterministic checkpoints spanning n/2 .. n."""
    points = sorted({max(1, (n * j) // 16) for j in range(8, 17)})
    return tuple(points)


@dataclass(frozen=True)
class DensityReport:
    horizon: int
    count: int
    density: Fraction
    upper_estimate: Fraction
    lower_estimate: Fraction
    checkpoints: tuple


def natural_density(subset: NaturalSubset, n: int) -> DensityReport:
    """Counting density at n plus max/min over trailing checkpoints as
    upper/lower density estimates."""
    count = subset.count_upto(n)
    values = []
    for k in _checkpoints(n):
        values.append((k, Fraction(subset.count_upto(k), k)))
    densities = [d for _, d in values]
    return DensityReport(
        horizon=n,
        count=count,
        density=Fraction(count, n),
        upper_estimate=max(densities),
        lower_estimate=min(densities),
        checkpoints=tuple(values),
    )


# ---------------------------------------------------------------------------
# Cesaro convergence diagnostics
# ---------------------------------------------------------------------------

DEFAULT_ALPHA_GRID = (0.5, 0.25, 0.1, 0.05, 0.01)
CONVERGENT = "convergent-in-density"
NOT_CONVERGENT = "not-convergent"


@dataclass(frozen=True)
class CesaroReport:
    horizon: int
    cesaro_mean: float
    exceedance_densities: tuple
    """Pairs (alpha, density of {k : x_k > alpha} at the horizon)."""
    cesaro_checkpoints: tuple
    verdict: str
    epsilon_report: float
    delta_report: float


def kvn_equivalence(
    x: Sequence[float],
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    epsilon_report: float = 1e-2,
    delta_report: float = 1e-2,
) -> CesaroReport:
    """Diagnose Cesaro convergence to zero of a bounded nonnegative sequence.

    Convergence in density, vanishing exceedance densities and vanishing
    Cesaro means are equivalent in the limit; at a finite horizon the two
    computable diagnostics are reported side by side and the verdict is
    claimed only when both fall below their thresholds.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sequence must be a nonempty vector")
    if np.any(arr < -1e-12):
        raise ValueError("sequence must be nonnegative")
    arr = np.clip(arr, 0.0, None)
    n = arr.size
    csum = np.cumsum(arr)
    cesaro = float(csum[-1] / n)
    exceed = []
    for alpha in alpha_grid:
        density = float(np.count_nonzero(arr > alpha) / n)
        exceed.append((float(alpha), density))
    checkpoints = tuple(
        (k, float(csum[k - 1] / k)) for k in _checkpoints(n)
    )
    ok = cesaro < epsilon_report and all(d < delta_report for _, d in exceed)
    return CesaroReport(
        horizon=n,
        cesaro_mean=cesaro,
        exceedance_densities=tuple(exceed),
        cesaro_checkpoints=checkpoints,
        verdict=CONVERGENT if ok else NOT_CONVERGENT,
        epsilon_report=epsilon_report,
        delta_report=delta_report,
    )


# ---------------------------------------------------------------------------
# Probability estimation
# ---------------------------------------------------------------------------


def _default_probes(support: Sequence[float]):
    probes = []
    for t in sorted(support):
        probes.append((f"cdf_at_{t:g}", lambda s, t=t: 1.0 if s <= t else 0.0))
    probes.append(("identity", lambda s: s))
    probes.append(("square", lambda s: s * s))
    return probes


@dataclass(frozen=True)
class EstimateReport:
    p_hat: float
    horizon: int
    cesaro_diagnostics: CesaroReport
    weak_star_gaps: tuple
    count_monotone: bool


def estimate_probability(
    trace: FrequencyTrace,
    probes: Optional[Sequence] = None,
    min_length: int = 100,
) -> EstimateReport:
    """Estimate the limiting probability of a frequency trace.

    The estimate is the running average w_n at the horizon.  Diagnostics:
    the Cesaro analysis of |f_k - p_hat| (which must converge to zero in
    density for the estimate to deserve trust) and the gaps between the
    averaged stage measures and the estimated two-point measure on a probe
    function family.
    """
    if trace.n < min_length:
        raise TooShort(f"trace length {trace.n} < {min_length}")
    p_hat = float(trace.w[-1])
    kvn = kvn_equivalence(np.abs(trace.f - p_hat))
    # Stage k puts mass f_k at outcome 1 and 1 - f_k at outcome 0.
    if probes is None:
        probes = _default_probes((0.0, 1.0))
    w_bar = float(np.mean(trace.f))
    gaps = []
    for name, fn in probes:
        averaged = (1.0 - w_bar) * fn(0.0) + w_bar * fn(1.0)
        estimated = (1.0 - p_hat) * fn(0.0) + p_hat * fn(1.0)
        gaps.append((name, abs(averaged - estimated)))
    return EstimateReport(
        p_hat=p_hat,
        horizon=trace.n,
        cesaro_diagnostics=kvn,
        weak_star_gaps=tuple(gaps),
        count_monotone=trace.is_count_monotone(),
    )


@dataclass(frozen=True)
class PlaceSelectionReport:
    full_frequency: float
    selected_frequency: float
    gap: float
    two_sigma: float
    consistent: bool


def place_selection_check(log: TrialLog) -> PlaceSelectionReport:
    """Pragmatic randomness spot check, not a randomness proof.

    The subsequence at even trial indices must show the same final frequency
    as the full log within two binomial standard deviations; a selection rule
    that ignores outcomes should not change the statistics.
    """
    if log.n < 4:
        raise TooShort("need at least four trials")
    full = float(log.successes[-1] / log.n)
    evens = log.outcomes[1::2]
    selected = float(np.mean(evens))
    p = float(log.success_probability)
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / evens.size)
    gap = abs(selected - full)
    return PlaceSelectionReport(
        full_frequency=full,
        selected_frequency=selected,
        gap=gap,
        two_sigma=2.0 * sigma,
        consistent=gap <= 2.0 * sigma,
    )


@dataclass(frozen=True)
class MinTrialsReport:
    alpha: float
    membership: np.ndarray
    """membership[m-1] says whether index m passed the stabilization test."""
    first_candidate: Optional[int]
    first_success_index: Optional[int]
    lower_bound_at_horizon: float
    bound_holds: bool


def min_trials(trace: FrequencyTrace, alpha: float) -> MinTrialsReport:
    """Stabilization diagnostics for the running average.

    Index m >= 2 is a member when |f_m - w_{m-1}| / m < 2 alpha; the first
    index has no previous average to move away from and is counted as a
    member.  The smallest member is the candidate for the number of trials
    needed at accuracy alpha.  The report also evaluates the harmonic lower
    bound on w_n seeded by the first success and checks it against the
    recorded trace.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = trace.n
    membership = np.ones(n, dtype=bool)
    if n > 1:
        m = np.arange(2, n + 1, dtype=np.float64)
        gaps = np.abs(trace.f[1:] - trace.w[:-1]) / m
        membership[1:] = gaps < 2.0 * alpha
    first_candidate = int(np.argmax(membership)) + 1 if membership.any() else None

    positive = np.nonzero(trace.f > 0)[0]
    if positive.size == 0:
        first_success = None
        bound = 0.0
        holds = bool(np.all(trace.w >= -1e-12))
    else:
        first_success = int(positive[0]) + 1
        f_at = float(trace.f[first_success - 1])
        harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))
        idx = np.arange(1, n + 1, dtype=np.float64)
        counts = np.minimum(np.arange(1, n + 1) - first_success, n).clip(0)
        bounds = f_at * harmonic[counts] / idx
        bound = float(bounds[-1])
        holds = bool(np.all(trace.w + 1e-12 >= bounds))
    return MinTrialsReport(
        alpha=float(alpha),
        membership=membership,
        first_candidate=first_candidate,
        first_success_index=first_success,
        lower_bound_at_horizon=bound,
        bound_holds=holds,
    )

"""Seeded measurement ensembles and frequency-to-probability estimation.

Trials are generated by a counter-based generator keyed by (seed, index), so
the log for n trials extends the log for m < n trials without recomputation:
adding a copy to the ensemble never rewrites history.  All estimators are
pure functions of the recorded trace; limits are never asserted from finite
data, only diagnosed.  Generation and every reduction run over fixed chunks
of CHUNK trials with their running sums carried from chunk to chunk, so the
only arrays as long as the ensemble are the public ones, and every value
equals the whole-vector computation bit for bit.
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

# Largest ensemble run_ensemble allocates.  Generation and every reduction
# work in chunks of CHUNK trials, so an estimate keeps about 18 bytes per
# trial: the outcomes (1), f and w (8 each) and the min_trials membership (1).
MAX_TRIALS = 10 ** 8
CHUNK = 1 << 16


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


def _chunks(start: int, stop: int):
    """Consecutive half-open ranges [s, e) of at most CHUNK indices covering
    start .. stop-1."""
    for s in range(start, stop, CHUNK):
        yield s, min(s + CHUNK, stop)


def _cumsum_into(part: np.ndarray, carry):
    """Replace ``part`` by its running sum continued from ``carry`` (None for
    the first chunk) and return the carry for the next chunk.

    The carry enters through the first element, so chunked float sums equal
    one sequential ``np.cumsum`` over the whole vector bit for bit; adding it
    to the chunk's sums afterwards rounds differently.
    """
    if carry is not None:
        part[0] += carry
    np.cumsum(part, out=part)
    return part[-1]


def _running_mean(x: np.ndarray) -> np.ndarray:
    """w_k = (x_1 + ... + x_k) / k for k = 1 .. x.size."""
    w = np.empty_like(x)
    total = None
    for s, e in _chunks(0, x.size):
        part = w[s:e]
        part[...] = x[s:e]
        total = _cumsum_into(part, total)
        part /= np.arange(s + 1, e + 1, dtype=np.float64)
    return w


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

    def _count_chunks(self):
        """The running success counts as (s, e, counts[s:e]), chunk by chunk."""
        total = None
        for s, e in _chunks(0, self.n):
            counts = self.outcomes[s:e].astype(np.int64)
            total = _cumsum_into(counts, total)
            yield s, e, counts

    def trace(self) -> "FrequencyTrace":
        f = np.empty(self.n, dtype=np.float64)
        for s, e, counts in self._count_chunks():
            np.divide(counts, np.arange(s + 1, e + 1, dtype=np.float64), out=f[s:e])
        return FrequencyTrace._adopt(f)

    def rows(self, start: int = 0, stop: Optional[int] = None):
        """CSV rows (i, X_i, xi_i, f_i, w_i), the range [start, stop) of all
        n rows with slice semantics.

        The running sums still run from the first trial, so each row equals
        the same row of ``rows()`` bit for bit; tuples are built only for the
        rows yielded.
        """
        start, stop, _ = slice(start, stop).indices(self.n)
        total = None
        for s, e, counts in self._count_chunks():
            if s >= stop:
                return
            idx = np.arange(s + 1, e + 1, dtype=np.int64)
            f = counts / idx
            w = f.copy()
            total = _cumsum_into(w, total)
            if e <= start:
                continue
            w /= idx
            a, b = max(start - s, 0), min(stop, e) - s
            yield from zip(idx[a:b].tolist(), self.outcomes[s + a:s + b].tolist(),
                           counts[a:b].tolist(), f[a:b].tolist(), w[a:b].tolist())


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
    if threshold >= _WORD:
        outcomes = np.ones(n, dtype=np.uint8)
    elif threshold <= 0:
        outcomes = np.zeros(n, dtype=np.uint8)
    else:
        outcomes = np.empty(n, dtype=np.uint8)
        cut = np.uint64(threshold)
        for s, e in _chunks(0, n):
            np.less(counter_words(seed, s + 1, e - s), cut, out=outcomes[s:e])
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
        self._own(np.array(frequencies, dtype=np.float64))

    @classmethod
    def _adopt(cls, f: np.ndarray) -> "FrequencyTrace":
        """A trace that takes over the fresh float64 vector ``f`` without a copy."""
        trace = cls.__new__(cls)
        trace._own(f)
        return trace

    def _own(self, f: np.ndarray) -> None:
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequency trace must be a nonempty vector")
        # fmin/fmax skip NaN, as the elementwise comparisons they replace do.
        lo, hi = np.fmin.reduce(f), np.fmax.reduce(f)
        if lo < -1e-12 or hi > 1 + 1e-12:
            raise ValueError("frequencies outside [0, 1]")
        if lo < 0.0 or hi > 1.0:
            np.clip(f, 0.0, 1.0, out=f)
        self.f = f
        self.w = _running_mean(f)

    @property
    def n(self) -> int:
        return int(self.f.size)

    def is_count_monotone(self, tol: float = 1e-9) -> bool:
        for s, e in _chunks(0, self.n):
            lo = max(s - 1, 0)
            counts = self.f[lo:e] * np.arange(lo + 1, e + 1, dtype=np.float64)
            if not np.all(np.diff(counts) >= -tol):
                return False
        return True

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
_REPORT_LEVEL = 1e-2
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
    epsilon_report: float = _REPORT_LEVEL,
    delta_report: float = _REPORT_LEVEL,
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
    return _cesaro_scan((arr[s:e] for s, e in _chunks(0, arr.size)), arr.size,
                        alpha_grid, epsilon_report, delta_report)


def _cesaro_scan(chunks, n: int, alpha_grid, epsilon_report, delta_report) -> CesaroReport:
    """kvn_equivalence over a sequence of length n given as consecutive chunks.

    Exceedance counts and checkpoint sums are collected chunk by chunk; the
    Cesaro mean is the final carry of the running sum over n.
    """
    alphas = tuple(alpha_grid)
    checkpoints = _checkpoints(n)
    exceed = [0] * len(alphas)
    sums = []
    total = None
    s = 0
    for chunk in chunks:
        if np.any(chunk < -1e-12):
            raise ValueError("sequence must be nonnegative")
        part = np.clip(chunk, 0.0, None)
        for j, alpha in enumerate(alphas):
            exceed[j] += np.count_nonzero(part > alpha)
        total = _cumsum_into(part, total)
        e = s + part.size
        sums.extend(part[k - 1 - s] for k in checkpoints if s < k <= e)
        s = e
    cesaro = float(total / n)
    densities = tuple((float(alpha), float(count / n)) for alpha, count in zip(alphas, exceed))
    ok = cesaro < epsilon_report and all(d < delta_report for _, d in densities)
    return CesaroReport(
        horizon=n,
        cesaro_mean=cesaro,
        exceedance_densities=densities,
        cesaro_checkpoints=tuple((k, float(c / k)) for k, c in zip(checkpoints, sums)),
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
    f = trace.f
    kvn = _cesaro_scan((np.abs(f[s:e] - p_hat) for s, e in _chunks(0, trace.n)), trace.n,
                       DEFAULT_ALPHA_GRID, _REPORT_LEVEL, _REPORT_LEVEL)
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
    full = float(log.outcomes.sum(dtype=np.int64) / log.n)
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


def _first_positive(x: np.ndarray) -> Optional[int]:
    """1-based index of the first entry of x above zero, or None."""
    for s, e in _chunks(0, x.size):
        hit = x[s:e] > 0
        if hit.any():
            return s + int(np.argmax(hit)) + 1
    return None


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
    n, f, w = trace.n, trace.f, trace.w
    membership = np.ones(n, dtype=bool)
    for s, e in _chunks(1, n):
        gaps = np.abs(f[s:e] - w[s - 1:e - 1]) / np.arange(s + 1, e + 1, dtype=np.float64)
        np.less(gaps, 2.0 * alpha, out=membership[s:e])
    first_candidate = int(np.argmax(membership)) + 1 if membership.any() else None

    first_success = _first_positive(f)
    if first_success is None:
        bound = 0.0
        # min propagates NaN, so this is False exactly when np.all(w >= -1e-12) is.
        holds = bool(w.min() >= -1e-12)
    else:
        # Bound at index m: f_at * H(m - first_success) / m, with H(0) = 0 up to
        # the first success and the harmonic sum H streamed after it.
        f_at = float(f[first_success - 1])
        holds = bool(w[:first_success].min() + 1e-12 >= 0.0)
        harmonic = 0.0
        for s, e in _chunks(first_success, n):
            terms = 1.0 / np.arange(s + 1 - first_success, e + 1 - first_success)
            harmonic = _cumsum_into(terms, harmonic)
            bounds = f_at * terms / np.arange(s + 1, e + 1, dtype=np.float64)
            holds = holds and bool(np.all(w[s:e] + 1e-12 >= bounds))
        bound = float(f_at * harmonic / n)
    return MinTrialsReport(
        alpha=float(alpha),
        membership=membership,
        first_candidate=first_candidate,
        first_success_index=first_success,
        lower_bound_at_horizon=bound,
        bound_holds=holds,
    )

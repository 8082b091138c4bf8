"""Seeded measurement ensembles and frequency-to-probability estimation.

Trials are generated by a counter-based generator keyed by (seed, index), so
the log for n trials extends the log for m < n trials without recomputation:
adding a copy to the ensemble never rewrites history.  All estimators are
pure functions of the recorded trace; limits are never asserted from finite
data, only diagnosed.  Generation and every reduction run over chunks with
their running sums carried from chunk to chunk, so an estimate keeps about 2
bytes per trial (the outcomes and the ``min_trials`` membership), and every
value equals the whole-vector computation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import _np as np
from .errors import CapacityError, HorizonExceeded, NotProbability, TooShort
from .measures import RATIONAL, BorelSet, DiscreteMeasure, to_scalar

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_WORD = 2 ** 64

# Largest ensemble run_ensemble allocates.  Generation works in steps of STEP
# trials and the estimators in pieces of at most PIECE, so an estimate keeps
# about 2 bytes per trial: the outcomes and the min_trials membership.
MAX_TRIALS = 10 ** 8
# Most entries of one piece of the frequency stream.  A piece of float64 is at
# most 128 KiB, glibc malloc's initial mmap threshold, so its temporaries are
# reused from the heap instead of being mapped and faulted in afresh.  At 4e6
# trials (2-core VM, Python 3.11, numpy 2.4) an estimate took about 1 100 page
# faults at 1 << 14, against 15 000 at 1 << 15 and 37 000 at 1 << 16, and its
# reductions took 0.25 s at 1 << 14 against 0.27 s at 1 << 13.
PIECE = 1 << 14
# Trials run_ensemble generates, and entries kvn_equivalence scans, at a time.
# Generation makes several uint64 temporaries per step, and freed together
# they would let glibc trim the heap and fault them in afresh on the next
# step.  At 4e6 trials (same machine, 5 fresh processes) run_ensemble took
# 1 045 minor page faults and 0.027-0.035 s at 1 << 13, against 32 229 and
# 0.064-0.096 s at 1 << 14, 15 101 and 0.056-0.062 s at 1 << 16, and 1 005
# and 0.037-0.050 s at 1 << 12.  Every step edge is also a PIECE edge.
STEP = PIECE // 2
# Rounding slack of float frequencies and running averages: how far they may
# stray below 0 or above 1, and below the harmonic lower bound.
FREQUENCY_TOL = 1e-12
# Smallest binomial variance p(1 - p) the place-selection check divides by.
VARIANCE_FLOOR = 1e-12
COUNT_MONOTONE_TOL = 1e-9


def _mix64(state: np.ndarray) -> np.ndarray:
    z = state.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def counter_words(seed: int, start: int, count: int) -> np.ndarray:
    """The raw 64-bit words of the (seed, index) generator for indices
    start .. start+count-1 (1-based trial indices)."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    base = np.uint64(seed % _WORD)
    return _mix64(base + idx * np.uint64(_GOLDEN))


def _chunks(n: int, size: int = STEP):
    """Consecutive half-open ranges [s, e) of at most ``size`` indices
    covering 0 .. n-1."""
    for s in range(0, n, size):
        yield s, min(s + size, n)


def _cumsum_into(part: np.ndarray, carry):
    """Replace ``part`` by its running sum continued from ``carry`` (None for
    the first chunk) and return the carry for the next chunk.

    The carry enters through the first element, so chunked float sums equal
    one sequential ``np.cumsum`` over the whole vector bit for bit; adding it
    to the chunk's sums afterwards rounds differently.
    """
    if carry is not None:
        part[0] += carry
    part.cumsum(out=part)
    return part[-1]


def _frequency_chunks(n: int, outcomes=None, frequencies=None, averages: bool = True):
    """The relative frequencies f and their running averages w, chunk by
    chunk: (s, e, idx, counts, f, w) for consecutive ranges [s, e) covering
    0 .. n-1, with ``idx`` the 1-based indices s+1 .. e as floats.

    The sequence is given by its 0/1 ``outcomes``, whose running success
    counts are ``counts``, or by its ``frequencies`` (``counts`` is then
    None).  The success count and the running sum are carried from chunk to
    chunk; without ``averages``, w is None and costs nothing.  The chunks
    hold PIECE entries each, the last one the rest.
    """
    count = running = None
    for s, e in _chunks(n, PIECE):
        idx = np.arange(s + 1, e + 1, dtype=np.float64)
        if outcomes is None:
            counts, f = None, frequencies[s:e]
        else:
            counts = outcomes[s:e].astype(np.int64)
            count = _cumsum_into(counts, count)
            f = counts / idx
        w = None
        if averages:
            w = f.copy()
            running = _cumsum_into(w, running)
            w /= idx
        yield s, e, idx, counts, f, w


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
        """The frequency trace of the log, backed by its outcomes."""
        return FrequencyTrace._of_outcomes(self.outcomes)

    def rows(self, start: int = 0, stop: Optional[int] = None):
        """CSV rows (i, X_i, xi_i, f_i, w_i), the range [start, stop) of all
        n rows with slice semantics.

        The running sums still run from the first trial, so each row equals
        the same row of ``rows()`` bit for bit; tuples are built only for the
        rows yielded, one piece at a time.
        """
        start, stop, _ = slice(start, stop).indices(self.n)
        for s, e, _, counts, f, w in _frequency_chunks(self.n, outcomes=self.outcomes):
            if s >= stop:
                return
            a, b = max(start, s), min(stop, e)
            part = slice(a - s, b - s)
            yield from zip(range(a + 1, b + 1), self.outcomes[a:b].tolist(),
                           counts[part].tolist(), f[part].tolist(), w[part].tolist())


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
        for s, e in _chunks(n):
            np.less(counter_words(seed, s + 1, e - s), cut, out=outcomes[s:e])
    return TrialLog(seed=seed, truth=truth, target=target,
                    outcomes=outcomes, success_probability=p_exact)


class FrequencyTrace:
    """The sequence f_n of relative frequencies and its running average w_n.

    Frequencies must lie in [0, 1].  A trace from ``TrialLog.trace`` is backed
    by the log's outcomes, and the estimators stream f and w from them; the
    vectors ``f`` and ``w`` are built on first access and then kept.  Traces
    built from a TrialLog also satisfy the success-count monotonicity
    (n+1) f_{n+1} >= n f_n; synthetic traces may not, which
    `is_count_monotone` reports.
    """

    __slots__ = ("n", "_outcomes", "_f", "_w")

    def __init__(self, frequencies: Sequence[float]):
        f = np.array(frequencies, dtype=np.float64)
        self._back(f.size if f.ndim == 1 else 0, None, f)
        # fmin/fmax skip NaN, as the elementwise comparisons they replace do.
        lo, hi = np.fmin.reduce(f), np.fmax.reduce(f)
        if lo < -FREQUENCY_TOL or hi > 1 + FREQUENCY_TOL:
            raise ValueError("frequencies outside [0, 1]")
        if lo < 0.0 or hi > 1.0:
            np.clip(f, 0.0, 1.0, out=f)

    @classmethod
    def _of_outcomes(cls, outcomes: np.ndarray) -> "FrequencyTrace":
        """The trace of the 0/1 ``outcomes``, which it reads without a copy."""
        trace = cls.__new__(cls)
        trace._back(outcomes.size, outcomes, None)
        return trace

    def _back(self, n: int, outcomes, f) -> None:
        if n == 0:
            raise ValueError("frequency trace must be a nonempty vector")
        self.n, self._outcomes, self._f, self._w = int(n), outcomes, f, None

    def _chunks(self, averages: bool = True):
        """(s, e, idx, counts, f, w) chunk by chunk; see ``_frequency_chunks``."""
        return _frequency_chunks(self.n, self._outcomes, self._f, averages)

    def _gather(self, k: int) -> np.ndarray:
        """Field k (4 for f, 5 for w) of every chunk, as one vector."""
        out = np.empty(self.n, dtype=np.float64)
        for chunk in self._chunks(averages=k == 5):
            out[chunk[0]:chunk[1]] = chunk[k]
        return out

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self._f = self._gather(4)
        return self._f

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = self._gather(5)
        return self._w

    def is_count_monotone(self, tol: float = COUNT_MONOTONE_TOL) -> bool:
        """Whether the success counts k f_k never fall by more than ``tol``.
        A trace backed by a log needs no pass, since its counts are running
        sums of 0/1 outcomes; the float products k f_k, which only a synthetic
        trace is checked on, fell by 1.86e-9 on a log of 1.7e7 trials."""
        if self._outcomes is not None:
            return True
        last = 0.0  # no trials, no successes
        for _, _, idx, _, f, _ in self._chunks(averages=False):
            counts = f * idx
            if not (np.diff(counts, prepend=last) >= -tol).all():
                return False
            last = counts[-1]
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

    def clipped():
        for s, e in _chunks(arr.size):
            if np.any(arr[s:e] < -FREQUENCY_TOL):
                raise ValueError("sequence must be nonnegative")
            yield np.clip(arr[s:e], 0.0, None)

    return _cesaro_scan(clipped(), arr.size, alpha_grid, epsilon_report, delta_report)


def _cesaro_scan(chunks, n: int, alpha_grid, epsilon_report, delta_report) -> CesaroReport:
    """kvn_equivalence over a sequence of length n given as consecutive
    chunks, which must be nonnegative and which the scan overwrites.

    Exceedance counts and checkpoint sums are collected chunk by chunk; the
    Cesaro mean is the final carry of the running sum over n.
    """
    alphas = tuple(alpha_grid)
    checkpoints = _checkpoints(n)
    exceed = [0] * len(alphas)
    sums = []
    total = None
    s = 0
    for part in chunks:
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
    function family.  The averaged measure's mass at 1, the mean w_bar of
    f_1 .. f_n, is w_n itself, from the same running sum as p_hat, so every
    gap on a two-point probe is exactly 0.0.

    Two passes over the trace: the first gives p_hat, the second the Cesaro
    scan.  The count monotonicity is `FrequencyTrace.is_count_monotone`,
    which needs no pass on a trace backed by a log.
    """
    n = trace.n
    if n < min_length:
        raise TooShort(f"trace length {n} < {min_length}")
    for _, _, _, _, _, w in trace._chunks():
        pass
    p_hat = w_bar = float(w[-1])  # the last chunk's w ends with w_n
    deviations = (np.abs(f - p_hat) for _, _, _, _, f, _ in trace._chunks(averages=False))
    kvn = _cesaro_scan(deviations, n, DEFAULT_ALPHA_GRID, _REPORT_LEVEL, _REPORT_LEVEL)
    # Stage k puts mass f_k at outcome 1 and 1 - f_k at outcome 0.
    if probes is None:
        probes = _default_probes((0.0, 1.0))
    gaps = []
    for name, fn in probes:
        averaged = (1.0 - w_bar) * fn(0.0) + w_bar * fn(1.0)
        estimated = (1.0 - p_hat) * fn(0.0) + p_hat * fn(1.0)
        gaps.append((name, abs(averaged - estimated)))
    return EstimateReport(
        p_hat=p_hat,
        horizon=n,
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
    sigma = math.sqrt(max(p * (1.0 - p), VARIANCE_FLOOR) / evens.size)
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
    first_candidate: int
    first_success_index: Optional[int]
    lower_bound_at_horizon: float
    bound_holds: bool


def min_trials(trace: FrequencyTrace, alpha: float) -> MinTrialsReport:
    """Stabilization diagnostics for the running average.

    Index m >= 2 is a member when |f_m - w_{m-1}| / m < 2 alpha; the first
    index has no previous average to move away from and is counted as a
    member.  The candidate for the number of trials needed at accuracy alpha
    is the first index from which every later index is a member: the last
    non-member plus one, or 1 when every index is a member.  The report also
    evaluates the harmonic lower bound on w_n seeded by the first success and
    checks it against the recorded trace.  One pass over the trace.
    """
    # Written so that NaN fails it.
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and positive")
    n = trace.n
    membership = np.empty(n, dtype=bool)
    # w_0 does not exist: NaN fails the first gap, which is then set to pass.
    before = np.nan
    first_success = f_at = None
    first_candidate = 1
    holds, harmonic = True, 0.0
    for s, e, idx, _, f, w in trace._chunks():
        previous = np.concatenate(([before], w[:-1]))
        np.less(np.abs(f - previous) / idx, 2.0 * alpha, out=membership[s:e])
        if s == 0:
            membership[0] = True
        missed = np.flatnonzero(~membership[s:e])
        if missed.size:
            first_candidate = s + int(missed[-1]) + 2
        before = w[-1]
        if first_success is None:
            hit = f > 0
            if hit.any():
                first_success = s + int(np.argmax(hit)) + 1
                f_at = float(f[first_success - 1 - s])
        # Bound at index m: f_at * H(m - first_success) / m, with H(0) = 0 up to
        # the first success and the harmonic sum H streamed after it.
        cut = e - s if first_success is None else min(max(first_success - s, 0), e - s)
        if cut:
            # min propagates NaN, so this fails on a NaN as np.all would.
            holds = holds and bool(w[:cut].min() + FREQUENCY_TOL >= 0.0)
        if cut < e - s:
            terms = 1.0 / (idx[cut:] - first_success)
            harmonic = _cumsum_into(terms, harmonic)
            bounds = f_at * terms / idx[cut:]
            holds = holds and bool((w[cut:] + FREQUENCY_TOL >= bounds).all())
    bound = 0.0 if first_success is None else float(f_at * harmonic / n)
    return MinTrialsReport(
        alpha=float(alpha),
        membership=membership,
        first_candidate=first_candidate,
        first_success_index=first_success,
        lower_bound_at_horizon=bound,
        bound_holds=holds,
    )

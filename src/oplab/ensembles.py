"""Seeded measurement ensembles and frequency-to-probability estimation.

Trials are generated by a counter-based generator keyed by (seed, index), so
the log for n trials extends the log for m < n trials without recomputation:
adding a copy to the ensemble never rewrites history.  All estimators are
pure functions of the recorded trace; limits are never asserted from finite
data, only diagnosed.  Generation and every reduction run over chunks with
their running sums carried from chunk to chunk.  An estimate makes two passes
(``min_trials``, then the Cesaro scan), keeps ¼ byte per trial (the packed
outcome bit and the membership bit) and equals the whole-vector computation
bit for bit.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import _np as np
from ._base import record
from .errors import CapacityError, HorizonExceeded, NotProbability, TooShort
from .measures import RATIONAL, BorelSet, DiscreteMeasure, to_scalar

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_WORD = 2 ** 64

# Largest ensemble run_ensemble allocates.  Generation works in steps of STEP
# trials and the estimators in pieces of at most PIECE, so an estimate keeps
# ¼ byte per trial: the packed outcomes and the min_trials membership bits.
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
# and 0.037-0.050 s at 1 << 12.  Every step edge is also a PIECE edge, and
# both are multiples of 8, so each step and piece but the last fills whole
# bytes of a packed log.
STEP = PIECE // 2
# Most rows TrialLog.rows turns into Python objects at a time: four lists of a
# whole piece's objects take about 2.5 MB.
ROW_BATCH = 1024
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


def _unpack(bits: np.ndarray, s: int, e: int) -> np.ndarray:
    """Outcomes s .. e-1 of the packed ``bits`` as a 0/1 uint8 array; ``s``
    is a multiple of 8."""
    return np.unpackbits(bits[s // 8:-(-e // 8)], count=e - s, bitorder="little")


def _frequency_chunks(n: int, bits=None, frequencies=None, averages: bool = True):
    """The relative frequencies f and their running averages w, chunk by
    chunk: (s, e, idx, f, w) for consecutive ranges [s, e) covering 0 .. n-1,
    with ``idx`` the 1-based indices s+1 .. e as floats.

    The sequence is given by its 0/1 outcomes packed in ``bits``, unpacked
    one chunk at a time, or by its ``frequencies``.  The success count and
    the running sum are carried from chunk to chunk; without ``averages``, w
    is None.  The chunks hold PIECE entries each, the last one the rest, in
    buffers the next chunk overwrites.  A consumer may overwrite w, which
    the next chunk recomputes from its f and the carried running sum.
    """
    count = running = None
    size = min(n, PIECE)
    indices = np.arange(1, size + 1, dtype=np.float64)
    freqs, means = (np.empty(size) if used else None for used in (bits is not None, averages))
    for s, e in _chunks(n, PIECE):
        if s:
            indices += PIECE  # exact: the indices stay below 2**53
        idx = indices[:e - s]
        w = means[:e - s] if averages else None
        if bits is None:
            f = frequencies[s:e]
        else:
            # The success counts, summed as floats: exact below 2**53, so f
            # is the count divided by the index as an int64 count would give.
            f = freqs[:e - s]
            np.copyto(f, _unpack(bits, s, e))
            count = _cumsum_into(f, count)
            f /= idx
        if averages:
            np.copyto(w, f)
            running = _cumsum_into(w, running)
            w /= idx
        yield s, e, idx, f, w


def _packed(given) -> Tuple[np.ndarray, int]:
    """The outcomes ``given``, a 1-D sequence of 0/1, packed one bit per
    trial, and their number; ValueError names the first entry that is not 0
    or 1."""
    try:
        outcomes = np.asarray(given)
    except ValueError:  # a ragged nesting
        raise ValueError("outcomes must be a 1-D sequence of 0/1") from None
    if outcomes.ndim == 0:
        raise ValueError(f"outcomes must be a 1-D sequence of 0/1, not {given!r}")
    if outcomes.ndim > 1:
        raise ValueError("outcomes[0] is a sequence, not 0 or 1")
    ones = outcomes == 1
    bad = np.flatnonzero(~ones & (outcomes != 0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"outcomes[{i}] is {outcomes[i:i + 1].tolist()[0]!r}, not 0 or 1")
    return np.packbits(ones, bitorder="little"), outcomes.size


@record
class TrialLog:
    """Bit sequence of successes for one simulated ensemble.

    The log keeps its outcomes packed, one bit per trial: ⌈n/8⌉ read-only
    bytes, outcome i in bit i % 8 of byte i // 8 as in
    `MinTrialsReport.packed_membership`, with the bits past n zero.  A prefix
    views its log's bytes, so its bits past n are its log's, which nothing
    reads.  ``outcomes`` unpacks a fresh read-only uint8 array on each read.
    """

    seed: int
    truth: DiscreteMeasure
    target: BorelSet
    outcomes: np.ndarray
    success_probability: Fraction

    def __post_init__(self):
        bits, n = _packed(self.__dict__.pop("outcomes"))
        bits.flags.writeable = False
        self.__dict__.update(_bits=bits, n=n)

    @classmethod
    def _of_bits(cls, seed, truth, target, bits: np.ndarray, n: int,
                 success_probability) -> "TrialLog":
        """The log of the n outcomes packed in the read-only ``bits``, which
        it keeps without a copy."""
        log = cls.__new__(cls)
        log.__dict__.update(seed=seed, truth=truth, target=target,
                            success_probability=success_probability, _bits=bits, n=n)
        return log

    @property
    def outcomes(self) -> np.ndarray:
        outcomes = np.unpackbits(self._bits, count=self.n, bitorder="little")
        outcomes.flags.writeable = False
        return outcomes

    def _key(self) -> tuple:
        """The field tuple with the outcomes as n and their packed bytes, the
        bits past n cleared, so that logs compare and hash by value."""
        packed = self._bits.tobytes()
        if self.n % 8:
            packed = packed[:-1] + bytes([packed[-1] & (1 << self.n % 8) - 1])
        return (self.seed, self.truth, self.target, self.n, packed,
                self.success_probability)

    @property
    def successes(self) -> np.ndarray:
        """Running success count, one entry per trial."""
        return np.cumsum(self.outcomes, dtype=np.int64)

    def prefix(self, m: int) -> "TrialLog":
        """The log of the first m trials; identical to a fresh run of size m,
        and a view of this log's bytes."""
        if not 1 <= m <= self.n:
            raise ValueError(f"prefix length {m} outside 1..{self.n}")
        return TrialLog._of_bits(self.seed, self.truth, self.target,
                                 self._bits[:-(-m // 8)], m, self.success_probability)

    def trace(self) -> "FrequencyTrace":
        """The frequency trace of the log, backed by its packed outcomes."""
        return FrequencyTrace._of_bits(self._bits, self.n)

    def rows(self, start: int = 0, stop: Optional[int] = None):
        """CSV rows (i, X_i, xi_i, f_i, w_i), the range [start, stop) of all
        n rows with slice semantics.

        The running sums still run from the first trial, so each row equals
        the same row of ``rows()`` bit for bit; the success counts xi_i are
        summed here as integers, and tuples are built only for the rows
        yielded, at most ROW_BATCH at a time.
        """
        start, stop, _ = slice(start, stop).indices(self.n)
        count = None
        for s, e, _, f, w in _frequency_chunks(self.n, self._bits):
            if s >= stop:
                return
            x = _unpack(self._bits, s, e)
            counts = x.astype(np.int64)
            count = _cumsum_into(counts, count)
            for a in range(max(start, s), min(stop, e), ROW_BATCH):
                b = min(a + ROW_BATCH, stop, e)
                part = slice(a - s, b - s)
                yield from zip(range(a + 1, b + 1), x[part].tolist(), counts[part].tolist(),
                               f[part].tolist(), w[part].tolist())


def run_ensemble(truth: DiscreteMeasure, target: BorelSet, n: int, seed: int) -> TrialLog:
    """Simulate n yes/no trials of the event ``outcome in target``.

    Success is decided by an exact integer threshold comparison on the raw
    generator words, so rational-mode truth probabilities are honored without
    rounding.  Each step of outcomes is packed as it is generated.
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
    size = -(-n // 8)
    if threshold >= _WORD:
        bits = np.full(size, 0xFF, dtype=np.uint8)
        bits[-1] >>= -n % 8
    elif threshold <= 0:
        bits = np.zeros(size, dtype=np.uint8)
    else:
        bits = np.empty(size, dtype=np.uint8)
        cut = np.uint64(threshold)
        for s, e in _chunks(n):
            bits[s // 8:-(-e // 8)] = np.packbits(counter_words(seed, s + 1, e - s) < cut,
                                                  bitorder="little")
    bits.flags.writeable = False
    return TrialLog._of_bits(seed, truth, target, bits, n, p_exact)


class FrequencyTrace:
    """The sequence f_n of relative frequencies and its running average w_n.

    Frequencies must lie in [0, 1].  A trace from ``TrialLog.trace`` is backed
    by the log's packed outcomes, and the estimators stream f and w from them,
    unpacking one piece at a time; the vectors ``f`` and ``w`` are built on
    first access and then kept, and so is w_n once an averaged pass has
    reached the horizon.  Traces built from a TrialLog satisfy
    (n+1) f_{n+1} >= n f_n, the success-count monotonicity; synthetic traces
    may not, which `is_count_monotone` reports.
    """

    __slots__ = ("n", "_bits", "_f", "_w", "_w_n")

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
    def _of_bits(cls, bits: np.ndarray, n: int) -> "FrequencyTrace":
        """The trace of the n 0/1 outcomes packed in ``bits``, which it reads
        without a copy."""
        trace = cls.__new__(cls)
        trace._back(n, bits, None)
        return trace

    def _back(self, n: int, bits, f) -> None:
        if n == 0:
            raise ValueError("frequency trace must be a nonempty vector")
        self.n, self._bits, self._f, self._w, self._w_n = int(n), bits, f, None, None

    def _chunks(self, averages: bool = True):
        """(s, e, idx, f, w) chunk by chunk; see ``_frequency_chunks``."""
        for chunk in _frequency_chunks(self.n, self._bits, self._f, averages):
            if averages and chunk[1] == self.n:
                self._w_n = float(chunk[4][-1])
            yield chunk

    def _gather(self, k: int) -> np.ndarray:
        """Field k (3 for f, 4 for w) of every chunk, as one vector."""
        out = np.empty(self.n, dtype=np.float64)
        for chunk in self._chunks(averages=k == 4):
            out[chunk[0]:chunk[1]] = chunk[k]
        return out

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self._f = self._gather(3)
        return self._f

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = self._gather(4)
        return self._w

    def is_count_monotone(self, tol: float = COUNT_MONOTONE_TOL) -> bool:
        """Whether the success counts k f_k never fall by more than ``tol``.
        A trace backed by a log needs no pass, since its counts are running
        sums of 0/1 outcomes; the float products k f_k, which only a synthetic
        trace is checked on, fell by 1.86e-9 on a log of 1.7e7 trials."""
        if self._bits is not None:
            return True
        last = 0.0  # no trials, no successes
        for _, _, idx, f, _ in self._chunks(averages=False):
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

    def _flags_upto(self, n: int) -> np.ndarray:
        """The membership flags of 1..n, for 1 <= n <= horizon."""
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if n > self.horizon:
            raise HorizonExceeded(f"{n} beyond horizon {self.horizon}")
        return self.flags[1 : n + 1]

    def count_upto(self, n: int) -> int:
        return int(np.count_nonzero(self._flags_upto(n)))

    def indicator(self, n: int) -> np.ndarray:
        """0/1 vector over 1..n."""
        return self._flags_upto(n).astype(np.float64)


def _checkpoints(n: int) -> Tuple[int, ...]:
    """Nine deterministic checkpoints spanning n/2 .. n."""
    points = sorted({max(1, (n * j) // 16) for j in range(8, 17)})
    return tuple(points)


@record
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


@record
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


@record
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

    One pass, the Cesaro scan, after `min_trials` has kept w_n on the trace;
    before, a first pass gives it.  The count monotonicity is
    `FrequencyTrace.is_count_monotone`, no pass on a trace backed by a log.
    """
    n = trace.n
    if n < min_length:
        raise TooShort(f"trace length {n} < {min_length}")
    if trace._w_n is None:
        for _ in trace._chunks():
            pass
    p_hat = w_bar = trace._w_n
    deviations = (np.abs(d, out=d) for d in (
        f - p_hat for _, _, _, f, _ in trace._chunks(averages=False)))
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


@record
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


@record
class MinTrialsReport:
    alpha: float
    horizon: int
    packed_membership: bytes
    """Bit m-1 of the bytes, little-endian within each, is membership[m-1]."""
    first_candidate: int
    first_success_index: Optional[int]
    lower_bound_at_horizon: float
    bound_holds: bool

    @property
    def membership(self) -> np.ndarray:
        """membership[m-1] says whether index m passed the stabilization test."""
        bits = np.frombuffer(self.packed_membership, dtype=np.uint8)
        return np.unpackbits(bits, count=self.horizon, bitorder="little").view(bool)


def min_trials(trace: FrequencyTrace, alpha: float) -> MinTrialsReport:
    """Stabilization diagnostics for the running average.

    Index m >= 2 is a member when |f_m - w_{m-1}| / m < 2 alpha; the first
    index has no previous average to move away from and is counted as a
    member.  The candidate for the number of trials needed at accuracy alpha
    is the first index from which every later index is a member: the last
    non-member plus one, or 1 when every index is a member.  The report also
    evaluates the harmonic lower bound on w_n seeded by the first success and
    checks it against the trace.  One pass, keeping w_n and one bit per index.
    """
    # Written so that NaN fails it.
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and positive")
    n = trace.n
    # The membership bytes are appended piece by piece, and getvalue hands
    # over the buffer they were written to rather than a copy of it.
    packed = io.BytesIO()
    gaps = np.empty(min(n, PIECE))
    # w_0 does not exist: NaN fails the first gap, which is then set to pass.
    before = np.nan
    first_success = f_at = None
    first_candidate = 1
    holds, harmonic = True, 0.0
    for s, e, idx, f, w in trace._chunks():
        gap = gaps[:e - s]
        gap[0], gap[1:] = before, w[:-1]
        np.abs(np.subtract(f, gap, out=gap), out=gap)
        member = np.divide(gap, idx, out=gap) < 2.0 * alpha
        member[0] |= s == 0
        # PIECE is a multiple of 8, so each piece fills whole bytes.
        packed.write(np.packbits(member, bitorder="little"))
        missed = np.flatnonzero(~member)
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
        if cut < e - s:  # the spent gaps' buffer takes the terms, then the bounds
            terms = np.subtract(idx[cut:], first_success, out=gap[cut:])
            harmonic = _cumsum_into(np.divide(1.0, terms, out=terms), harmonic)
            bounds = np.divide(np.multiply(f_at, terms, out=terms), idx[cut:], out=terms)
            slack = np.add(w[cut:], FREQUENCY_TOL, out=w[cut:])  # w is spent
            holds = holds and bool((slack >= bounds).all())
    bound = 0.0 if first_success is None else float(f_at * harmonic / n)
    return MinTrialsReport(
        alpha=float(alpha),
        horizon=n,
        packed_membership=packed.getvalue(),
        first_candidate=first_candidate,
        first_success_index=first_success,
        lower_bound_at_horizon=bound,
        bound_holds=holds,
    )

"""Time-evolved measure families and their dissipation analysis.

Each evolved measure is split against the initial one: the mass that stays
on the initial support is the non-dissipative component, the rest has
escaped.  The split coefficient per time, the kernel transporting functions
along the surviving part, and entropy/affinity diagnostics live here.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

from ._base import record
from .errors import GridMismatch, NoAbsolutelyContinuousPart
from .information import shannon_entropy
from .measures import (
    BorelSet,
    DiscreteMeasure,
    Partition,
    _image,
    lebesgue_decompose,
    measures_close,
    mixture,
    to_scalar,
)

ENTROPY_SLACK = 1e-12
AFFINE_TOL = 1e-12


class EvolutionTrace:
    """Strictly increasing times starting at zero, one probability measure
    per time.  Time continuity is a reported diagnostic, not an enforced
    invariant: the sampling grid cannot certify a modulus."""

    __slots__ = ("times", "measures", "mode")

    def __init__(self, times: Sequence, measures: Sequence[DiscreteMeasure]):
        times = tuple(float(t) for t in times)
        measures = tuple(measures)
        if len(times) != len(measures) or not times:
            raise ValueError("need matching nonempty times and measures")
        if not all(map(math.isfinite, times)):
            raise ValueError("times must be finite")
        if times[0] != 0.0:
            raise ValueError("trace must start at time zero")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        modes = {m.mode for m in measures}
        if len(modes) != 1:
            raise ValueError("measures must share one arithmetic mode")
        for t, m in zip(times, measures):
            if not m.is_probability():
                raise ValueError(f"measure at time {t} is not a probability")
        self.times = times
        self.measures = measures
        self.mode = modes.pop()

    @property
    def initial(self) -> DiscreteMeasure:
        return self.measures[0]

    def at(self, time: float) -> DiscreteMeasure:
        try:
            return self.measures[self.times.index(float(time))]
        except ValueError as exc:
            raise KeyError(f"no measure recorded at time {time}") from exc

    def __len__(self) -> int:
        return len(self.times)

    def continuity_report(
        self,
        sets=None,
        declared_rate: Optional[float] = None,
    ):
        """Observed Lipschitz rate of t -> measure(set) on a set family.

        Defaults to the singletons of the union support.  Returns the
        observed rate and, when a rate was declared, the violating steps.
        """
        if sets is None:
            points = sorted({p for m in self.measures for p in m.support})
            sets = [BorelSet.point(p) for p in points]
        observed = 0.0
        violations = []
        for k in range(len(self.times) - 1):
            dt = self.times[k + 1] - self.times[k]
            for delta in sets:
                jump = abs(
                    float(self.measures[k + 1].measure_of(delta))
                    - float(self.measures[k].measure_of(delta))
                )
                rate = jump / dt
                observed = max(observed, rate)
                if declared_rate is not None and rate > declared_rate:
                    violations.append((self.times[k], self.times[k + 1], delta, rate))
        return ContinuityReport(
            observed_rate=observed,
            declared_rate=declared_rate,
            violations=tuple(violations),
        )


@record
class ContinuityReport:
    observed_rate: float
    declared_rate: Optional[float]
    violations: tuple


@record
class TimeSlice:
    """Dissipation data of one evolved measure against the initial one."""

    time: float
    coefficient: object
    """Mass remaining on the initial support (the dissipation coefficient)."""
    surviving: Optional[DiscreteMeasure]
    """Normalized component carried by the initial support; None when the
    coefficient vanishes."""
    escaped: Optional[DiscreteMeasure]
    """Normalized component disjoint from the initial support; None when
    nothing escaped."""
    kernel: dict
    """Transport density on the initial support: surviving({s}) / initial({s})."""


class DissipationReport:
    """Per-time decomposition of an evolution trace."""

    __slots__ = ("trace", "slices")

    def __init__(self, trace: EvolutionTrace, slices: Tuple[TimeSlice, ...]):
        self.trace = trace
        self.slices = slices

    def at(self, time: float) -> TimeSlice:
        for entry in self.slices:
            if entry.time == float(time):
                return entry
        raise KeyError(f"no slice at time {time}")

    def coefficients(self):
        return tuple((entry.time, entry.coefficient) for entry in self.slices)

    def rows(self, partition: Partition):
        """CSV rows (t, coefficient, entropy at t, escaped mass)."""
        for t, measure, entry in zip(self.trace.times, self.trace.measures, self.slices):
            bits = shannon_entropy(measure, partition).bits
            yield (t, entry.coefficient, bits, 1 - entry.coefficient)


def decompose_evolution(trace: EvolutionTrace) -> DissipationReport:
    """Split every evolved measure against the initial one.

    The coefficient at time t is the mass still carried by the initial
    support; reconstruction ``coef * surviving + (1 - coef) * escaped``
    returns the evolved measure atom by atom (exactly in rational mode).
    """
    initial = trace.initial
    slices = []
    for t, measure in zip(trace.times, trace.measures):
        dec = lebesgue_decompose(measure, initial)
        chi = dec.continuous_mass
        # Decided by atoms, not by chi: a float mass of 1 + rounding makes
        # chi != 1 although nothing escaped.
        surviving = dec.normalized_continuous() if dec.absolutely_continuous.atoms else None
        escaped = dec.normalized_singular() if dec.singular.atoms else None
        kernel = {}
        if surviving is not None:
            for s, w in initial.atoms:
                kernel[s] = surviving.weight_at(s) / w
        slices.append(TimeSlice(
            time=t, coefficient=chi, surviving=surviving,
            escaped=escaped, kernel=kernel,
        ))
    return DissipationReport(trace, tuple(slices))


def koopman_apply(report: DissipationReport, f: Callable, time: float):
    """Transport a function along the non-dissipative component.

    Integrates f against the kernel row and the initial measure; positive
    functions transport to positive values, and the constant one transports
    to one.  A call of ``f`` that raises, or a value that is not a scalar,
    raises DomainError, as in `DiscreteMeasure.pushforward`.
    """
    entry = report.at(time)
    if entry.surviving is None:
        raise NoAbsolutelyContinuousPart(f"no surviving mass at time {time}")
    initial = report.trace.initial
    mode = initial.mode
    total = to_scalar(0, mode)
    for s, w in initial.atoms:
        total += _image(f, (s,), s, mode) * entry.kernel[s] * w
    return total


@record
class EntropyEvolutionReport:
    monotone: bool
    dissipation_free: bool
    table: tuple
    """Triples (time, partition index, entropy bits)."""
    violations: tuple


def entropy_checks(
    trace: EvolutionTrace, partitions: Sequence[Partition], slack: float = ENTROPY_SLACK
) -> EntropyEvolutionReport:
    """Entropy never below the initial value = monotone; always equal =
    dissipation-free."""
    table = []
    violations = []
    monotone = True
    free = True
    base = [shannon_entropy(trace.initial, p).bits for p in partitions]
    for t, measure in zip(trace.times, trace.measures):
        for k, partition in enumerate(partitions):
            bits = shannon_entropy(measure, partition).bits
            table.append((t, k, bits))
            if bits < base[k] - slack:
                monotone = False
                violations.append((t, k, bits, base[k]))
            if abs(bits - base[k]) > slack:
                free = False
    return EntropyEvolutionReport(
        monotone=monotone,
        dissipation_free=free,
        table=tuple(table),
        violations=tuple(violations),
    )


@record
class AffineReport:
    affine: bool
    max_gap: float
    gaps: tuple
    mixture_split: Optional[DissipationReport]
    """Dissipation decomposition of the mixed trace when the evolution is
    affine; the non-dissipative and escaped components then split with the
    same coefficients."""


def affine_split_check(
    first: EvolutionTrace,
    second: EvolutionTrace,
    mixed: EvolutionTrace,
    ratio,
    tol: float = AFFINE_TOL,
) -> AffineReport:
    """Does the evolved mixture equal the mixture of the evolved parts?

    Compares atom by atom at every time on a shared grid; exact equality is
    required in rational mode.
    """
    if not (first.times == second.times == mixed.times):
        raise GridMismatch("time grids differ")
    gaps = []
    affine = True
    max_gap = 0.0
    for t, m1, m2, mx in zip(first.times, first.measures, second.measures, mixed.measures):
        combined = mixture([(ratio, m1), (1 - to_scalar(ratio, m1.mode), m2)])
        # Exact in rational mode, where equal atoms leave every gap 0.0.
        same = measures_close(combined, mx, weight_tol=tol)
        gap = 0.0
        if not same:
            gap = 1.0
        else:
            for (p, w), (q, v) in zip(combined.atoms, mx.atoms):
                gap = max(gap, abs(float(w) - float(v)))
        gaps.append((t, gap))
        max_gap = max(max_gap, gap)
        if not same:
            affine = False
    split = decompose_evolution(mixed) if affine else None
    return AffineReport(affine=affine, max_gap=max_gap, gaps=tuple(gaps),
                        mixture_split=split)

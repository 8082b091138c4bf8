"""Time-evolved measure families and their dissipation analysis.

Each evolved measure is split against the initial one: the mass that stays
on the initial support is the non-dissipative component, the rest has
escaped.  The split coefficient per time and the kernel transporting
functions along the surviving part live here; the Koopman transport and the
entropy and affinity checks are in `oplab.diagnostics`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ._base import record
from .information import shannon_entropy
from .measures import BorelSet, DiscreteMeasure, Partition, lebesgue_decompose


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

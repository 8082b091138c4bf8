"""JSON wire formats for measures, partitions, matrices and systems.

Rational-mode scalars serialize as exact strings: terminating decimals where
the denominator allows it, ``p/q`` otherwise, so nothing is rounded on the
way out or back in.  Float-mode scalars are plain JSON numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from .algebra import DeclaredRelations, ReconstructionProblem
from .measures import FLOAT, RATIONAL, BorelSet, DiscreteMeasure, Partition, to_scalar
from .spectral import DensityState, HermitianObservable, LabSystem


def format_scalar(value, mode: str):
    if mode == FLOAT:
        return float(value)
    q = Fraction(value)
    num, den = q.numerator, q.denominator
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    if digits == 0:
        return str(num)
    scaled = num * 10 ** digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


parse_scalar = to_scalar


def measure_to_json(measure: DiscreteMeasure) -> dict:
    return {
        "atoms": [
            [format_scalar(p, measure.mode), format_scalar(w, measure.mode)]
            for p, w in measure.atoms
        ]
    }


def measure_from_json(payload: Mapping, mode: str = RATIONAL) -> DiscreteMeasure:
    return DiscreteMeasure(payload["atoms"], mode=mode)


def _endpoint_to_json(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format_scalar(value, RATIONAL)


def borel_to_json(delta: BorelSet) -> dict:
    return {
        "intervals": [[_endpoint_to_json(lo), _endpoint_to_json(hi)]
                      for lo, hi in delta.intervals],
        "singletons": [format_scalar(s, RATIONAL) for s in delta.singletons],
    }


def borel_from_json(payload: Mapping) -> BorelSet:
    return BorelSet(payload.get("intervals", []), payload.get("singletons", []))


def partition_to_json(partition: Partition) -> dict:
    lo, hi = partition.window
    return {
        "window": [_endpoint_to_json(lo), _endpoint_to_json(hi)],
        "cells": [borel_to_json(cell) for cell in partition.cells],
    }


def partition_from_json(payload: Mapping) -> Partition:
    return Partition(payload["window"], [borel_from_json(cell) for cell in payload["cells"]])


def matrix_to_json(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in m]


def matrix_from_json(payload) -> np.ndarray:
    """A complex matrix from a non-empty list of equally long rows of
    [re, im] pairs of numbers; anything else raises ValueError naming the
    row and entry at fault."""
    if not isinstance(payload, list) or not payload:
        raise ValueError("matrix must be a non-empty list of rows")
    rows = [_complex_pairs(row, f"matrix row {i}") for i, row in enumerate(payload)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"matrix row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
    return np.array(rows)


def vector_from_json(payload) -> np.ndarray:
    """A complex vector from a non-empty list of [re, im] pairs of numbers;
    anything else raises ValueError naming the entry at fault."""
    return _complex_pairs(payload, "vector")


def _complex_pairs(payload, name: str) -> np.ndarray:
    """``complex(re, im)`` of each [re, im] pair in ``payload``, which keeps
    both parts bit for bit, ``-0.0`` included.  Only a payload that fails is
    walked again, to find the entry at fault."""
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{name} must be a non-empty list of [re, im] pairs")
    try:
        return np.asarray([complex(real, imag) for real, imag in payload], dtype=complex)
    except (ValueError, TypeError, OverflowError):
        j = next(j for j, entry in enumerate(payload) if not _is_pair(entry))
        raise ValueError(f"{name} entry {j} is not a [re, im] pair of numbers: "
                         f"{repr(payload[j])[:80]}") from None


def _is_pair(entry) -> bool:
    try:
        real, imag = entry
        complex(real, imag)
    except (ValueError, TypeError, OverflowError):
        return False
    return True


def labsystem_to_json(system: LabSystem) -> dict:
    return {
        "observables": {label: matrix_to_json(obs.matrix)
                        for label, obs in sorted(system.observables.items())},
        "states": {label: matrix_to_json(state.matrix)
                   for label, state in sorted(system.states.items())},
        "suitability": [[st, obs] for st, obs in system.suitable_pairs()],
    }


def labsystem_from_json(payload: Mapping) -> LabSystem:
    observables = {label: HermitianObservable(matrix_from_json(m))
                   for label, m in payload["observables"].items()}
    states = {label: DensityState(matrix_from_json(m))
              for label, m in payload["states"].items()}
    return LabSystem(observables, states,
                     [tuple(pair) for pair in payload["suitability"]])


def relations_from_json(payload: Mapping) -> DeclaredRelations:
    return DeclaredRelations(
        powers=tuple((b, int(n), p) for b, n, p in payload.get("powers", [])),
        sums=tuple(tuple(entry) for entry in payload.get("sums", [])),
        scalings=tuple((a, float(r), s) for a, r, s in payload.get("scalings", [])),
        compatible=tuple(tuple(entry) for entry in payload.get("compatible", [])),
        products=tuple(tuple(entry) for entry in payload.get("products", [])),
    )


def reconstruction_from_json(payload: Mapping) -> ReconstructionProblem:
    observables = [HermitianObservable(matrix_from_json(m))
                   for m in payload["observables"]]
    frame = [vector_from_json(v) for v in payload["frame"]]
    return ReconstructionProblem(observables, payload["expectations"], frame)


def reconstruction_to_json(problem: ReconstructionProblem) -> dict:
    return {
        "observables": [matrix_to_json(obs.matrix) for obs in problem.observables],
        "expectations": list(problem.expectations),
        "frame": [
            [[float(z.real), float(z.imag)] for z in problem.frame[:, k]]
            for k in range(problem.frame.shape[1])
        ],
    }

"""JSON wire formats for measures, partitions, matrices, systems and
constraints.

Rational-mode scalars serialize as exact strings: terminating decimals where
the denominator allows it, ``p/q`` otherwise, so nothing is rounded on the
way out or back in.  Float-mode scalars are plain JSON numbers.

Readers take the payload and, last, ``where``: the payload's path in the
config, used only in messages.  Every object field is read through `field`,
so a missing field or one of the wrong JSON type raises `ConfigError`
naming its path, such as ``inputs.partition.cells[1] must be an object``.
A field whose entries are lists, such as the ``[point, weight]`` atoms of a
measure, checks them too (``inputs.measure.atoms[0] must be a list``), so a
string is never unpacked character by character.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from . import _np as np
from .algebra import DeclaredRelations, ReconstructionProblem
from .kolmogorov import (
    ConditionalConstraint,
    CorrelationConstraint,
    ExpectationConstraint,
    JointConstraint,
    MarginalConstraint,
)
from .measures import FLOAT, RATIONAL, BorelSet, DiscreteMeasure, Partition, to_scalar
from .spectral import DensityState, HermitianObservable, LabSystem


class ConfigError(Exception):
    """A config that cannot be read; the message names the field at fault."""


_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list"}


def field(payload, name: str, where: str, kind: type = None, default=_REQUIRED, *,
          items: type = None):
    """``payload[name]``, where ``payload`` is the JSON object at ``where``.

    Raises ConfigError when ``payload`` is not an object, when the field is
    missing and has no ``default``, when ``kind`` (``dict`` or ``list``) is
    given and the value is not of that JSON type, or when ``items`` is given
    and an entry of the list or a value of the object is not of that type.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be an object")
    if name not in payload:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {name!r} in {where}")
        return default
    value = payload[name]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{where}.{name} must be {_JSON_TYPES[kind]}")
    if items is not None:
        keyed = value.items() if isinstance(value, dict) else enumerate(value)
        for key, entry in keyed:
            if not isinstance(entry, items):
                at = f".{key}" if isinstance(value, dict) else f"[{key}]"
                raise ConfigError(f"{where}.{name}{at} must be {_JSON_TYPES[items]}")
    return value


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


def measure_from_json(payload: Mapping, mode: str = RATIONAL,
                      where: str = "measure") -> DiscreteMeasure:
    return DiscreteMeasure(field(payload, "atoms", where, list, items=list), mode=mode)


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


def borel_from_json(payload: Mapping, where: str = "set") -> BorelSet:
    return BorelSet(field(payload, "intervals", where, list, [], items=list),
                    field(payload, "singletons", where, list, []))


def partition_to_json(partition: Partition) -> dict:
    lo, hi = partition.window
    return {
        "window": [_endpoint_to_json(lo), _endpoint_to_json(hi)],
        "cells": [borel_to_json(cell) for cell in partition.cells],
    }


def partition_from_json(payload: Mapping, where: str = "partition") -> Partition:
    window = field(payload, "window", where, list)
    return Partition(window, [borel_from_json(cell, f"{where}.cells[{k}]")
                              for k, cell in enumerate(field(payload, "cells", where, list))])


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


def _operator_maps(payload: Mapping, where: str):
    """The ``observables`` and ``states`` objects of ``payload``, each label
    mapped to its operator."""
    observables = {label: HermitianObservable(matrix_from_json(m))
                   for label, m in field(payload, "observables", where, dict).items()}
    states = {label: DensityState(matrix_from_json(m))
              for label, m in field(payload, "states", where, dict).items()}
    return observables, states


def labsystem_from_json(payload: Mapping, where: str = "system") -> LabSystem:
    observables, states = _operator_maps(payload, where)
    return LabSystem(observables, states,
                     [tuple(pair) for pair in field(payload, "suitability", where, list,
                                                    items=list)])


def relations_from_json(payload: Mapping, where: str = "relations") -> DeclaredRelations:
    def entries(name):
        return field(payload, name, where, list, [], items=list)

    return DeclaredRelations(
        powers=tuple((b, int(n), p) for b, n, p in entries("powers")),
        sums=tuple(tuple(entry) for entry in entries("sums")),
        scalings=tuple((a, float(r), s) for a, r, s in entries("scalings")),
        compatible=tuple(tuple(entry) for entry in entries("compatible")),
        products=tuple(tuple(entry) for entry in entries("products")),
    )


def constraint_of(payload: Mapping, where: str = "constraint"):
    """One `oplab.kolmogorov` constraint from its object, chosen by its
    ``type`` field."""
    def get(name, kind=None):
        return field(payload, name, where, kind)

    kind = get("type")
    if kind == "marginal":
        return MarginalConstraint(get("observable"), get("value"), get("prob"))
    if kind == "joint":
        return JointConstraint.of(get("events", dict), get("prob"))
    if kind == "conditional":
        return ConditionalConstraint.of(get("event", dict), get("given", dict), get("prob"))
    if kind == "correlation":
        observables = tuple(get("observables", list))
        if len(observables) != 2:
            raise ConfigError(f"correlation constraint field 'observables' needs 2 names, "
                              f"got {len(observables)}")
        return CorrelationConstraint(observables, get("value"))
    if kind == "expectation":
        return ExpectationConstraint(get("observable"), get("value"))
    raise ConfigError(f"unknown constraint type {kind!r}")


def reconstruction_from_json(payload: Mapping, where: str = "problem") -> ReconstructionProblem:
    observables = [HermitianObservable(matrix_from_json(m))
                   for m in field(payload, "observables", where, list)]
    frame = [vector_from_json(v) for v in field(payload, "frame", where, list)]
    return ReconstructionProblem(observables, field(payload, "expectations", where, list), frame)


def reconstruction_to_json(problem: ReconstructionProblem) -> dict:
    return {
        "observables": [matrix_to_json(obs.matrix) for obs in problem.observables],
        "expectations": list(problem.expectations),
        "frame": [
            [[float(z.real), float(z.imag)] for z in problem.frame[:, k]]
            for k in range(problem.frame.shape[1])
        ],
    }

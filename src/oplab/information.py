"""Entropy and purity analytics.

Shannon entropy of a measure over a partition (bits), von Neumann entropy
and purity of density matrices (nats), and the bridge between the two: the
density matrix a partition induces has von Neumann entropy equal to the
partition entropy times ln 2.  The Khinchin axiom suite and the
informativity order built on this entropy live in `oplab.diagnostics`.

`oplab.measures` is named in annotations only: the partition entropies take
its measures and partitions as arguments, so a job that takes only a state's
entropy and purity does not run it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from . import _np as np
from . import measures, spectral
from ._base import FLOAT, RATIONAL, record, to_scalar
from .errors import PartitionDoesNotCover, ZeroCell

LN2 = math.log(2.0)
# How far from 1 a schema's total mass may be once any weight is a float.
SCHEMA_MASS_TOL = 1e-9


def entropy_bits(weights: Sequence) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention.  A weight
    that is negative or not finite is refused; the check fails on NaN."""
    total = 0.0
    for w in weights:
        p = float(w)
        if not 0 <= p < math.inf:
            raise ValueError(f"weight {w} is negative or not finite")
        if p > 0:
            total -= p * math.log2(p)
    return max(total, 0.0)


class Schema:
    """Finite nonnegative weight vector summing to one."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence):
        ws = tuple(to_scalar(w, RATIONAL if isinstance(w, (int, str, Fraction)) else FLOAT)
                   for w in weights)
        if not ws:
            raise ValueError("schema needs at least one weight")
        if any(w < 0 for w in ws):
            raise ValueError("schema weights must be nonnegative")
        total = sum(ws)
        exact = all(isinstance(w, Fraction) for w in ws)
        if exact:
            if total != 1:
                raise ValueError(f"schema mass {total} != 1")
        elif abs(float(total) - 1.0) > SCHEMA_MASS_TOL:
            raise ValueError(f"schema mass {total} != 1")
        self.weights = ws

    def entropy_bits(self) -> float:
        return entropy_bits(self.weights)

    def is_dirac(self) -> bool:
        return sum(1 for w in self.weights if w > 0) == 1

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"Schema({self.weights})"


# ---------------------------------------------------------------------------
# Measurement entropy over partitions
# ---------------------------------------------------------------------------


@record
class EntropyReport:
    partition: measures.Partition
    cell_probabilities: tuple
    bits: float

    def rows(self):
        """CSV rows (cell index, description, probability, -p log2 p)."""
        for k, (cell, p) in enumerate(zip(self.partition.cells, self.cell_probabilities)):
            contribution = -float(p) * math.log2(float(p)) if p > 0 else 0.0
            yield (k, cell.describe(), p, contribution)


def shannon_entropy(measure: measures.DiscreteMeasure,
                    partition: measures.Partition) -> EntropyReport:
    """Entropy of the cell-probability vector of the measure, in bits."""
    measure.require_probability()
    uncovered = [p for p in measure.support if partition.locate(p) < 0]
    if uncovered:
        raise PartitionDoesNotCover(f"atoms not covered: {uncovered}")
    probs = tuple(measure.measure_of(cell) for cell in partition.cells)
    return EntropyReport(partition=partition, cell_probabilities=probs,
                         bits=entropy_bits(probs))


# ---------------------------------------------------------------------------
# von Neumann entropy, purity, and the partition bridge
# ---------------------------------------------------------------------------


def vn_entropy_and_purity(state: spectral.DensityState) -> Tuple[float, float]:
    """Von Neumann entropy in nats and purity (trace of the square)."""
    evals = state.eigenvalues
    entropy = float(-np.sum(evals[evals > 0] * np.log(evals[evals > 0])))
    purity = float(np.sum(evals * evals))
    return max(entropy, 0.0), purity


@record
class EntropyBridge:
    state: spectral.DensityState
    vn_nats: float
    shannon_bits: float

    @property
    def gap(self) -> float:
        return abs(self.vn_nats - self.shannon_bits * LN2)


def partition_density_matrix(measure: measures.DiscreteMeasure,
                             partition: measures.Partition) -> EntropyBridge:
    """Diagonal density matrix carrying the cell probabilities.

    Its von Neumann entropy in nats equals the measurement entropy in bits
    times ln 2; the orthonormal frame is the standard basis (entropy does
    not depend on the frame).
    """
    report = shannon_entropy(measure, partition)
    weights = [float(p) for p in report.cell_probabilities]
    for k, w in enumerate(weights):
        if w <= 0:
            raise ZeroCell(f"cell {k} carries no mass")
    state = spectral.DensityState(np.diag(weights))
    vn, _ = vn_entropy_and_purity(state)
    return EntropyBridge(state=state, vn_nats=vn, shannon_bits=report.bits)

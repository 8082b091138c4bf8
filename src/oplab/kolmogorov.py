"""Feasibility of a single classical probability model for declared statistics.

Given finite outcome lists per observable and a set of linear statistical
constraints (marginals, joint cells, Bayes conditionals, correlations), decide
whether one joint probability distribution over the product outcome space
reproduces them all.  Nonexistence is established by an exact phase-one
simplex and reported with a Farkas vector and a minimal infeasible core.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from ._base import RATIONAL, record, to_scalar
from .errors import CapacityError
from .simplex import find_feasible_point

DEFAULT_CELL_BOUND = 10_000


@record
class MarginalConstraint:
    """P(observable = value) = prob."""

    observable: str
    value: object
    prob: object


@record
class JointConstraint:
    """P(all named observables take their listed values) = prob."""

    events: Tuple[Tuple[str, object], ...]
    prob: object

    @classmethod
    def of(cls, events: Mapping, prob) -> "JointConstraint":
        return cls(tuple(sorted(events.items())), prob)


@record
class ConditionalConstraint:
    """P(event | given) = prob, encoded linearly as P(e & g) - prob * P(g) = 0."""

    event: Tuple[Tuple[str, object], ...]
    given: Tuple[Tuple[str, object], ...]
    prob: object

    @classmethod
    def of(cls, event: Mapping, given: Mapping, prob) -> "ConditionalConstraint":
        return cls(tuple(sorted(event.items())), tuple(sorted(given.items())), prob)


@record
class CorrelationConstraint:
    """E[product of the two observables] = value (outcomes must be numeric)."""

    observables: Tuple[str, str]
    value: object


@record
class ExpectationConstraint:
    """E[observable] = value."""

    observable: str
    value: object


Constraint = object  # any of the records above


@record
class KolmogorovResult:
    feasible: bool
    joint: Optional[dict]
    """Map from outcome tuples to exact probabilities when feasible."""
    certificate: Optional[tuple]
    """Minimal infeasible constraint subset when infeasible."""
    deficit: Fraction
    observables: tuple
    farkas: Optional[tuple] = None
    """When infeasible, multipliers of the total-mass row and each constraint."""
    solves: int = 1
    """Phase-one LP solves spent on the verdict and the certificate."""
    pivots: int = 0
    """Simplex pivots summed over those solves."""


def _system(outcome_spaces: Mapping[str, Sequence], constraints, bound: int):
    """Names, cells, and the rows and right-hand sides of total mass one and
    of each constraint, each row built once from the outcome positions.  A
    repeated outcome value is refused: it would repeat cells."""
    names = tuple(outcome_spaces.keys())
    spaces = [tuple(to_scalar(v, RATIONAL) for v in outcome_spaces[name]) for name in names]
    size = 1
    for name, space in zip(names, spaces):
        if not space:
            raise ValueError("empty outcome list")
        if len(set(space)) < len(space):
            value = next(v for k, v in enumerate(space) if v in space[:k])
            raise ValueError(f"outcome list of {name!r} repeats the value {value}")
        size *= len(space)
        if size > bound:
            raise CapacityError(f"product outcome space exceeds {bound} cells")
    cells = [()]
    for space in spaces:
        cells = [prev + (v,) for prev in cells for v in space]
    index = {name: k for k, name in enumerate(names)}
    rows, rhs = [[1] * len(cells)], [1]
    for constraint in constraints:
        row, target = _constraint_row(constraint, index, spaces, cells)
        rows.append(row)
        rhs.append(target)
    return names, cells, rows, rhs


def _hits(spaces, index, events) -> list:
    """Per cell, whether it takes every listed value.  Each value is compared
    once per outcome of its observable, and the cells, which run over the
    outcomes with the last observable fastest, take the product of those
    comparisons."""
    masks = [[True] * len(space) for space in spaces]
    for name, value in events:
        k, value = index[name], to_scalar(value, RATIONAL)
        masks[k] = [hit and outcome == value for hit, outcome in zip(masks[k], spaces[k])]
    hits = [True]
    for mask in masks:
        hits = [prev and hit for prev in hits for hit in mask]
    return hits


def _constraint_row(constraint, index, spaces, cells):
    """Coefficient vector and right-hand side of one linear constraint."""
    if isinstance(constraint, MarginalConstraint):
        constraint = JointConstraint(((constraint.observable, constraint.value),), constraint.prob)
    if isinstance(constraint, JointConstraint):
        hits = _hits(spaces, index, constraint.events)
        return [int(h) for h in hits], to_scalar(constraint.prob, RATIONAL)
    if isinstance(constraint, ConditionalConstraint):
        prob = to_scalar(constraint.prob, RATIONAL)
        event, given = _hits(spaces, index, constraint.event), _hits(spaces, index, constraint.given)
        return [int(e) - prob if g else 0 for e, g in zip(event, given)], 0
    if isinstance(constraint, CorrelationConstraint):
        i, j = index[constraint.observables[0]], index[constraint.observables[1]]
        return [cell[i] * cell[j] for cell in cells], to_scalar(constraint.value, RATIONAL)
    if isinstance(constraint, ExpectationConstraint):
        k = index[constraint.observable]
        return [cell[k] for cell in cells], to_scalar(constraint.value, RATIONAL)
    raise TypeError(f"unknown constraint type {type(constraint).__name__}")


def _farkas_holds(farkas, rows, rhs) -> bool:
    """``yᵀA <= 0`` on every cell and ``yᵀb > 0``, exactly."""
    support = [(y, row) for y, row in zip(farkas, rows) if y != 0]
    return (len(farkas) == len(rows) and sum(y * b for y, b in zip(farkas, rhs)) > 0
            and all(sum(y * row[c] for y, row in support) <= 0 for c in range(len(rows[0]))))


def kolmogorov_check(
    outcome_spaces: Mapping[str, Sequence],
    constraints: Sequence[Constraint],
    cell_bound: int = DEFAULT_CELL_BOUND,
) -> KolmogorovResult:
    """Decide whether a joint classical distribution matches the constraints.

    Feasible verdicts return a joint probability vector that satisfies every
    constraint exactly.  Infeasible verdicts return the phase-one deficit, a
    Farkas vector (see `verify_farkas`), and a minimal infeasible subset of the
    constraints, found by a deletion filter (each member is necessary for the
    contradiction).
    """
    constraints = list(constraints)
    names, cells, rows, rhs = _system(outcome_spaces, constraints, cell_bound)
    result = find_feasible_point(rows, rhs)
    if result.feasible:
        joint = {cell: weight for cell, weight in zip(cells, result.x) if weight != 0}
        return KolmogorovResult(True, joint, None, Fraction(0), names, pivots=result.pivots)

    # Deletion filter; farkas is indexed like rows.  A candidate off the
    # support of the latest Farkas vector is dropped without a solve: the rest
    # of the core still contains that support, so it stays infeasible.
    # Candidates go by index, so a constraint given twice is two candidates.
    farkas, core, solves = list(result.farkas), list(range(len(constraints))), 1
    pivots = result.pivots
    for candidate in range(len(constraints)):
        trial = [k for k in core if k != candidate]
        if farkas[candidate + 1]:
            kept = [0] + [k + 1 for k in trial]
            attempt = find_feasible_point([rows[r] for r in kept], [rhs[r] for r in kept])
            solves += 1
            pivots += attempt.pivots
            if attempt.feasible:
                continue
            placed = dict(zip(kept, attempt.farkas))
            farkas = [placed.get(r, Fraction(0)) for r in range(len(rows))]
        core = trial
    if not _farkas_holds(farkas, rows, rhs):
        raise RuntimeError("phase one returned an invalid Farkas vector")
    return KolmogorovResult(False, None, tuple(constraints[k] for k in core), result.deficit,
                            names, tuple(farkas), solves, pivots)


def verify_joint(joint: Mapping, outcome_spaces: Mapping[str, Sequence],
                 constraints: Sequence[Constraint]) -> bool:
    """Substitute a joint table back into every constraint, exactly."""
    _, cells, rows, rhs = _system(outcome_spaces, constraints, bound=2 ** 62)
    weights = [Fraction(joint.get(cell, 0)) for cell in cells]
    return all(sum(r * w for r, w in zip(row, weights)) == b for row, b in zip(rows, rhs))


def verify_farkas(farkas: Sequence, outcome_spaces: Mapping[str, Sequence],
                  constraints: Sequence[Constraint]) -> bool:
    """Check exactly that ``farkas`` proves the constraints infeasible: with
    one multiplier ``y`` for the total-mass row, then one per constraint,
    ``yᵀA <= 0`` on every cell and ``yᵀb > 0``."""
    _, _, rows, rhs = _system(outcome_spaces, constraints, bound=2 ** 62)
    return _farkas_holds([to_scalar(y, RATIONAL) for y in farkas], rows, rhs)

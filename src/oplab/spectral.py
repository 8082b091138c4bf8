"""Finite-dimensional observables and states.

Observables are Hermitian matrices with a cached eigendecomposition; states
are density matrices.  The outcome statistics of an observable in a state is
a finite spectral measure, produced here in float mode.  Everything is
immutable after construction; eigendecompositions happen once.

`oplab.measures` and `oplab.joint` are read as module attributes when a
measure or a Borel set is built, so a job that builds none runs neither.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

from . import _np as np
from . import joint, measures
from ._base import FLOAT, record
from .errors import (
    DimMismatch,
    DomainError,
    NotAQuestion,
    NotCommuting,
    NotHermitian,
    OutOfSpectralRange,
)

HERMITIAN_TOL = 1e-10
IDEMPOTENT_TOL = 1e-9
DEDUP_REL_TOL = 1e-8
COMMUTATOR_TOL = 1e-10
PSD_TOL = 1e-10
MIX_WEIGHT_TOL = 1e-12
MEAN_RANGE_TOL = 1e-12


def _square_complex(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _hermitian_part(matrix, what: str) -> np.ndarray:
    """``(M + M*) / 2`` of the square matrix ``M``.  The deviation check is
    written so that NaN fails it, and so does ±inf, through ``inf - inf``.
    Both refusals are the verdict on such entries, so numpy's warnings on
    them are silenced."""
    m = _square_complex(matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        gap = _max_abs(m - m.conj().T)
        if not gap <= HERMITIAN_TOL:
            raise NotHermitian(f"{what} deviates from Hermitian by {gap:.3e}")
        m = (m + m.conj().T) / 2.0
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries overflow a double")
    return m


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return _max_abs(a @ b - b @ a)


def _group_eigenvalues(evals: np.ndarray, tol: float):
    """Contiguous slices of ascending eigenvalues that count as one point."""
    groups = []
    start = 0
    for k in range(1, len(evals) + 1):
        if k == len(evals) or evals[k] - evals[start] > tol:
            groups.append(slice(start, k))
            start = k
    return groups


def _frame_diagonal(frame: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Real diagonal of ``F^* M F`` from the single product ``M F``."""
    return np.einsum("ij,ij->j", frame.conj(), matrix @ frame).real


def _point(evals: np.ndarray, group: slice) -> float:
    """The spectral point of a group of eigenvalues: their ``np.mean``.  A
    lone eigenvalue is its own mean, and ``+ 0.0`` turns -0.0 into 0.0 as
    ``np.mean`` does, without its per-call cost."""
    if group.stop - group.start == 1:
        return float(evals[group.start] + 0.0)
    return float(np.mean(evals[group]))


class HermitianObservable:
    """A d x d Hermitian matrix with eigendecomposition and deduped spectrum.

    Eigenvalues closer than ``1e-8 * max(1, spectral radius)`` are treated as
    one spectral point; the stored spectrum is the tuple of group means in
    ascending order.  Each spectral point owns one contiguous slice of
    eigenvector columns; projectors are built from it only on request.
    """

    __slots__ = ("matrix", "dim", "eigenvalues", "eigenvectors", "spectrum",
                 "_groups", "dedup_tol")

    def __init__(self, matrix):
        m = _hermitian_part(matrix, "matrix")
        evals, evecs = np.linalg.eigh(m)
        self.matrix = m
        self.dim = m.shape[0]
        self.eigenvalues = evals
        self.eigenvectors = evecs
        radius = float(np.max(np.abs(evals))) if evals.size else 0.0
        self.dedup_tol = DEDUP_REL_TOL * max(1.0, radius)
        self._groups = _group_eigenvalues(evals, self.dedup_tol)
        self.spectrum = tuple(_point(evals, g) for g in self._groups)

    # -- spectral projectors ---------------------------------------------------

    def _group(self, point: float) -> slice:
        """Eigenvector columns of the first spectral point within tolerance."""
        k = bisect_left(self.spectrum, point - self.dedup_tol)
        if k < len(self.spectrum) and abs(self.spectrum[k] - point) <= self.dedup_tol:
            return self._groups[k]
        raise DomainError(f"{point} is not a spectral point")

    def _projector(self, columns) -> np.ndarray:
        block = self.eigenvectors[:, columns]
        return block @ block.conj().T

    def eigenprojector(self, point: float) -> np.ndarray:
        """Projector onto the eigenspace of the deduped spectral point."""
        return self._projector(self._group(point))

    def spectral_projector(self, delta: measures.BorelSet) -> np.ndarray:
        """Projection-valued measure evaluated on a Borel set."""
        mask = np.zeros(self.dim, dtype=bool)
        for rep, group in zip(self.spectrum, self._groups):
            if delta.contains(rep, singleton_tol=self.dedup_tol):
                mask[group] = True
        return self._projector(mask)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    def multiplicity(self, point: float) -> int:
        group = self._group(point)
        return group.stop - group.start

    def commutes_with(self, other: "HermitianObservable", tol: float = COMMUTATOR_TOL) -> bool:
        self._require_same_dim(other)
        return commutator_norm(self.matrix, other.matrix) <= tol

    def _require_same_dim(self, other) -> None:
        other_dim = other.dim if isinstance(other, (HermitianObservable, DensityState)) \
            else _square_complex(other).shape[0]
        if other_dim != self.dim:
            raise DimMismatch(f"dimension {other_dim} != {self.dim}")

    def __repr__(self) -> str:
        return f"HermitianObservable(dim={self.dim}, spectrum={self.spectrum})"


class Question(HermitianObservable):
    """Yes/no observable: an orthogonal projection.

    Construction fails unless the matrix is idempotent and its spectrum is
    contained in {0, 1}.
    """

    def __init__(self, matrix):
        super().__init__(matrix)
        if _max_abs(self.matrix @ self.matrix - self.matrix) > IDEMPOTENT_TOL:
            raise NotAQuestion("matrix is not idempotent")
        if any(min(abs(s), abs(s - 1.0)) > self.dedup_tol for s in self.spectrum):
            raise NotAQuestion(f"spectrum {self.spectrum} not contained in {{0, 1}}")

    def complement(self) -> "Question":
        """The orthogonal question ``1 - q``."""
        return Question(np.eye(self.dim) - self.matrix)

    def is_trivial(self) -> bool:
        return len(self.spectrum) == 1


class DensityState:
    """Positive semidefinite trace-one matrix."""

    __slots__ = ("matrix", "dim", "eigenvalues")

    def __init__(self, matrix):
        m = _hermitian_part(matrix, "density matrix")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {evals[0]:.3e}")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"trace {trace} differs from one")
        self.matrix = m
        self.dim = m.shape[0]
        self.eigenvalues = np.clip(evals, 0.0, None)

    @classmethod
    def pure(cls, vector) -> "DensityState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim) / dim)

    @classmethod
    def mix(cls, components: Sequence) -> "DensityState":
        """Convex combination ``sum w_i rho_i``."""
        total = sum(w for w, _ in components)
        if abs(total - 1.0) > MIX_WEIGHT_TOL:
            raise ValueError("mixture weights must sum to one")
        dim = components[0][1].dim
        out = np.zeros((dim, dim), dtype=complex)
        for w, rho in components:
            if w < 0:
                raise ValueError("negative mixture weight")
            out += w * rho.matrix
        return cls(out)

    def expectation(self, observable) -> float:
        m = observable.matrix if isinstance(observable, HermitianObservable) \
            else _square_complex(observable)
        if m.shape[0] != self.dim:
            raise DimMismatch(f"dimension {m.shape[0]} != {self.dim}")
        return float(np.trace(self.matrix @ m).real)

    def __repr__(self) -> str:
        return f"DensityState(dim={self.dim})"


# ---------------------------------------------------------------------------
# Measurement statistics
# ---------------------------------------------------------------------------


def spectral_measure(observable: HermitianObservable,
                     state: DensityState) -> measures.DiscreteMeasure:
    """Outcome distribution of the observable in the state.

    Atoms sit at the deduped spectral points; the weight at ``s`` is the
    expectation of the spectral projector of ``{s}``, summed from the
    diagonal of the state in the eigenbasis.
    """
    observable._require_same_dim(state)
    diagonal = _frame_diagonal(observable.eigenvectors, state.matrix)
    atoms = [
        (rep, max(float(np.sum(diagonal[group])), 0.0))
        for rep, group in zip(observable.spectrum, observable._groups)
    ]
    return measures.DiscreteMeasure(atoms, mode=FLOAT)


def _value_at(f: Callable, lam: float) -> float:
    """``float(f(lam))`` at the eigenvalue ``lam``; a call that raises, or a
    value that is not a finite real, raises DomainError."""
    try:
        value = float(f(lam))
    except Exception as exc:  # noqa: BLE001
        raise DomainError(f"function undefined at eigenvalue {lam}: {exc}") from exc
    if not math.isfinite(value):
        raise DomainError(f"function not finite at eigenvalue {lam}")
    return value


def functional_calc(observable: HermitianObservable, f: Callable) -> HermitianObservable:
    """Apply a real function to the observable through its eigenvalues."""
    values = [_value_at(f, float(lam)) for lam in observable.eigenvalues]
    diag = np.diag(np.asarray(values, dtype=float))
    v = observable.eigenvectors
    return HermitianObservable(v @ diag @ v.conj().T)


def spectrum_and_norm(
    observable: HermitianObservable,
    states: Optional[Sequence[DensityState]] = None,
):
    """Spectrum, spectral radius and operational norm.

    Over the full state space the norm saturates at the spectral radius
    (every value between the extreme eigenvalues is the mean in some state).
    Over a finite declared family it is the max of |expectation| and can only
    be smaller.
    """
    radius = observable.spectral_radius
    if states is None:
        norm = radius
    else:
        norm = max(abs(state.expectation(observable)) for state in states)
    return observable.spectrum, radius, norm


def sps_witness(observable: HermitianObservable, target_mean: float) -> DensityState:
    """A state whose expectation equals ``target_mean``.

    Built as a convex mix of the extreme eigenprojectors, which is possible
    exactly when the target lies between the extreme eigenvalues.
    """
    lo = float(observable.eigenvalues[0])
    hi = float(observable.eigenvalues[-1])
    s = float(target_mean)
    if s < lo - MEAN_RANGE_TOL or s > hi + MEAN_RANGE_TOL:
        raise OutOfSpectralRange(f"{s} outside [{lo}, {hi}]")
    v_lo = observable.eigenvectors[:, 0]
    v_hi = observable.eigenvectors[:, -1]
    if hi == lo:
        return DensityState.pure(v_hi)
    t = min(max((s - lo) / (hi - lo), 0.0), 1.0)
    rho = t * np.outer(v_hi, v_hi.conj()) + (1.0 - t) * np.outer(v_lo, v_lo.conj())
    return DensityState(rho)


def positive_parts(observable: HermitianObservable):
    """Split into positive and negative parts, ``A = A+ - A-`` with
    ``A+ A- = 0`` and both parts positive semidefinite."""
    plus = functional_calc(observable, lambda t: t if t > 0 else 0.0)
    minus = functional_calc(observable, lambda t: -t if t < 0 else 0.0)
    return plus, minus


def jordan_product(a: HermitianObservable, b: HermitianObservable) -> HermitianObservable:
    """Symmetrized product ``(AB + BA) / 2``; equals AB when they commute."""
    a._require_same_dim(b)
    return HermitianObservable((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2.0)


@record
class QuestionReport:
    complement: Question
    spectrum: tuple
    trivial: bool


def question_ops(q: Question) -> QuestionReport:
    """Orthogonal complement and spectrum classification of a question."""
    if not isinstance(q, Question):
        raise NotAQuestion("expected a Question")
    return QuestionReport(
        complement=q.complement(),
        spectrum=q.spectrum,
        trivial=q.is_trivial(),
    )


def question_times(q: Question, observable: HermitianObservable,
                   state: DensityState) -> measures.DiscreteMeasure:
    """Outcome distribution of the product of a question with a compatible
    observable: mass ``<1-q>`` collapses onto zero, the rest follows the
    conditioned statistics."""
    if not isinstance(q, Question):
        raise NotAQuestion("expected a Question")
    q._require_same_dim(observable)
    if not q.commutes_with(observable):
        raise NotCommuting("question does not commute with the observable")
    product = HermitianObservable(q.matrix @ observable.matrix)
    return spectral_measure(product, state)


def commuting_eigenframe(observables: Sequence[HermitianObservable]) -> np.ndarray:
    """Joint eigenbasis of a commuting family, columns orthonormal.

    Starts from the eigenbasis of the first observable, then refines inside
    every degenerate block with the next one, and so on.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("need at least one observable")
    for i, a in enumerate(observables):
        for b in observables[i + 1:]:
            if commutator_norm(a.matrix, b.matrix) > COMMUTATOR_TOL:
                raise NotCommuting("family is not mutually commuting")
    return _refine_frame(observables)


def _refine_frame(observables: Sequence[HermitianObservable]) -> np.ndarray:
    """Joint eigenbasis of a family already known to commute."""
    frame = observables[0].eigenvectors.copy()
    blocks = observables[0]._groups
    for obs in observables[1:]:
        next_blocks = []
        for block in blocks:
            sub = frame[:, block]
            evals, evecs = np.linalg.eigh(sub.conj().T @ obs.matrix @ sub)
            frame[:, block] = sub @ evecs
            next_blocks.extend(
                slice(block.start + g.start, block.start + g.stop)
                for g in _group_eigenvalues(evals, obs.dedup_tol)
            )
        blocks = next_blocks
    return frame


def _joint_frame(a: HermitianObservable, b: HermitianObservable):
    """Joint eigenframe of a commuting pair, with each column labeled by the
    indices of its nearest deduped spectral points ``(s, t)``."""
    a._require_same_dim(b)
    if not a.commutes_with(b):
        raise NotCommuting(
            f"commutator norm {commutator_norm(a.matrix, b.matrix):.3e} exceeds gate"
        )
    frame = _refine_frame([a, b])
    nearest = [
        np.abs(_frame_diagonal(frame, obs.matrix)[:, None]
               - np.asarray(obs.spectrum)[None, :]).argmin(axis=1)
        for obs in (a, b)
    ]
    return frame, [(int(i), int(j)) for i, j in zip(*nearest)]


def joint_spectral_measure(
    a: HermitianObservable, b: HermitianObservable, state: DensityState
) -> joint.JointMeasure:
    """Two-variable outcome distribution for a commuting pair.

    Incompatible pairs (nonzero commutator) are rejected: no joint
    distribution exists for them.  The weight of ``(s, t)`` is the state's
    diagonal in the joint frame summed over the columns labeled ``(s, t)``.
    """
    a._require_same_dim(state)
    frame, labels = _joint_frame(a, b)
    totals = {}
    for label, w in zip(labels, _frame_diagonal(frame, state.matrix)):
        totals[label] = totals.get(label, 0.0) + float(w)
    atoms = [
        ((a.spectrum[i], b.spectrum[j]), w)
        for (i, j), w in sorted(totals.items()) if w > 0.0
    ]
    return joint.JointMeasure(atoms, mode=FLOAT)


def joint_spectrum(a: HermitianObservable, b: HermitianObservable):
    """Pairs of spectral points whose joint eigenspace is nonzero; a subset
    of the Cartesian product of the two spectra."""
    _, labels = _joint_frame(a, b)
    return tuple((a.spectrum[i], b.spectrum[j]) for i, j in sorted(set(labels)))


class JointOperator:
    """Off-diagonal block pairing of two observables on a doubled space."""

    __slots__ = ("first", "second", "matrix")

    def __init__(self, first: HermitianObservable, second: HermitianObservable):
        first._require_same_dim(second)
        d = first.dim
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, d:] = first.matrix
        block[d:, :d] = second.matrix
        self.first = first
        self.second = second
        self.matrix = block

    def adjoint(self) -> "JointOperator":
        return JointOperator(self.second, self.first)

    def gram(self) -> np.ndarray:
        """(A:B)* (A:B); block diagonal with B^2 and A^2."""
        return self.matrix.conj().T @ self.matrix

    def pair_expectation(self, state: DensityState):
        return (state.expectation(self.first), state.expectation(self.second))

    def __repr__(self) -> str:
        return f"JointOperator(dim={self.first.dim})"


def joint_operator(a: HermitianObservable, b: HermitianObservable) -> JointOperator:
    return JointOperator(a, b)


@record
class ResolutionDecomposition:
    cells: tuple
    sample_points: tuple
    error_bound: float


def epsilon_decomposition(
    observable: HermitianObservable, f: Callable, resolution: float
) -> ResolutionDecomposition:
    """Partition the spectrum so that ``f`` varies less than ``resolution``
    on every cell, and bound the operator-norm error of the resulting step
    approximation of ``f(A)``.

    A finite spectrum always admits singleton cells, so the construction
    cannot fail; the bound returned is the exact operator norm of the
    difference.  ``f`` is evaluated as in `functional_calc`: a call that
    raises, or a value that is not finite, raises DomainError.
    """
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    values = {s: _value_at(f, s) for s in observable.spectrum}
    groups: list = []
    for s in sorted(observable.spectrum, key=lambda s: values[s]):
        if not groups or values[s] - values[groups[-1][0]] >= resolution:
            groups.append([])
        groups[-1].append(s)
    samples = tuple(group[0] for group in groups)
    # A cell's members are the spectral points within dedup_tol of one of its
    # points, as `BorelSet.contains` matches them.  Two group means can lie
    # closer than that, so a member may belong to another cell.  For each
    # point p they are one run of the ascending spectrum: s - p never falls
    # as s grows.
    spectrum, tol = observable.spectrum, observable.dedup_tol
    bound = 0.0
    for group, t in zip(groups, samples):
        for p in group:
            lo = bisect_left(spectrum, -tol, key=lambda s: s - p)
            hi = bisect_right(spectrum, tol, lo, key=lambda s: s - p)
            bound = max(bound, max(abs(values[s] - values[t]) for s in spectrum[lo:hi]))
    cells = tuple(measures.BorelSet.points(group) for group in groups)
    return ResolutionDecomposition(cells, samples, bound)


def variance_and_uncertainty(
    a: HermitianObservable, b: HermitianObservable, state: DensityState
):
    """Variances of the two observables and the commutator lower bound
    ``var(A) var(B) >= |<[A,B]>|^2 / 4``."""
    a._require_same_dim(b)
    a._require_same_dim(state)

    def variance(obs: HermitianObservable) -> float:
        m1 = state.expectation(obs)
        m2 = float(np.trace(state.matrix @ obs.matrix @ obs.matrix).real)
        return max(m2 - m1 * m1, 0.0)

    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    bound = 0.25 * abs(complex(np.trace(state.matrix @ comm))) ** 2
    return variance(a), variance(b), bound


# ---------------------------------------------------------------------------
# Laboratory systems
# ---------------------------------------------------------------------------


class LabSystem:
    """Labeled observables and states plus the suitability relation.

    Suitability is explicit data: which states are usable to measure which
    observables.  Every observable needs at least one suitable state and
    vice versa.
    """

    __slots__ = ("observables", "states", "suitability")

    def __init__(
        self,
        observables: Mapping[str, HermitianObservable],
        states: Mapping[str, DensityState],
        suitability: Iterable[Tuple[str, str]],
    ):
        observables = dict(observables)
        states = dict(states)
        if not observables or not states:
            raise ValueError("a lab system needs at least one observable and one state")
        pairs = set()
        for state_label, obs_label in suitability:
            if state_label not in states:
                raise KeyError(f"unknown state label {state_label!r}")
            if obs_label not in observables:
                raise KeyError(f"unknown observable label {obs_label!r}")
            pairs.add((state_label, obs_label))
        dims = {obs.dim for obs in observables.values()}
        dims |= {state.dim for state in states.values()}
        if len(dims) > 1:
            raise DimMismatch(f"mixed dimensions {sorted(dims)}")
        used_obs = {obs for _, obs in pairs}
        used_states = {st for st, _ in pairs}
        for label in observables:
            if label not in used_obs:
                raise ValueError(f"observable {label!r} has no suitable state")
        for label in states:
            if label not in used_states:
                raise ValueError(f"state {label!r} has no suitable observable")
        self.observables = observables
        self.states = states
        self.suitability = frozenset(pairs)

    @property
    def dim(self) -> int:
        return next(iter(self.observables.values())).dim

    def expectation(self, state_label: str, obs_label: str) -> float:
        """Declared expectation of a suitable pair, from the system matrices."""
        if (state_label, obs_label) not in self.suitability:
            raise KeyError(f"pair ({state_label!r}, {obs_label!r}) not suitable")
        return self.states[state_label].expectation(self.observables[obs_label])

    def suitable_pairs(self):
        return sorted(self.suitability)

    def __repr__(self) -> str:
        return (
            f"LabSystem({len(self.observables)} observables, "
            f"{len(self.states)} states, dim={self.dim})"
        )

"""Algebraic-representation diagnostics and state reconstruction.

An algebraization maps labeled observables to Hermitian matrices and labeled
states to density matrices.  This module checks the representation contract
(powers, sums on compatible pairs, scalar homogeneity, expectation matching),
the embedding of the operational norm into the spectral radius, center and
multiplicative conditions, and reconstructs density matrices from expectation
data over a declared orthonormal frame.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from . import _np as np
from ._base import record
from .errors import (
    DimMismatch,
    NoRealizableFrame,
    SingularFrame,
)
from .information import vn_entropy_and_purity
from .spectral import (
    COMMUTATOR_TOL,
    DensityState,
    HermitianObservable,
    LabSystem,
    _max_abs,
    commutator_norm,
    commuting_eigenframe,  # noqa: F401  re-exported; lives next to the spectral core
)

RESIDUAL_TOL = 1e-9
NEGATIVE_WEIGHT_TOL = 1e-9
# Slack added to an image's own eigenvalue grouping tolerance when a system
# spectral point is looked up in the image spectrum.
SPECTRUM_MATCH_TOL = 1e-9
PURITY_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10


@record
class DeclaredRelations:
    """Algebraic relations the system declares between its labels.

    Powers, sums and Jordan products cannot be discovered from labels alone,
    so whoever assembles the system states them explicitly.
    """

    powers: Tuple[Tuple[str, int, str], ...] = ()
    """(base label, exponent, label of the power observable)."""
    sums: Tuple[Tuple[str, str, str], ...] = ()
    """(label a, label b, label of a+b) for compatible pairs."""
    scalings: Tuple[Tuple[str, object, str], ...] = ()
    """(label, real factor, label of the scaled observable)."""
    compatible: Tuple[Tuple[str, str], ...] = ()
    """Pairs declared simultaneously measurable."""
    products: Tuple[Tuple[str, str, str], ...] = ()
    """(label a, label b, label of the product) for compatible pairs."""

    def all_compatible_pairs(self):
        pairs = set(self.compatible)
        pairs.update((a, b) for a, b, _ in self.sums)
        pairs.update((a, b) for a, b, _ in self.products)
        return sorted(pairs)


class Algebraization:
    """Label-to-matrix maps for a laboratory system."""

    __slots__ = ("system", "observable_images", "state_images")

    def __init__(
        self,
        system: LabSystem,
        observable_images: Mapping[str, HermitianObservable],
        state_images: Mapping[str, DensityState],
    ):
        missing_obs = set(system.observables) - set(observable_images)
        missing_states = set(system.states) - set(state_images)
        if missing_obs or missing_states:
            raise KeyError(
                f"unmapped labels: observables {sorted(missing_obs)}, "
                f"states {sorted(missing_states)}"
            )
        dims = {img.dim for img in observable_images.values()}
        dims |= {img.dim for img in state_images.values()}
        if len(dims) != 1:
            raise DimMismatch(f"image dimensions differ: {sorted(dims)}")
        self.system = system
        self.observable_images = dict(observable_images)
        self.state_images = dict(state_images)

    @classmethod
    def identity(cls, system: LabSystem) -> "Algebraization":
        """The representation that keeps every matrix as it is."""
        return cls(system, dict(system.observables), dict(system.states))

    def image(self, obs_label: str) -> HermitianObservable:
        return self.observable_images[obs_label]

    def state_image(self, state_label: str) -> DensityState:
        return self.state_images[state_label]


@record
class ConditionReport:
    name: str
    passed: bool
    residual: float
    witness: str = ""


def _condition(name: str, tol: float, gaps) -> ConditionReport:
    """Fold ``(gap, witness)`` pairs into one report: the worst gap with its
    witness, passing when every gap is within ``tol``.  A NaN gap is the
    worst gap, and the first one stays the witness."""
    worst, witness, ok = 0.0, "", True
    for gap, label in gaps:
        if not math.isnan(worst) and not gap <= worst:
            worst, witness = gap, label
        ok = ok and gap <= tol
    return ConditionReport(name, ok, worst, witness)


def arba_validate(
    alg: Algebraization,
    relations: Optional[DeclaredRelations] = None,
    tol: float = RESIDUAL_TOL,
) -> Tuple[ConditionReport, ...]:
    """Check the representation contract condition by condition.

    Reported, never raised: (a) declared powers map to matrix powers,
    (b) declared sums of compatible pairs map to matrix sums, (c) declared
    scalings are homogeneous, (d) every suitable pair reproduces the declared
    expectation, plus the multiplicative-condition flag (images of compatible
    pairs must commute).
    """
    relations = relations or DeclaredRelations()

    def image(label):
        return alg.image(label).matrix

    return (
        _condition("polynomial", tol, (
            (_max_abs(image(p) - np.linalg.matrix_power(image(base), n)), f"{base}^{n} vs {p}")
            for base, n, p in relations.powers)),
        _condition("sum-on-compatibility", tol, (
            (_max_abs(image(c) - (image(a) + image(b))), f"{a}+{b} vs {c}")
            for a, b, c in relations.sums)),
        _condition("scalar-homogeneity", tol, (
            (_max_abs(image(scaled) - float(factor) * image(label)),
             f"{factor}*{label} vs {scaled}")
            for label, factor, scaled in relations.scalings)),
        _condition("expectation-matching", tol, (
            (abs(alg.state_image(st).expectation(alg.image(obs))
                 - alg.system.expectation(st, obs)), f"<{obs}>_{st}")
            for st, obs in alg.system.suitable_pairs())),
        _condition("multiplicative-condition", COMMUTATOR_TOL, (
            (commutator_norm(image(a), image(b)), f"[{a},{b}]")
            for a, b in relations.all_compatible_pairs())),
    )


@record
class EmbeddingEntry:
    label: str
    spectral_radius: float
    family_norm: float
    gap: float
    holds: bool
    spectrum_preserved: bool


def embedding_check(
    alg: Algebraization,
    state_families: Mapping[str, Sequence[str]],
    tol: float = RESIDUAL_TOL,
) -> Tuple[EmbeddingEntry, ...]:
    """Compare the family-restricted operational norm with the spectral
    radius of each image, and report whether the system-side spectrum
    survives into the image spectrum."""
    entries = []
    for obs_label, family in sorted(state_families.items()):
        image = alg.image(obs_label)
        radius = image.spectral_radius
        family_norm = max(
            abs(alg.state_image(st).expectation(image)) for st in family
        )
        system_spectrum = alg.system.observables[obs_label].spectrum
        preserved = all(
            any(abs(s - t) <= image.dedup_tol + SPECTRUM_MATCH_TOL for t in image.spectrum)
            for s in system_spectrum
        )
        gap = radius - family_norm
        entries.append(EmbeddingEntry(
            label=obs_label,
            spectral_radius=radius,
            family_norm=family_norm,
            gap=gap,
            holds=abs(gap) <= tol,
            spectrum_preserved=preserved,
        ))
    return tuple(entries)


def center_check(
    alg: Algebraization,
    center_labels: Sequence[str],
    relations: Optional[DeclaredRelations] = None,
    tol: float = COMMUTATOR_TOL,
) -> Tuple[ConditionReport, ...]:
    """Center elements must commute with every image; declared products with
    a center element must multiply through."""
    relations = relations or DeclaredRelations()
    unknown = [z for z in center_labels if z not in alg.observable_images]
    if unknown:
        raise KeyError(f"center labels not in the system: {unknown}")

    def image(label):
        return alg.image(label).matrix

    centers = set(center_labels)
    return (
        _condition("center-commutation", tol, (
            (commutator_norm(image(z), image(label)), f"[{z},{label}]")
            for z in center_labels for label in sorted(alg.observable_images))),
        _condition("center-products", RESIDUAL_TOL, (
            (_max_abs(image(c) - image(a) @ image(b)), f"{a}*{b} vs {c}")
            for a, b, c in relations.products if a in centers or b in centers)),
    )


def purity_preservation_check(
    alg: Algebraization,
    extremal_state_labels: Sequence[str],
    tol: float = PURITY_TOL,
) -> Tuple[Tuple[str, float], ...]:
    """States declared extremal whose images are mixed.

    Extremality can be lost in the transition to matrices; this lists every
    declared-extremal state whose image has purity below one.  A nonempty
    list is a finding, not a failure.
    """
    lost = []
    for label in extremal_state_labels:
        if label not in alg.state_images:
            raise KeyError(f"unknown state label {label!r}")
        _, purity = vn_entropy_and_purity(alg.state_image(label))
        if purity < 1.0 - tol:
            lost.append((label, purity))
    return tuple(lost)


def reports_to_records(reports: Sequence) -> list:
    """Flatten condition/embedding reports into {name, pass, witness, residual}."""
    records = []
    for rep in reports:
        if isinstance(rep, ConditionReport):
            records.append({
                "name": rep.name,
                "pass": rep.passed,
                "witness": rep.witness,
                "residual": rep.residual,
            })
        elif isinstance(rep, EmbeddingEntry):
            records.append({
                "name": f"embedding:{rep.label}",
                "pass": rep.holds and rep.spectrum_preserved,
                "witness": f"radius={rep.spectral_radius:.12g} family_norm={rep.family_norm:.12g}",
                "residual": abs(rep.gap),
            })
        else:
            raise TypeError(f"unknown report type {type(rep).__name__}")
    return records


# ---------------------------------------------------------------------------
# Tomographic reconstruction
# ---------------------------------------------------------------------------


class ReconstructionProblem:
    """Expectation data plus an orthonormal frame, one frame vector per
    observable at every stage."""

    __slots__ = ("dim", "observables", "expectations", "frame")

    def __init__(
        self,
        observables: Sequence[HermitianObservable],
        expectations: Sequence[float],
        frame: Sequence,
    ):
        observables = tuple(observables)
        expectations = tuple(float(y) for y in expectations)
        # Written so that NaN fails it.
        if not all(math.isfinite(y) for y in expectations):
            raise ValueError("expectations must be finite")
        frame_matrix = np.column_stack([np.asarray(v, dtype=complex) for v in frame])
        if not observables:
            raise ValueError("need at least one observable")
        dims = {obs.dim for obs in observables}
        if len(dims) != 1:
            raise DimMismatch(f"observable dimensions differ: {sorted(dims)}")
        dim = dims.pop()
        if frame_matrix.shape[0] != dim:
            raise DimMismatch("frame vectors live in the wrong dimension")
        n = len(observables)
        if len(expectations) != n or frame_matrix.shape[1] != n:
            raise ValueError("observable, expectation and frame counts must agree")
        gram = frame_matrix.conj().T @ frame_matrix
        if _max_abs(gram - np.eye(n)) > ORTHONORMAL_TOL:
            raise ValueError("frame is not orthonormal")
        self.dim = dim
        self.observables = observables
        self.expectations = expectations
        self.frame = frame_matrix

    def extended(self, observable: HermitianObservable, expectation: float,
                 frame_vector) -> "ReconstructionProblem":
        """Next stage: one more observable, expectation and frame vector.

        Earlier expectations are reused as the same objects, so growing the
        problem never perturbs them.
        """
        vectors = [self.frame[:, k] for k in range(self.frame.shape[1])]
        vectors.append(np.asarray(frame_vector, dtype=complex))
        return ReconstructionProblem(
            self.observables + (observable,),
            self.expectations + (float(expectation),),
            vectors,
        )

    def coefficient_matrix(self) -> np.ndarray:
        """C[h, k] = <frame_h | X_k frame_h>, real for Hermitian X_k."""
        n = len(self.observables)
        c = np.zeros((n, n), dtype=float)
        for h in range(n):
            v = self.frame[:, h]
            for k, obs in enumerate(self.observables):
                c[h, k] = float(np.real(v.conj() @ (obs.matrix @ v)))
        return c


@record
class TomographyResult:
    weights: tuple
    """Exact rational frame weights, normalized to unit sum."""
    state: DensityState
    residuals: tuple
    """tr(state X_k) - y_k per observable."""


def tomography_reconstruct(
    problem: ReconstructionProblem,
    negative_tol: float = NEGATIVE_WEIGHT_TOL,
) -> TomographyResult:
    """Solve ``C^T w = y`` for frame weights and assemble the state.

    An invertible system is solved directly.  A singular but consistent
    system (the unit-mass condition can pin the solution down) is solved
    through the normalization-augmented least-squares problem; rank
    deficiency or inconsistency raises SingularFrame.  Weights below
    ``-negative_tol`` mean no state over this frame matches the data and
    raise NoRealizableFrame; tiny negatives are clamped and the weights are
    renormalized exactly.
    """
    c = problem.coefficient_matrix()
    y = np.asarray(problem.expectations, dtype=float)
    n = len(y)
    ct = c.T
    if np.linalg.matrix_rank(ct) == n:
        raw = np.linalg.solve(ct, y)
    else:
        augmented = np.vstack([ct, np.ones((1, n))])
        target = np.concatenate([y, [1.0]])
        raw, _, rank, _ = np.linalg.lstsq(augmented, target, rcond=None)
        if rank < n:
            raise SingularFrame("system is rank deficient")
        if float(np.max(np.abs(augmented @ raw - target))) > RESIDUAL_TOL:
            raise SingularFrame("system is inconsistent")

    cleaned = []
    for v in raw:
        value = float(v)
        if value < -negative_tol:
            raise NoRealizableFrame(f"weight {value:.3e} below tolerance")
        cleaned.append(Fraction(value) if value > 0 else Fraction(0))
    total = sum(cleaned)
    if total <= 0:
        raise NoRealizableFrame("all weights vanish")
    weights = tuple(v / total for v in cleaned)

    floats = np.array([float(w) for w in weights])
    rho = (problem.frame * floats) @ problem.frame.conj().T
    state = DensityState(rho)
    residuals = tuple(
        state.expectation(obs) - yk
        for obs, yk in zip(problem.observables, problem.expectations)
    )
    return TomographyResult(weights=weights, state=state, residuals=residuals)


def purity_selection(
    candidates: Sequence[TomographyResult],
    purity_target: Optional[float] = None,
    entropy_target: Optional[float] = None,
) -> TomographyResult:
    """Pick one reconstruction among equally-fitting candidates.

    With a purity target: closest purity first, then closest entropy, then
    lexicographically smallest weights.  With no targets at all: the
    candidate with the highest von Neumann entropy (the least committal
    choice).
    """
    if not candidates:
        raise ValueError("no candidates")

    def stats(candidate: TomographyResult):
        entropy, purity = vn_entropy_and_purity(candidate.state)
        return entropy, purity

    if purity_target is None and entropy_target is None:
        return max(
            candidates,
            key=lambda c: (stats(c)[0], tuple(-w for w in c.weights)),
        )

    def key(candidate: TomographyResult):
        entropy, purity = stats(candidate)
        p_gap = abs(purity - purity_target) if purity_target is not None else 0.0
        s_gap = abs(entropy - entropy_target) if entropy_target is not None else 0.0
        return (p_gap, s_gap, candidate.weights)

    return min(candidates, key=key)

import math
from fractions import Fraction as F

import numpy as np
import pytest

from oplab.algebra import (
    Algebraization,
    DeclaredRelations,
    ReconstructionProblem,
    arba_validate,
    center_check,
    commuting_eigenframe,
    embedding_check,
    purity_selection,
    reports_to_records,
    tomography_reconstruct,
    _condition,
)
from oplab.errors import NoRealizableFrame, NotCommuting, SingularFrame
from oplab.information import vn_entropy_and_purity
from oplab.spectral import DensityState, HermitianObservable, LabSystem

from conftest import random_density

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0])


def qubit_system():
    observables = {
        "z": HermitianObservable(PAULI_Z),
        "x": HermitianObservable(PAULI_X),
        "z2": HermitianObservable(np.eye(2)),
        "one": HermitianObservable(np.eye(2)),
        "2z": HermitianObservable(2 * PAULI_Z),
        "z_plus_one": HermitianObservable(PAULI_Z + np.eye(2)),
    }
    states = {
        "mix": DensityState(np.diag([0.7, 0.3])),
        "up": DensityState.pure([1, 0]),
        "down": DensityState.pure([0, 1]),
        "plus": DensityState.pure([1, 1]),
    }
    suitability = [(s, o) for s in states for o in observables]
    return LabSystem(observables, states, suitability)


RELATIONS = DeclaredRelations(
    powers=(("z", 2, "z2"), ("z", 0, "one")),
    sums=(("z", "one", "z_plus_one"),),
    scalings=(("z", 2.0, "2z"),),
    compatible=(("z", "z2"), ("z", "one")),
    products=(("z", "one", "z"), ("z", "z2", "z")),
)


class TestArba:
    def test_identity_algebraization_passes(self):
        alg = Algebraization.identity(qubit_system())
        reports = arba_validate(alg, RELATIONS)
        assert all(r.passed for r in reports)
        assert all(r.residual == 0.0 for r in reports)

    def test_scaled_image_fails_expectations(self):
        system = qubit_system()
        images = dict(system.observables)
        images["z"] = HermitianObservable(2 * PAULI_Z)
        alg = Algebraization(system, images, dict(system.states))
        reports = {r.name: r for r in arba_validate(alg, RELATIONS)}
        assert not reports["expectation-matching"].passed
        assert reports["expectation-matching"].residual > 0.1
        assert not reports["polynomial"].passed

    def test_noncommuting_images_raise_flag(self):
        system = qubit_system()
        images = dict(system.observables)
        images["z2"] = HermitianObservable(PAULI_X)  # breaks [J(z), J(z2)] = 0
        alg = Algebraization(system, images, dict(system.states))
        reports = {r.name: r for r in arba_validate(alg, RELATIONS)}
        assert not reports["multiplicative-condition"].passed
        assert reports["multiplicative-condition"].witness == "[z,z2]"

    def test_unmapped_label_rejected(self):
        system = qubit_system()
        images = dict(system.observables)
        images.pop("z")
        with pytest.raises(KeyError):
            Algebraization(system, images, dict(system.states))

    def test_nan_gap_is_the_worst_gap(self):
        report = _condition("polynomial", 1e-9, [(math.nan, "z^3 vs z2")])
        assert not report.passed and report.witness == "z^3 vs z2"
        assert math.isnan(report.residual)
        report = _condition("polynomial", 1e-9, [(0.5, "a"), (math.nan, "b"), (2.0, "c"),
                                                 (math.nan, "d")])
        assert (report.passed, report.witness) == (False, "b")
        assert math.isnan(report.residual)

    def test_records_shape(self):
        alg = Algebraization.identity(qubit_system())
        records = reports_to_records(list(arba_validate(alg, RELATIONS)))
        assert all({"name", "pass", "witness", "residual"} <= set(r) for r in records)


class TestEmbedding:
    def test_eigenprojector_family_attains_radius(self):
        alg = Algebraization.identity(qubit_system())
        entries = embedding_check(alg, {"z": ["up", "down"]})
        assert entries[0].holds
        assert entries[0].spectrum_preserved

    def test_mixed_family_reports_gap(self):
        alg = Algebraization.identity(qubit_system())
        entries = embedding_check(alg, {"z": ["mix"]})
        assert not entries[0].holds
        assert entries[0].gap == pytest.approx(1.0 - 0.4)

    def test_spectral_mapping_under_identity(self):
        system = qubit_system()
        alg = Algebraization.identity(system)
        entries = embedding_check(alg, {"z2": ["up"]})
        assert entries[0].spectrum_preserved


class TestCenter:
    def test_identity_observable_is_central(self):
        alg = Algebraization.identity(qubit_system())
        reports = center_check(alg, ["one"], RELATIONS)
        assert all(r.passed for r in reports)

    def test_block_scalars_commute(self):
        obs = {
            "scalar_blocks": HermitianObservable(np.diag([1.0, 1.0, 2.0])),
            "block": HermitianObservable(np.array(
                [[0, 1, 0], [1, 0, 0], [0, 0, 5.0]]
            )),
        }
        states = {"mixed": DensityState.maximally_mixed(3)}
        system = LabSystem(obs, states, [("mixed", "scalar_blocks"), ("mixed", "block")])
        alg = Algebraization.identity(system)
        reports = center_check(alg, ["scalar_blocks"])
        assert all(r.passed for r in reports)

    def test_noncentral_witness(self):
        alg = Algebraization.identity(qubit_system())
        reports = {r.name: r for r in center_check(alg, ["z"])}
        report = reports["center-commutation"]
        assert not report.passed
        assert report.residual == pytest.approx(2.0)
        assert report.witness == "[z,x]"
        # witness residual is the recomputed commutator max-norm
        comm = PAULI_Z @ PAULI_X - PAULI_X @ PAULI_Z
        assert report.residual == pytest.approx(float(np.max(np.abs(comm))))

    def test_unknown_label(self):
        alg = Algebraization.identity(qubit_system())
        with pytest.raises(KeyError):
            center_check(alg, ["nope"])


class TestTomography:
    def test_diagonal_case_by_hand(self):
        problem = ReconstructionProblem(
            observables=[HermitianObservable(PAULI_Z), HermitianObservable(PAULI_X)],
            expectations=[0.4, 0.0],
            frame=[np.array([1.0, 0]), np.array([0, 1.0])],
        )
        result = tomography_reconstruct(problem)
        assert sum(result.weights) == 1
        assert abs(float(result.weights[0]) - 0.7) < 1e-12
        assert abs(float(result.weights[1]) - 0.3) < 1e-12
        assert abs(result.residuals[0]) < 1e-12

    def test_projector_observables_reproduce_diagonal(self, nprng):
        rho_star = random_density(nprng, 3)
        basis = np.linalg.eigh(rho_star.matrix)[1]
        observables = [
            HermitianObservable(np.outer(basis[:, k], basis[:, k].conj()))
            for k in range(3)
        ]
        y = [rho_star.expectation(obs) for obs in observables]
        problem = ReconstructionProblem(observables, y, [basis[:, k] for k in range(3)])
        result = tomography_reconstruct(problem)
        diag = sorted(float(w) for w in result.weights)
        expected = sorted(rho_star.eigenvalues)
        assert np.allclose(diag, expected, atol=1e-9)

    def test_out_of_range_expectation_rejected(self):
        problem = ReconstructionProblem(
            observables=[HermitianObservable(PAULI_Z), HermitianObservable(np.eye(2))],
            expectations=[1.5, 1.0],
            frame=[np.array([1.0, 0]), np.array([0, 1.0])],
        )
        with pytest.raises(NoRealizableFrame):
            tomography_reconstruct(problem)

    def test_inconsistent_singular_system(self):
        # X expectation cannot be matched from the Z frame unless it is zero
        problem = ReconstructionProblem(
            observables=[HermitianObservable(PAULI_Z), HermitianObservable(PAULI_X)],
            expectations=[0.4, 0.3],
            frame=[np.array([1.0, 0]), np.array([0, 1.0])],
        )
        with pytest.raises(SingularFrame):
            tomography_reconstruct(problem)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_expectations_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ReconstructionProblem(
                observables=[HermitianObservable(PAULI_Z), HermitianObservable(np.eye(2))],
                expectations=[bad, 1.0],
                frame=[np.array([1.0, 0]), np.array([0, 1.0])],
            )

    def test_frame_must_be_orthonormal(self):
        with pytest.raises(ValueError):
            ReconstructionProblem(
                observables=[HermitianObservable(PAULI_Z)],
                expectations=[0.0],
                frame=[np.array([1.0, 1.0])],
            )

    def test_staged_growth_preserves_prefix(self):
        p1 = ReconstructionProblem(
            [HermitianObservable(PAULI_Z)], [0.4], [np.array([1.0, 0])]
        )
        p2 = p1.extended(HermitianObservable(np.eye(2)), 1.0, np.array([0, 1.0]))
        assert p2.expectations[:1] == p1.expectations
        assert p2.observables[:1] == p1.observables
        result = tomography_reconstruct(p2)
        assert abs(float(result.weights[0]) - 0.7) < 1e-12

    def test_residuals_reported_against_inputs(self, nprng):
        frame = np.linalg.qr(nprng.normal(size=(3, 3)))[0]
        weights = np.array([0.5, 0.3, 0.2])
        rho_star = DensityState((frame * weights) @ frame.conj().T)
        observables = [
            HermitianObservable(np.outer(frame[:, k], frame[:, k].conj()))
            for k in range(3)
        ]
        y = [rho_star.expectation(obs) for obs in observables]
        result = tomography_reconstruct(ReconstructionProblem(observables, y, list(frame.T)))
        assert max(abs(r) for r in result.residuals) < 1e-10


class TestCommutingEigenframe:
    def test_joint_diagonalization(self):
        a = HermitianObservable(np.diag([1.0, 1.0, 2.0]))
        b = HermitianObservable(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 5.0]]))
        frame = commuting_eigenframe([a, b])
        assert np.allclose(frame.conj().T @ frame, np.eye(3), atol=1e-10)
        for obs in (a, b):
            rotated = frame.conj().T @ obs.matrix @ frame
            assert np.max(np.abs(rotated - np.diag(np.diag(rotated)))) < 1e-9

    def test_noncommuting_rejected(self):
        with pytest.raises(NotCommuting):
            commuting_eigenframe([
                HermitianObservable(PAULI_X), HermitianObservable(PAULI_Z),
            ])


class TestPuritySelection:
    def _candidates(self):
        results = []
        for weights in ([0.5, 0.5], [0.7, 0.3], [1.0, 0.0]):
            problem = ReconstructionProblem(
                observables=[HermitianObservable(PAULI_Z), HermitianObservable(np.eye(2))],
                expectations=[weights[0] - weights[1], 1.0],
                frame=[np.array([1.0, 0]), np.array([0, 1.0])],
            )
            results.append(tomography_reconstruct(problem))
        return results

    def test_single_candidate(self):
        only = self._candidates()[:1]
        assert purity_selection(only, purity_target=0.9) is only[0]

    def test_pure_target_selects_rank_one(self):
        chosen = purity_selection(self._candidates(), purity_target=1.0)
        _, purity = vn_entropy_and_purity(chosen.state)
        assert purity == pytest.approx(1.0)

    def test_nearest_purity_wins(self):
        chosen = purity_selection(self._candidates(), purity_target=0.60)
        _, purity = vn_entropy_and_purity(chosen.state)
        assert purity == pytest.approx(0.58)

    def test_no_targets_means_max_entropy(self):
        chosen = purity_selection(self._candidates())
        entropy, _ = vn_entropy_and_purity(chosen.state)
        assert entropy == pytest.approx(math.log(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            purity_selection([])


class TestPurityPreservation:
    def test_mixed_image_of_declared_extremal_is_listed(self):
        from oplab.algebra import purity_preservation_check

        system = qubit_system()
        alg = Algebraization.identity(system)
        lost = purity_preservation_check(alg, ["up", "mix"])
        assert [label for label, _ in lost] == ["mix"]
        assert lost[0][1] == pytest.approx(0.58)

    def test_pure_images_pass_silently(self):
        from oplab.algebra import purity_preservation_check

        alg = Algebraization.identity(qubit_system())
        assert purity_preservation_check(alg, ["up", "down", "plus"]) == ()

    def test_unknown_label(self):
        from oplab.algebra import purity_preservation_check

        alg = Algebraization.identity(qubit_system())
        with pytest.raises(KeyError):
            purity_preservation_check(alg, ["ghost"])

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab.errors import (
    DimMismatch,
    DomainError,
    NotAQuestion,
    NotCommuting,
    NotHermitian,
    OutOfSpectralRange,
)
from oplab.joint import measures_close
from oplab.measures import BorelSet, DiscreteMeasure
from oplab.spectral import (
    DensityState,
    HermitianObservable,
    Question,
    _point,
    epsilon_decomposition,
    functional_calc,
    joint_operator,
    joint_spectral_measure,
    joint_spectrum,
    jordan_product,
    positive_parts,
    question_ops,
    question_times,
    spectral_measure,
    spectrum_and_norm,
    sps_witness,
    variance_and_uncertainty,
)

from conftest import random_commuting_pair, random_density, random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            HermitianObservable([[0, 1], [0, 0]])

    # The refusals come without a numpy warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", [HermitianObservable, DensityState])
    def test_rejects_non_finite_entries(self, kind, bad):
        # On the diagonal, NaN - NaN and inf - inf are NaN, which a plain
        # "deviation > tolerance" check lets through.
        with pytest.raises(NotHermitian):
            kind(np.diag([bad, 0.5]))

    @pytest.mark.filterwarnings("error")
    def test_entries_that_overflow_when_symmetrized(self):
        with pytest.raises(ValueError, match="overflow"):
            HermitianObservable([[1e308, 1e308], [1e308, -1e308]])

    def test_symmetrizes_within_tolerance(self):
        m = np.array([[1.0, 1e-12], [0.0, 2.0]])
        obs = HermitianObservable(m)
        assert np.allclose(obs.matrix, obs.matrix.conj().T)

    def test_eigendecomposition_reconstructs(self, nprng):
        for dim in (2, 4, 6):
            obs = random_hermitian(nprng, dim)
            v, lam = obs.eigenvectors, obs.eigenvalues
            assert np.max(np.abs(v @ np.diag(lam) @ v.conj().T - obs.matrix)) < 1e-9

    def test_degenerate_spectrum_dedup(self):
        obs = HermitianObservable(np.diag([1.0, 1.0 + 1e-12, 3.0]))
        assert len(obs.spectrum) == 2

    @pytest.mark.parametrize("value", [-0.0, 0.0, 5e-324, 1e308, -1e308])
    def test_a_lone_eigenvalue_is_its_mean_to_the_bit(self, value):
        evals = np.array([value])
        assert _point(evals, slice(0, 1)).hex() == float(np.mean(evals)).hex()

    def test_spectral_points_are_the_group_means_to_the_bit(self, nprng):
        degenerate = HermitianObservable(np.diag([-1.0, -1.0 + 1e-12, -0.0, 0.0, 2.5, 2.5, 7.0]))
        for obs in [degenerate] + [random_hermitian(nprng, d) for d in (1, 3, 16)]:
            means = [float(np.mean(obs.eigenvalues[g])).hex() for g in obs._groups]
            assert [point.hex() for point in obs.spectrum] == means
        assert len(degenerate.spectrum) == 4

    def test_mix_is_the_convex_combination(self):
        up, down = DensityState.pure([1, 0]), DensityState.pure([0, 1])
        mixed = DensityState.mix([(0.25, up), (0.75, down)])
        assert isinstance(mixed, DensityState)
        assert np.allclose(mixed.matrix, np.diag([0.25, 0.75]))
        with pytest.raises(ValueError, match="^mixture weights must sum to one$"):
            DensityState.mix([(0.5, up), (0.25, down)])
        with pytest.raises(ValueError, match="^negative mixture weight$"):
            DensityState.mix([(1.5, up), (-0.5, down)])

    def test_density_state_validation(self):
        with pytest.raises(ValueError):
            DensityState(np.diag([0.5, 0.6]))
        with pytest.raises(ValueError):
            DensityState(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("cls", [HermitianObservable, Question, DensityState])
    def test_an_empty_matrix_is_a_dim_mismatch(self, cls):
        with pytest.raises(DimMismatch, match=r"nonempty square matrix, got shape \(0, 0\)$"):
            cls(np.zeros((0, 0)))


class TestSpectralMeasure:
    def test_maximally_mixed_qubit(self):
        obs = HermitianObservable(np.diag([0.0, 1.0]))
        mu = spectral_measure(obs, DensityState.maximally_mixed(2))
        assert measures_close(mu, DiscreteMeasure([(0, 0.5), (1, 0.5)], mode="float"))

    def test_eigenstate_gives_dirac(self):
        obs = HermitianObservable(np.diag([2.0, 7.0]))
        mu = spectral_measure(obs, DensityState.pure([0, 1]))
        assert measures_close(mu, DiscreteMeasure.dirac(7.0, mode="float"))

    def test_mean_matches_trace(self, nprng):
        for _ in range(25):
            obs = random_hermitian(nprng, 3)
            rho = random_density(nprng, 3)
            mu = spectral_measure(obs, rho)
            assert abs(mu.mean() - rho.expectation(obs)) < 1e-10
            assert abs(float(mu.mass) - 1.0) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            spectral_measure(HermitianObservable(np.eye(2)), DensityState.maximally_mixed(3))


class TestFunctionalCalc:
    def test_identity(self, nprng):
        obs = random_hermitian(nprng, 4)
        same = functional_calc(obs, lambda t: t)
        assert np.max(np.abs(same.matrix - obs.matrix)) < 1e-12

    def test_constant_function_gives_scalar(self, nprng):
        obs = random_hermitian(nprng, 3)
        const = functional_calc(obs, lambda t: 4.25)
        assert np.max(np.abs(const.matrix - 4.25 * np.eye(3))) < 1e-12
        rho = random_density(nprng, 3)
        assert abs(rho.expectation(const) - 4.25) < 1e-10

    def test_square_of_sign_matrix(self):
        obs = HermitianObservable(np.diag([-1.0, 1.0]))
        sq = functional_calc(obs, lambda t: t * t)
        assert np.max(np.abs(sq.matrix - np.eye(2))) < 1e-12

    def test_pushforward_identity(self, nprng):
        # distribution of f(A) equals the image of the distribution of A
        f = lambda t: t ** 2 - t
        for _ in range(20):
            obs = random_hermitian(nprng, 4)
            rho = random_density(nprng, 4)
            lhs = spectral_measure(functional_calc(obs, f), rho)
            rhs = spectral_measure(obs, rho).pushforward(f)
            assert measures_close(lhs, rhs, point_tol=1e-7, weight_tol=1e-8)

    def test_spectral_mapping_sets(self, nprng):
        for _ in range(50):
            obs = random_hermitian(nprng, 5)
            poly = lambda t: 2 * t ** 3 - t + 1
            mapped = functional_calc(obs, poly)
            expected = sorted({round(poly(s), 6) for s in obs.spectrum})
            got = sorted({round(s, 6) for s in mapped.spectrum})
            assert got == expected


class TestNormAndWitness:
    def test_radius(self):
        _, radius, norm = spectrum_and_norm(HermitianObservable(np.diag([-3.0, 2.0])))
        assert radius == 3.0 and norm == 3.0

    def test_cstar_square_identity(self, nprng):
        for _ in range(20):
            obs = random_hermitian(nprng, 4)
            _, _, norm = spectrum_and_norm(obs)
            sq = functional_calc(obs, lambda t: t * t)
            _, _, norm_sq = spectrum_and_norm(sq)
            assert abs(norm_sq - norm ** 2) < 1e-8

    def test_family_norm_attains_radius_on_eigenprojectors(self, nprng):
        obs = random_hermitian(nprng, 4)
        states = [DensityState.pure(obs.eigenvectors[:, k]) for k in range(4)]
        _, radius, norm = spectrum_and_norm(obs, states)
        assert abs(norm - radius) < 1e-10

    def test_witness_extremes_and_midpoint(self):
        obs = HermitianObservable(np.diag([-3.0, 2.0]))
        top = sps_witness(obs, 2.0)
        bottom = sps_witness(obs, -3.0)
        mid = sps_witness(obs, -0.5)
        assert abs(top.expectation(obs) - 2.0) < 1e-10
        assert abs(bottom.expectation(obs) + 3.0) < 1e-10
        assert abs(mid.expectation(obs) + 0.5) < 1e-10

    def test_witness_out_of_range(self):
        with pytest.raises(OutOfSpectralRange):
            sps_witness(HermitianObservable(np.diag([0.0, 1.0])), 2.0)


class TestPositiveParts:
    def test_psd_input_unchanged(self):
        obs = HermitianObservable(np.diag([0.0, 3.0]))
        plus, minus = positive_parts(obs)
        assert np.max(np.abs(plus.matrix - obs.matrix)) < 1e-12
        assert np.max(np.abs(minus.matrix)) < 1e-12

    def test_eigenvalue_split(self):
        plus, minus = positive_parts(HermitianObservable(np.diag([-2.0, 3.0])))
        assert np.allclose(plus.matrix, np.diag([0.0, 3.0]))
        assert np.allclose(minus.matrix, np.diag([2.0, 0.0]))

    def test_parts_orthogonal_and_recombine(self, nprng):
        for _ in range(25):
            obs = random_hermitian(nprng, 5)
            plus, minus = positive_parts(obs)
            assert np.max(np.abs(plus.matrix @ minus.matrix)) < 1e-8
            assert np.max(np.abs(plus.matrix - minus.matrix - obs.matrix)) < 1e-9
            assert plus.eigenvalues[0] > -1e-10
            assert minus.eigenvalues[0] > -1e-10


class TestJordanProduct:
    def test_identity_neutral(self, nprng):
        obs = random_hermitian(nprng, 3)
        unit = HermitianObservable(np.eye(3))
        assert np.max(np.abs(jordan_product(obs, unit).matrix - obs.matrix)) < 1e-12

    def test_commuting_diagonals(self):
        a = HermitianObservable(np.diag([1.0, 2.0, 3.0]))
        b = HermitianObservable(np.diag([4.0, 5.0, 6.0]))
        assert np.allclose(jordan_product(a, b).matrix, np.diag([4.0, 10.0, 18.0]))

    def test_anticommuting_pair_vanishes(self):
        x = HermitianObservable(PAULI_X)
        z = HermitianObservable(PAULI_Z)
        assert np.max(np.abs(jordan_product(x, z).matrix)) < 1e-12

    def test_banach_bound_for_commuting(self, nprng):
        a, b = random_commuting_pair(nprng, 4)
        _, _, na = spectrum_and_norm(a)
        _, _, nb = spectrum_and_norm(b)
        _, _, nab = spectrum_and_norm(jordan_product(a, b))
        assert nab <= na * nb + 1e-9


class TestQuestions:
    def test_trivial_question(self):
        q = Question(np.eye(2))
        report = question_ops(q)
        assert report.trivial
        assert report.spectrum == (1.0,)
        assert np.max(np.abs(report.complement.matrix)) < 1e-12

    def test_nontrivial_spectrum(self):
        q = Question(np.diag([1.0, 0.0]))
        report = question_ops(q)
        assert report.spectrum == (0.0, 1.0)
        assert not report.trivial

    def test_idempotence_required(self):
        with pytest.raises(NotAQuestion):
            Question(np.diag([0.5, 1.0]))

    def test_complement_expectation(self, nprng):
        q = Question(np.diag([1.0, 1.0, 0.0]))
        rho = random_density(nprng, 3)
        assert abs(rho.expectation(q.complement()) - (1 - rho.expectation(q))) < 1e-10

    def test_question_squared_expectation(self, nprng):
        q = Question(np.diag([1.0, 0.0, 1.0]))
        sq = functional_calc(q, lambda t: t * t)
        for _ in range(10):
            rho = random_density(nprng, 3)
            assert abs(rho.expectation(q) - rho.expectation(sq)) < 1e-10

    def test_question_times_collapses_mass(self):
        q = Question(np.diag([1.0, 1.0, 0.0]))
        obs = HermitianObservable(np.diag([2.0, 3.0, 5.0]))
        mu = question_times(q, obs, DensityState.maximally_mixed(3))
        third = 1.0 / 3.0
        expected = DiscreteMeasure([(0, third), (2, third), (3, third)], mode="float")
        assert measures_close(mu, expected)
        # spectrum law: {0} <= sigma(q A) <= {0} u sigma(A)
        support = {round(p, 9) for p in mu.support}
        assert 0.0 in support
        assert support <= {0.0, 2.0, 3.0, 5.0}

    def test_question_times_requires_commuting(self):
        q = Question(np.diag([1.0, 0.0]))
        with pytest.raises(NotCommuting):
            question_times(q, HermitianObservable(PAULI_X), DensityState.maximally_mixed(2))


class TestProjectors:
    def test_projector_algebra_intersection(self, nprng):
        obs = random_hermitian(nprng, 5)
        d1 = BorelSet.interval(-10, 0)
        d2 = BorelSet.interval(-1, 10)
        p1 = obs.spectral_projector(d1)
        p2 = obs.spectral_projector(d2)
        p12 = obs.spectral_projector(d1.intersection(d2))
        assert np.max(np.abs(p1 @ p2 - p12)) < 1e-9

    def test_completeness(self, nprng):
        obs = random_hermitian(nprng, 6)
        total = sum(obs.eigenprojector(s) for s in obs.spectrum)
        assert np.max(np.abs(total - np.eye(6))) < 1e-9

    def test_a_point_off_the_spectrum_has_no_eigenspace(self):
        obs = HermitianObservable(np.diag([1.0, 1.0, -1.0]))
        assert (obs.multiplicity(1.0), obs.multiplicity(-1.0)) == (2, 1)
        assert np.allclose(obs.eigenprojector(1.0), np.diag([1.0, 1.0, 0.0]))
        for point in (0.0, 2.0, 1.0 + 1e-3):
            for query in (obs.eigenprojector, obs.multiplicity):
                with pytest.raises(DomainError, match=f"^{point} is not a spectral point$"):
                    query(point)

    def test_projector_idempotent_hermitian(self, nprng):
        obs = random_hermitian(nprng, 4)
        p = obs.spectral_projector(BorelSet.interval(0, math.inf))
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert np.max(np.abs(p - p.conj().T)) < 1e-9


class TestJointMeasures:
    def test_functional_dependence_supported_on_graph(self, nprng):
        a, _ = random_commuting_pair(nprng, 4)
        f = lambda t: t * t
        b = functional_calc(a, f)
        rho = random_density(nprng, 4)
        joint = joint_spectral_measure(a, b, rho)
        for (s, t), w in joint.atoms:
            if w > 1e-12:
                assert abs(t - f(s)) < 1e-6

    def test_product_state_factorizes(self, nprng):
        a = random_hermitian(nprng, 2)
        b = random_hermitian(nprng, 2)
        big_a = HermitianObservable(np.kron(a.matrix, np.eye(2)))
        big_b = HermitianObservable(np.kron(np.eye(2), b.matrix))
        rho1 = random_density(nprng, 2)
        rho2 = random_density(nprng, 2)
        rho = DensityState(np.kron(rho1.matrix, rho2.matrix))
        joint = joint_spectral_measure(big_a, big_b, rho)
        mu_a = spectral_measure(a, rho1)
        mu_b = spectral_measure(b, rho2)
        for (s, t), w in joint.atoms:
            wa = sum(v for p, v in mu_a.atoms if abs(p - s) < 1e-7)
            wb = sum(v for p, v in mu_b.atoms if abs(p - t) < 1e-7)
            assert abs(w - wa * wb) < 1e-9

    def test_marginals_are_spectral_measures(self, nprng):
        for _ in range(20):
            a, b = random_commuting_pair(nprng, 5)
            rho = random_density(nprng, 5)
            joint = joint_spectral_measure(a, b, rho)
            first, second = joint.marginals()
            assert measures_close(first, spectral_measure(a, rho), 1e-7, 1e-9)
            assert measures_close(second, spectral_measure(b, rho), 1e-7, 1e-9)

    def test_theta_identity(self, nprng):
        # integral of s*t against the joint equals the product expectation
        a, b = random_commuting_pair(nprng, 4)
        rho = random_density(nprng, 4)
        joint = joint_spectral_measure(a, b, rho)
        integral = float(sum(s * t * w for (s, t), w in joint.atoms))
        trace = float(np.trace(rho.matrix @ a.matrix @ b.matrix).real)
        assert abs(integral - trace) < 1e-9

    def test_noncommuting_rejected(self):
        x = HermitianObservable(PAULI_X)
        z = HermitianObservable(PAULI_Z)
        with pytest.raises(NotCommuting):
            joint_spectral_measure(x, z, DensityState.maximally_mixed(2))
        with pytest.raises(NotCommuting):
            joint_spectrum(x, z)

    def test_joint_spectrum_subset_of_product(self, nprng):
        a, b = random_commuting_pair(nprng, 4)
        pts = joint_spectrum(a, b)
        assert pts
        for s, t in pts:
            assert any(abs(s - u) < 1e-9 for u in a.spectrum)
            assert any(abs(t - u) < 1e-9 for u in b.spectrum)


def _reference_projector(obs, point):
    """Reference eigenprojector ``V_g V_g^*`` over the eigenvalues within
    the dedup tolerance of the point, built densely."""
    block = obs.eigenvectors[:, np.abs(obs.eigenvalues - point) <= obs.dedup_tol]
    return block @ block.conj().T


def _planted(seed, dim, width):
    """A random observable whose eigenvalues are rounded to multiples of
    ``width``, so that most spectral points are degenerate."""
    nprng = np.random.default_rng(seed)
    base = random_hermitian(nprng, dim)
    obs = functional_calc(base, lambda t: width * round(t / width))
    return base, obs, random_density(nprng, dim)


class TestSpectralCore:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12),
           width=st.sampled_from([0.5, 1.0, 3.0]))
    def test_measure_matches_projector_formula(self, seed, dim, width):
        _, obs, rho = _planted(seed, dim, width)
        weights = dict(spectral_measure(obs, rho).atoms)
        total = np.zeros((dim, dim), dtype=complex)
        for s in obs.spectrum:
            ref = _reference_projector(obs, s)
            expected = max(float(np.trace(rho.matrix @ ref).real), 0.0)
            assert abs(weights.get(s, 0.0) - expected) <= 1e-12
            assert obs.multiplicity(s) == round(np.trace(ref).real)
            assert np.max(np.abs(obs.eigenprojector(s) - ref)) < 1e-12
            total += obs.eigenprojector(s)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-9
        assert sum(obs.multiplicity(s) for s in obs.spectrum) == dim

    @staticmethod
    def _check_joint(a, b, rho):
        refs_a = [_reference_projector(a, s) for s in a.spectrum]
        refs_b = [_reference_projector(b, t) for t in b.spectrum]
        old_atoms = {}
        old_spectrum = []
        for s, ps in zip(a.spectrum, refs_a):
            for t, qt in zip(b.spectrum, refs_b):
                w = float(np.trace(rho.matrix @ ps @ qt).real)
                if w > 0.0:
                    old_atoms[(s, t)] = w
                if float(np.trace(ps @ qt).real) > 0.5:
                    old_spectrum.append((s, t))
        new_atoms = dict(joint_spectral_measure(a, b, rho).atoms)
        for pair in set(old_atoms) | set(new_atoms):
            old, new = old_atoms.get(pair, 0.0), new_atoms.get(pair, 0.0)
            assert abs(old - new) <= 1e-12 or max(old, new) <= 1e-12
        assert joint_spectrum(a, b) == tuple(old_spectrum)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12),
           width=st.sampled_from([0.5, 1.0, 3.0]))
    def test_joint_matches_projector_formula(self, seed, dim, width):
        base, a, rho = _planted(seed, dim, width)
        b = functional_calc(base, lambda t: round(t * t / 4.0))
        self._check_joint(a, b, rho)
        self._check_joint(b, a, rho)

    @pytest.mark.parametrize("sides", [(2, 2), (2, 3), (3, 3)])
    def test_joint_on_degenerate_kron_pairs(self, nprng, sides):
        m, n = sides
        a = random_hermitian(nprng, m)
        b = random_hermitian(nprng, n)
        big_a = HermitianObservable(np.kron(a.matrix, np.eye(n)))
        big_b = HermitianObservable(np.kron(np.eye(m), b.matrix))
        rho = random_density(nprng, m * n)
        self._check_joint(big_a, big_b, rho)
        assert len(joint_spectrum(big_a, big_b)) == m * n

    def test_memory_stays_quadratic(self):
        nprng = np.random.default_rng(7)
        dim = 256
        g = nprng.normal(size=(dim, dim)) + 1j * nprng.normal(size=(dim, dim))
        matrix = (g + g.conj().T) / 2
        rho = random_density(nprng, dim)
        tracemalloc.start()
        try:
            spectral_measure(HermitianObservable(matrix), rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestJointOperator:
    def test_identity_blocks(self):
        unit = HermitianObservable(np.eye(2))
        jo = joint_operator(unit, unit)
        assert np.allclose(jo.matrix @ jo.matrix, np.eye(4))

    def test_adjoint_swaps(self, nprng):
        a = random_hermitian(nprng, 3)
        b = random_hermitian(nprng, 3)
        jo = joint_operator(a, b)
        assert np.allclose(jo.adjoint().matrix, jo.matrix.conj().T)

    def test_gram_blocks(self, nprng):
        a = random_hermitian(nprng, 3)
        b = random_hermitian(nprng, 3)
        gram = joint_operator(a, b).gram()
        assert np.allclose(gram[:3, :3], b.matrix @ b.matrix)
        assert np.allclose(gram[3:, 3:], a.matrix @ a.matrix)
        assert np.max(np.abs(gram[:3, 3:])) < 1e-12

    def test_pair_expectation(self, nprng):
        a = random_hermitian(nprng, 3)
        b = random_hermitian(nprng, 3)
        rho = random_density(nprng, 3)
        pair = joint_operator(a, b).pair_expectation(rho)
        assert abs(pair[0] - rho.expectation(a)) < 1e-12
        assert abs(pair[1] - rho.expectation(b)) < 1e-12


def reference_epsilon_cells(observable, f, resolution):
    """(cells, sample points, error bound) of `epsilon_decomposition`, with
    each cell's members found by a scan of the whole spectrum."""
    values = {s: float(f(s)) for s in observable.spectrum}
    cells, samples, group = [], [], []
    for s in sorted(observable.spectrum, key=lambda s: values[s]):
        if group and values[s] - values[group[0]] >= resolution:
            cells.append(group)
            group = []
        group.append(s)
    cells.append(group)
    samples = tuple(cell[0] for cell in cells)
    bound = 0.0
    for cell, t in zip(cells, samples):
        members = [s for s in observable.spectrum
                   if any(abs(s - p) <= observable.dedup_tol for p in cell)]
        bound = max(bound, max(abs(values[s] - values[t]) for s in members))
    return tuple(BorelSet.points(cell) for cell in cells), samples, bound


class TestResolutionDecomposition:
    def test_single_cell_when_resolution_large(self, nprng):
        obs = random_hermitian(nprng, 4)
        spread = max(obs.spectrum) - min(obs.spectrum)
        dec = epsilon_decomposition(obs, lambda t: t, spread + 1)
        assert len(dec.cells) == 1
        assert dec.error_bound <= spread + 1

    def test_singleton_cells_error_free(self, nprng):
        obs = random_hermitian(nprng, 5)
        dec = epsilon_decomposition(obs, lambda t: t, 1e-12)
        assert len(dec.cells) == len(obs.spectrum)
        assert dec.error_bound == 0.0

    def test_operator_norm_bound(self, nprng):
        for eps in (0.1, 0.01):
            obs = random_hermitian(nprng, 6)
            f = lambda t: t ** 3
            dec = epsilon_decomposition(obs, f, eps)
            approx = np.zeros((6, 6), dtype=complex)
            for cell, t in zip(dec.cells, dec.sample_points):
                approx += f(t) * obs.spectral_projector(cell)
            exact = functional_calc(obs, f).matrix
            op_norm = float(np.linalg.norm(exact - approx, ord=2))
            assert op_norm <= eps + 1e-12
            assert dec.error_bound <= eps

    @settings(max_examples=200, deadline=None)
    @given(gaps=st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.99, 1.0, 1.01, 1.5, 3.0, 40.0]),
                         min_size=1, max_size=12),
           start=st.sampled_from([0.0, -0.5, 0.25]),
           f=st.sampled_from([lambda t: t, lambda t: -t, lambda t: abs(t - 2e-8),
                              lambda t: math.floor(t * 3e7)]),
           resolution=st.sampled_from([1e-12, 5e-9, 1e-8, 2e-8, 1.0]))
    def test_cells_samples_and_bound_as_a_scan_of_every_point(self, gaps, start, f,
                                                                 resolution):
        # Gaps in units of the tolerance 1e-8: eigenvalues 0.99 and 1.01 apart
        # make group means closer than it, so a member can sit in another cell.
        evals = np.cumsum([start] + [g * 1e-8 for g in gaps])
        obs = HermitianObservable(np.diag(evals))
        got = epsilon_decomposition(obs, f, resolution)
        assert (got.cells, got.sample_points) == reference_epsilon_cells(obs, f, resolution)[:2]
        assert got.error_bound.hex() == reference_epsilon_cells(obs, f, resolution)[2].hex()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 12),
           resolution=st.sampled_from([1e-12, 0.1, 0.5, 2.0]))
    def test_random_spectra_decompose_as_a_scan_of_every_point(self, seed, dim, resolution):
        obs = random_hermitian(np.random.default_rng(seed), dim)
        f = lambda t: t ** 3
        got = epsilon_decomposition(obs, f, resolution)
        want = reference_epsilon_cells(obs, f, resolution)
        assert (got.cells, got.sample_points, got.error_bound.hex()) == (*want[:2], want[2].hex())

    def test_one_cell_per_point_decomposes_in_n_log_n(self):
        # On a 2-core VM a check of every (point, cell) pair took 0.54 s, and
        # the bisections take 6 ms.
        obs = HermitianObservable(np.diag(np.arange(1024, dtype=float)))
        start = time.perf_counter()
        dec = epsilon_decomposition(obs, lambda t: t, 1e-12)
        assert time.perf_counter() - start < 0.25
        assert len(dec.cells) == 1024 and dec.error_bound == 0.0

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "not finite at eigenvalue 1.0"),
        (math.inf, "not finite at eigenvalue 1.0"),
        (None, "undefined at eigenvalue 1.0"),
    ])
    def test_a_bad_function_value_raises(self, bad, message):
        obs = HermitianObservable(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(DomainError, match=message):
            epsilon_decomposition(obs, lambda t: bad if t == 1.0 else t, 0.5)

    def test_a_function_that_raises_fails_as_in_functional_calc(self):
        obs = HermitianObservable(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(DomainError, match="undefined at eigenvalue 0.0: float division by zero"):
            epsilon_decomposition(obs, lambda t: 1 / t, 0.5)
        with pytest.raises(DomainError, match="undefined at eigenvalue 0.0: float division by zero"):
            functional_calc(obs, lambda t: 1 / t)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan])
    def test_resolution_must_be_positive(self, resolution):
        obs = HermitianObservable(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="resolution must be positive"):
            epsilon_decomposition(obs, lambda t: t, resolution)


class TestUncertainty:
    def test_eigenstate_dispersion_free_and_dirac(self):
        obs = HermitianObservable(np.diag([1.0, 4.0]))
        rho = DensityState.pure([1, 0])
        va, _, _ = variance_and_uncertainty(obs, obs, rho)
        assert va < 1e-12
        mu = spectral_measure(obs, rho)
        assert measures_close(mu, DiscreteMeasure.dirac(1.0, mode="float"))

    def test_pauli_xy_on_up_state(self):
        x = HermitianObservable(PAULI_X)
        y = HermitianObservable(PAULI_Y)
        rho = DensityState.pure([1, 0])
        va, vb, bound = variance_and_uncertainty(x, y, rho)
        assert abs(va - 1.0) < 1e-12
        assert abs(vb - 1.0) < 1e-12
        assert abs(bound - 1.0) < 1e-12

    def test_commuting_bound_vanishes(self, nprng):
        a, b = random_commuting_pair(nprng, 3)
        rho = random_density(nprng, 3)
        _, _, bound = variance_and_uncertainty(a, b, rho)
        assert bound < 1e-12

    def test_bound_never_violated(self, nprng):
        for _ in range(200):
            a = random_hermitian(nprng, 4)
            b = random_hermitian(nprng, 4)
            rho = random_density(nprng, 4)
            va, vb, bound = variance_and_uncertainty(a, b, rho)
            assert va * vb >= bound - 1e-9


class TestLabSystem:
    def test_requires_suitable_pairs_both_ways(self):
        from oplab.spectral import LabSystem

        obs = {"z": HermitianObservable(PAULI_Z)}
        states = {"up": DensityState.pure([1, 0]), "down": DensityState.pure([0, 1])}
        with pytest.raises(ValueError):
            LabSystem(obs, states, [("up", "z")])  # "down" never used
        system = LabSystem(obs, states, [("up", "z"), ("down", "z")])
        assert system.expectation("up", "z") == pytest.approx(1.0)
        assert system.dim == 2
        with pytest.raises(KeyError):
            LabSystem(obs, states, [("ghost", "z"), ("down", "z")])

    @pytest.mark.parametrize("observables, states", [
        ({}, {}), ({}, {"up": [1, 0]}), ({"z": PAULI_Z}, {})])
    def test_an_empty_map_is_refused(self, observables, states):
        """With no observable or no state there is no dimension to report:
        refused here, not as StopIteration from ``dim`` or ``repr``."""
        from oplab.spectral import LabSystem

        observables = {label: HermitianObservable(m) for label, m in observables.items()}
        states = {label: DensityState.pure(v) for label, v in states.items()}
        with pytest.raises(ValueError, match="at least one observable and one state"):
            LabSystem(observables, states, [])

    def test_mixed_dimensions_rejected(self):
        from oplab.spectral import LabSystem

        obs = {"z": HermitianObservable(PAULI_Z)}
        states = {"big": DensityState.maximally_mixed(3)}
        with pytest.raises(DimMismatch):
            LabSystem(obs, states, [("big", "z")])

    def test_unsuitable_pair_has_no_expectation(self):
        from oplab.spectral import LabSystem

        obs = {"z": HermitianObservable(PAULI_Z), "x": HermitianObservable(PAULI_X)}
        states = {"up": DensityState.pure([1, 0]), "plus": DensityState.pure([1, 1])}
        system = LabSystem(obs, states, [("up", "z"), ("plus", "x")])
        assert system.expectation("up", "z") == pytest.approx(1.0)
        with pytest.raises(KeyError):
            system.expectation("up", "x")

"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, in the test body, not configured elsewhere.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np

from oplab.algebra import (
    ReconstructionProblem,
    commuting_eigenframe,
    purity_selection,
    tomography_reconstruct,
)
from oplab.cli import main as cli_main
from oplab.ensembles import (
    CONVERGENT,
    NaturalSubset,
    estimate_probability,
    kvn_equivalence,
    min_trials,
    natural_density,
    run_ensemble,
)
from oplab.information import (
    entropy_bits,
    khinchin_validate,
    partition_density_matrix,
    vn_entropy_and_purity,
)
from oplab.kolmogorov import (
    CorrelationConstraint,
    JointConstraint,
    kolmogorov_check,
    verify_farkas,
    verify_joint,
)
from oplab.measures import (
    BorelSet,
    DiscreteMeasure,
    Partition,
    convolve,
    disintegrate,
    lebesgue_decompose,
    mixture,
    product_measure,
)
from oplab.spectral import (
    DensityState,
    HermitianObservable,
    Question,
    epsilon_decomposition,
    functional_calc,
    joint_spectral_measure,
    question_ops,
    spectral_measure,
    variance_and_uncertainty,
)
from oplab.dynamics import EvolutionTrace, decompose_evolution, entropy_checks

from conftest import (
    random_commuting_pair,
    random_density,
    random_hermitian,
    random_rational_joint,
    random_rational_probability,
)


def _verdict(number: int, name: str, checks):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"ACCEPTANCE {number:02d} {name}: {status}")
    assert not failed, f"criterion {number} failed: {failed}"


def _same_distribution(a, b, point_tol=1e-7, weight_tol=1e-9):
    """Cluster nearby atoms and compare accumulated weights."""
    points = sorted({float(p) for p, _ in a.atoms} | {float(p) for p, _ in b.atoms})
    clusters = []
    for p in points:
        if clusters and p - clusters[-1][0] <= point_tol:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    for cluster in clusters:
        lo, hi = cluster[0] - point_tol, cluster[-1] + point_tol
        wa = sum(float(w) for p, w in a.atoms if lo <= float(p) <= hi)
        wb = sum(float(w) for p, w in b.atoms if lo <= float(p) <= hi)
        if abs(wa - wb) > weight_tol:
            return False
    return True


def test_criterion_01_measure_exactness():
    rng = random.Random(101)
    start = time.monotonic()
    recombine_ok = True
    for _ in range(1000):
        nu = random_rational_probability(rng, max_atoms=16)
        mu = random_rational_probability(rng, max_atoms=16)
        dec = lebesgue_decompose(nu, mu)
        if mixture([(1, dec.absolutely_continuous), (1, dec.singular)]) != nu:
            recombine_ok = False
            break
    round_trip_ok = True
    for _ in range(1000):
        joint = random_rational_joint(rng, side=4)
        total = joint.mass
        joint = joint.__class__([(pt, w / total) for pt, w in joint.atoms])
        marginal, kernel = disintegrate(joint)
        if product_measure(marginal, kernel) != joint:
            round_trip_ok = False
            break
    elapsed = time.monotonic() - start
    _verdict(1, "measure exactness", [
        ("decompose+recombine exact on 1000 pairs", recombine_ok),
        ("disintegrate/product identity on 1000 tables", round_trip_ok),
        ("runtime < 10 s", elapsed < 10.0),
    ])


def test_criterion_02_sum_is_joint_pushforward():
    rng = random.Random(202)
    additive = all(
        convolve(a, b).mean() == a.mean() + b.mean()
        for a, b in (
            (random_rational_probability(rng, 6), random_rational_probability(rng, 6))
            for _ in range(100)
        )
    )

    nprng = np.random.default_rng(202)
    pushforward_ok = True
    for k in range(200):
        dim = 2 + k % 5  # dimensions 2..6
        a, b = random_commuting_pair(nprng, dim)
        rho = random_density(nprng, dim)
        joint = joint_spectral_measure(a, b, rho)
        via_joint = joint.pushforward(lambda s, t: s + t)
        direct = spectral_measure(HermitianObservable(a.matrix + b.matrix), rho)
        if not _same_distribution(via_joint, direct):
            pushforward_ok = False
            break

    # Independent case: tensor pair in a product state factorizes, so the
    # convolution of the marginals is the distribution of the sum.
    a = random_hermitian(nprng, 2)
    b = random_hermitian(nprng, 2)
    big_a = HermitianObservable(np.kron(a.matrix, np.eye(2)))
    big_b = HermitianObservable(np.kron(np.eye(2), b.matrix))
    rho = DensityState(np.kron(random_density(nprng, 2).matrix,
                               random_density(nprng, 2).matrix))
    joint = joint_spectral_measure(big_a, big_b, rho)
    marg_a, marg_b = joint.marginals()
    independent_ok = _same_distribution(
        convolve(marg_a, marg_b), joint.pushforward(lambda s, t: s + t)
    )

    # Correlated case: the marginal convolution is NOT the sum distribution,
    # while mixing the shifted kernel fibers of the disintegration always is.
    c = HermitianObservable(np.diag([0.0, 1.0]))
    rho_corr = DensityState(np.diag([0.5, 0.5]))
    joint_corr = joint_spectral_measure(c, c, rho_corr)
    conv = convolve(*joint_corr.marginals())
    push = joint_corr.pushforward(lambda s, t: s + t)
    correlated_differs = not _same_distribution(conv, push, weight_tol=1e-3)
    marginal, kernel = disintegrate(joint_corr)
    fiber_mix = mixture([
        (w, convolve(DiscreteMeasure.dirac(s, mode="float"), kernel.row(s)))
        for s, w in marginal.atoms
    ])
    fiberwise_ok = _same_distribution(fiber_mix, push)

    _verdict(2, "sum of compatible observables", [
        ("convolution mean additivity exact", additive),
        ("sum distribution = joint pushforward (200 pairs, 1e-9)", pushforward_ok),
        ("independent case matches marginal convolution", independent_ok),
        ("correlated case differs from marginal convolution", correlated_differs),
        ("fiber mixture of the disintegration reproduces the sum", fiberwise_ok),
    ])


def test_criterion_03_kvn_horizon():
    n = 1_000_000
    start = time.monotonic()
    squares = NaturalSubset(n, rule="squares").indicator(n)
    sq_report = kvn_equivalence(squares)
    evens = NaturalSubset(n, rule="evens").indicator(n)
    ev_report = kvn_equivalence(evens)
    elapsed = time.monotonic() - start
    densities = dict(ev_report.exceedance_densities)
    _verdict(3, "Cesaro/exceedance equivalence at the horizon", [
        ("squares Cesaro <= 2/sqrt(n)", sq_report.cesaro_mean <= 2 / math.sqrt(n)),
        ("squares verdict convergent", sq_report.verdict == CONVERGENT),
        ("evens Cesaro = 1/2 +- 1/n", abs(ev_report.cesaro_mean - 0.5) <= 1 / n),
        ("evens exceedance density = 1/2 +- 1/n", abs(densities[0.5] - 0.5) <= 1 / n),
        ("runtime < 5 s", elapsed < 5.0),
    ])


def test_criterion_04_prime_density():
    n = 1_000_000
    start = time.monotonic()
    primes = NaturalSubset(n, rule="primes")
    density = float(natural_density(primes, n).density)
    elapsed = time.monotonic() - start
    target = 1 / math.log(n)
    _verdict(4, "prime density vs 1/ln n", [
        ("within 20 percent", abs(density - target) / target < 0.2),
        ("runtime < 10 s", elapsed < 10.0),
    ])


def test_criterion_05_estimation_pipeline():
    truth = DiscreteMeasure([(0, F(7, 10)), (1, F(3, 10))])
    target = BorelSet.point(1)
    trace = run_ensemble(truth, target, 100_000, seed=42).trace()
    report = estimate_probability(trace)
    within = abs(report.p_hat - 0.3) <= 0.0045

    alpha = 0.01
    stab = min_trials(trace, alpha)
    brute = np.ones(trace.n, dtype=bool)
    for m in range(2, trace.n + 1):
        brute[m - 1] = abs(trace.f[m - 1] - trace.w[m - 2]) / m < 2 * alpha
    bitwise = bool(np.array_equal(stab.membership, brute))
    _verdict(5, "estimation pipeline", [
        ("|p_hat - 0.3| <= 0.0045 (3 sigma)", within),
        ("stabilization membership equals brute force", bitwise),
    ])


def test_criterion_06_entropy_bridge():
    rng = random.Random(606)
    bridge_ok = True
    for _ in range(500):
        m = random_rational_probability(rng, max_atoms=10)
        bridge = partition_density_matrix(m, Partition.separating(m))
        if bridge.gap > 1e-9:
            bridge_ok = False
            break
    khinchin = khinchin_validate(cases=100)
    khinchin_ok = all(r.passed for r in khinchin)
    one_bit = entropy_bits([F(1, 2), F(1, 2)]) == 1.0
    _verdict(6, "entropy bridge", [
        ("S = H * ln2 within 1e-9 on 500 pairs", bridge_ok),
        ("Khinchin axiom suite passes on 100-schema corpus", khinchin_ok),
        ("H(1/2, 1/2) = 1 bit exactly", one_bit),
    ])


def test_criterion_07_spectral_suite():
    nprng = np.random.default_rng(707)
    mapping_ok = True
    for k in range(500):
        dim = 2 + k % 7  # dimensions 2..8
        obs = random_hermitian(nprng, dim)
        coeffs = np.round(nprng.uniform(-2, 2, size=5), 3)
        poly = lambda t: sum(c * t ** p for p, c in enumerate(coeffs))
        mapped = functional_calc(obs, poly)
        expected = [poly(s) for s in obs.spectrum]
        tol = 10 * mapped.dedup_tol
        forward = all(
            any(abs(v - s) <= tol for s in mapped.spectrum) for v in expected
        )
        backward = all(
            any(abs(v - s) <= tol for v in expected) for s in mapped.spectrum
        )
        if not (forward and backward):
            mapping_ok = False
            break

    resolution_ok = True
    for eps in (0.1, 0.01):
        for _ in range(20):
            obs = random_hermitian(nprng, 6)
            f = lambda t: t ** 3
            dec = epsilon_decomposition(obs, f, eps)
            approx = sum(
                f(t) * obs.spectral_projector(cell)
                for cell, t in zip(dec.cells, dec.sample_points)
            )
            exact = functional_calc(obs, f).matrix
            if np.linalg.norm(exact - approx, ord=2) > eps:
                resolution_ok = False

    questions_ok = True
    for _ in range(50):
        dim = 4
        rank = int(nprng.integers(1, dim))
        basis = np.linalg.qr(nprng.normal(size=(dim, dim))
                             + 1j * nprng.normal(size=(dim, dim)))[0]
        q = Question(basis[:, :rank] @ basis[:, :rank].conj().T)
        report = question_ops(q)
        rho = random_density(nprng, dim)
        idempotent = np.max(np.abs(q.matrix @ q.matrix - q.matrix)) <= 1e-9
        spectrum_01 = set(np.round(report.spectrum, 6)) <= {0.0, 1.0}
        complement_law = abs(
            rho.expectation(report.complement) - (1 - rho.expectation(q))
        ) <= 1e-9
        if not (idempotent and spectrum_01 and complement_law):
            questions_ok = False
            break

    _verdict(7, "spectral suite", [
        ("spectral mapping set equality on 500 draws", mapping_ok),
        ("resolution decomposition bound at 0.1 and 0.01", resolution_ok),
        ("question laws exact within 1e-9", questions_ok),
    ])


def test_criterion_08_uncertainty():
    nprng = np.random.default_rng(808)
    violations = 0
    for _ in range(1000):
        a = random_hermitian(nprng, 4)
        b = random_hermitian(nprng, 4)
        rho = random_density(nprng, 4)
        va, vb, bound = variance_and_uncertainty(a, b, rho)
        if va * vb < bound - 1e-9:
            violations += 1

    dirac_ok = True
    for _ in range(25):
        obs = random_hermitian(nprng, 4)
        for k in range(4):
            rho = DensityState.pure(obs.eigenvectors[:, k])
            va, _, _ = variance_and_uncertainty(obs, obs, rho)
            mu = spectral_measure(obs, rho)
            top = max(w for _, w in mu.atoms)
            if va > 1e-9 or abs(float(top) - 1.0) > 1e-9:
                dirac_ok = False

    _verdict(8, "uncertainty bound", [
        ("zero violations over 1000 triples", violations == 0),
        ("dispersion-free eigenstates give point masses", dirac_ok),
    ])


def test_criterion_09_dissipation():
    r, leak = F(2), F(1, 8)
    times = [0, 1, 2, 3]
    measures = [DiscreteMeasure([(r, 1 - leak * t), (r + 1, leak * t)]) for t in times]
    trace = EvolutionTrace(times, measures)
    report = decompose_evolution(trace)
    chi_ok = all(
        report.at(t).coefficient == m.weight_at(r) for t, m in zip(times, measures)
    )
    recon_ok = True
    for t, m in zip(times, measures):
        entry = report.at(t)
        parts = [(entry.coefficient, entry.surviving)] if entry.surviving else []
        if entry.escaped is not None:
            parts.append((1 - entry.coefficient, entry.escaped))
        if mixture(parts) != m:
            recon_ok = False

    part = Partition.separating(DiscreteMeasure.uniform([r, r + 1]))
    monotone = entropy_checks(trace, [part])
    dip_trace = EvolutionTrace([0, 1], [
        DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))]),
        DiscreteMeasure([(0, F(99, 100)), (1, F(1, 100))]),
    ])
    dip = entropy_checks(dip_trace, [Partition.separating(dip_trace.initial)])
    _verdict(9, "dissipation analysis", [
        ("coefficient equals surviving point mass", chi_ok),
        ("reconstruction exact per time", recon_ok),
        ("spreading trace judged monotone", monotone.monotone and not monotone.dissipation_free),
        ("entropy dip flagged", not dip.monotone),
    ])


def test_criterion_10_kolmogorov_feasibility():
    start = time.monotonic()
    spaces = {"a": [-1, 1], "b": [-1, 1]}
    pa = {-1: F(1, 3), 1: F(2, 3)}
    pb = {-1: F(1, 4), 1: F(3, 4)}
    constraints = [
        JointConstraint.of({"a": va, "b": vb}, pa[va] * pb[vb])
        for va in (-1, 1) for vb in (-1, 1)
    ]
    product_result = kolmogorov_check(spaces, constraints)
    product_ok = product_result.feasible and verify_joint(
        product_result.joint, spaces, constraints
    )

    triple = {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]}
    bell = [
        CorrelationConstraint(("a", "b"), F(-9, 10)),
        CorrelationConstraint(("a", "c"), F(-9, 10)),
        CorrelationConstraint(("b", "c"), F(-9, 10)),
    ]
    bell_result = kolmogorov_check(triple, bell)
    # Enumeration oracle: on each of the 8 atoms the pair-product sum is -1
    # or 3, so expectations below -1 in total are impossible.
    atom_sums = {
        sa * sb + sa * sc + sb * sc
        for sa in (-1, 1) for sb in (-1, 1) for sc in (-1, 1)
    }
    oracle_says_infeasible = min(atom_sums) == -1 and 3 * F(-9, 10) < -1
    elapsed = time.monotonic() - start
    _verdict(10, "classical model feasibility", [
        ("product tables feasible with exact joint", product_ok),
        ("correlation triple infeasible", not bell_result.feasible),
        ("certificate covers the triple", len(bell_result.certificate) == 3),
        ("oracle agrees", oracle_says_infeasible),
        ("runtime < 1 s", elapsed < 1.0),
    ])


def _pauli_basis():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0])
    return [HermitianObservable(m) for m in (np.eye(2), x, y, z)]


def _gellmann_like(dim: int):
    mats = [np.eye(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            mats.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[i, j] = -1j
            anti[j, i] = 1j
            mats.append(anti)
    for k in range(1, dim):
        diag = np.zeros(dim)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag))
    return [HermitianObservable(m) for m in mats]


def test_criterion_11_tomography():
    nprng = np.random.default_rng(1111)
    checks = []
    for dim in (2, 3):
        # Informationally complete observable set; the commuting subset is a
        # nondegenerate diagonal observable with its powers and the identity.
        complete_set = _pauli_basis() if dim == 2 else _gellmann_like(dim)
        diag = HermitianObservable(np.diag(np.arange(1.0, dim + 1.0)))
        commuting = [diag] + [
            functional_calc(diag, lambda t, p=p: t ** p) for p in range(2, dim)
        ] + [HermitianObservable(np.eye(dim))]
        commuting = commuting[:dim]
        complete_set = complete_set + commuting
        frame = commuting_eigenframe(commuting)

        weights_star = nprng.dirichlet(np.ones(dim))
        rho_star = DensityState((frame * weights_star) @ frame.conj().T)
        purity_star = float(np.sum(weights_star ** 2))

        problem = ReconstructionProblem(
            commuting[:1],
            [rho_star.expectation(commuting[0])],
            [frame[:, 0]],
        )
        prefixes_stable = True
        for k in range(1, dim):
            before = problem.expectations
            problem = problem.extended(
                commuting[k], rho_star.expectation(commuting[k]), frame[:, k]
            )
            prefixes_stable &= problem.expectations[:k] == before
        result = tomography_reconstruct(problem)

        residual_ok = max(abs(v) for v in result.residuals) <= 1e-8
        mass_ok = sum(result.weights) == 1

        # Second candidate from a different frame: same trace data cannot
        # beat the true-frame purity.
        other_frame = np.linalg.qr(
            nprng.normal(size=(dim, dim)) + 1j * nprng.normal(size=(dim, dim))
        )[0]
        other_obs = [
            HermitianObservable(np.outer(other_frame[:, k], other_frame[:, k].conj()))
            for k in range(dim)
        ]
        other_problem = ReconstructionProblem(
            other_obs,
            [rho_star.expectation(obs) for obs in other_obs],
            [other_frame[:, k] for k in range(dim)],
        )
        candidates = [result, tomography_reconstruct(other_problem)]
        chosen = purity_selection(candidates, purity_target=purity_star)
        _, chosen_purity = vn_entropy_and_purity(chosen.state)
        selection_ok = abs(chosen_purity - purity_star) <= 1e-6

        spans = np.linalg.matrix_rank(np.stack(
            [obs.matrix.reshape(-1) for obs in complete_set]
        ))
        checks.append((f"d={dim} observable set informationally complete",
                       spans == dim * dim))
        checks.append((f"d={dim} residuals <= 1e-8", residual_ok))
        checks.append((f"d={dim} weights sum to one exactly", bool(mass_ok)))
        checks.append((f"d={dim} purity selection within 1e-6", selection_ok))
        checks.append((f"d={dim} staged growth keeps expectations bit-stable",
                       prefixes_stable))
    _verdict(11, "tomography", checks)


CLI_FIXTURES = {
    "simulate": {
        "kind": "simulate",
        "seed": 42,
        "inputs": {
            "truth": {"atoms": [["0", "0.7"], ["1", "0.3"]]},
            "target": {"singletons": ["1"]},
            "trials": 300,
        },
    },
    "estimate": {
        "kind": "estimate",
        "seed": 42,
        "inputs": {
            "truth": {"atoms": [["0", "0.5"], ["1", "0.5"]]},
            "target": {"singletons": ["1"]},
            "trials": 400,
        },
    },
    "entropy": {
        "kind": "entropy",
        "inputs": {
            "measure": {"atoms": [["0", "0.25"], ["1", "0.25"], ["2", "0.5"]]},
            "partition": {
                "window": ["-1", "3"],
                "cells": [{"singletons": ["0"]}, {"singletons": ["1"]},
                          {"singletons": ["2"]}],
            },
        },
    },
    "dissipation": {
        "kind": "dissipation",
        "inputs": {
            "times": [0, 1, 2],
            "measures": [
                {"atoms": [["2", "1"]]},
                {"atoms": [["2", "0.875"], ["3", "0.125"]]},
                {"atoms": [["2", "0.75"], ["3", "0.25"]]},
            ],
            "partition": {
                "window": ["1", "4"],
                "cells": [{"singletons": ["2"]}, {"singletons": ["3"]}],
            },
        },
    },
    "tomography": {
        "kind": "tomography",
        "inputs": {
            "problem": {
                "observables": [
                    [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                ],
                "expectations": [0.4, 1.0],
                "frame": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        },
    },
    "kolmogorov": {
        "kind": "kolmogorov",
        "inputs": {
            "outcomes": {"a": [-1, 1], "b": [-1, 1]},
            "constraints": [
                {"type": "marginal", "observable": "a", "value": 1, "prob": "1/2"},
            ],
        },
    },
    "spectral": {
        "kind": "spectral",
        "inputs": {
            "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        },
    },
    "validate": {
        "kind": "validate",
        "inputs": {
            "system": {
                "observables": {
                    "z": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                    "z2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                },
                "states": {"mix": [[[0.7, 0], [0, 0]], [[0, 0], [0.3, 0]]]},
                "suitability": [["mix", "z"], ["mix", "z2"]],
            },
            "relations": {"powers": [["z", 2, "z2"]], "compatible": [["z", "z2"]]},
        },
    },
}


def test_criterion_12_cli_determinism(tmp_path):
    checks = []
    outputs = {}
    for name, payload in CLI_FIXTURES.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        code_a = cli_main([name, "--config", str(config), "--out", str(dir_a)])
        code_b = cli_main([name, "--config", str(config), "--out", str(dir_b)])
        same = all(
            (dir_a / p.name).read_bytes() == p.read_bytes()
            for p in sorted(dir_b.iterdir())
        )
        checks.append((f"{name} byte-identical", same and code_a == code_b == 0))
        outputs[name] = dir_a

    # report consumes prior artifacts and must be deterministic too
    report_config = tmp_path / "report.json"
    report_config.write_text(json.dumps({
        "kind": "report",
        "inputs": {"artifacts": [str(outputs["dissipation"] / "dissipation.csv")]},
    }), encoding="utf-8")
    ra, rb = tmp_path / "report_a", tmp_path / "report_b"
    code_a = cli_main(["report", "--config", str(report_config), "--out", str(ra)])
    code_b = cli_main(["report", "--config", str(report_config), "--out", str(rb)])
    checks.append(("report byte-identical",
                   code_a == code_b == 0 and
                   (ra / "report.csv").read_bytes() == (rb / "report.csv").read_bytes()))

    # exit code contract: pass 0 / validation failure 2 / error 1
    bell = tmp_path / "bell.json"
    bell.write_text(json.dumps({
        "kind": "kolmogorov",
        "inputs": {
            "outcomes": {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]},
            "constraints": [
                {"type": "correlation", "observables": ["a", "b"], "value": "-9/10"},
                {"type": "correlation", "observables": ["a", "c"], "value": "-9/10"},
                {"type": "correlation", "observables": ["b", "c"], "value": "-9/10"},
            ],
        },
    }), encoding="utf-8")
    code_fail = cli_main(["kolmogorov", "--config", str(bell), "--out", str(tmp_path / "fail")])
    checks.append(("infeasible fixture exits 2", code_fail == 2))
    checks.append(("certificate still written",
                   (tmp_path / "fail" / "kolmogorov.csv").exists()))

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code_err = cli_main(["simulate", "--config", str(broken), "--out", str(tmp_path)])
    checks.append(("malformed config exits 1", code_err == 1))

    _verdict(12, "CLI determinism and exit codes", checks)


def _chsh_constraints(vector):
    """One correlation per compatible pair (A_i, B_j) of the CHSH setup:
    A_1 = Z (x) I, A_2 = X (x) I, B_1 = I (x) (Z + X)/sqrt 2 and
    B_2 = I (x) (Z - X)/sqrt 2.  Each correlation is read off the pair's joint
    spectral measure in the pure state ``vector`` and made a rational."""
    eye, x, z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    first = {"A1": np.kron(z, eye), "A2": np.kron(x, eye)}
    second = {"B1": np.kron(eye, (z + x) / math.sqrt(2)),
              "B2": np.kron(eye, (z - x) / math.sqrt(2))}
    state = DensityState.pure(np.asarray(vector, dtype=float))
    constraints = []
    for a, ma in first.items():
        for b, mb in second.items():
            joint = joint_spectral_measure(HermitianObservable(ma), HermitianObservable(mb), state)
            value = sum(float(s) * float(t) * float(w) for (s, t), w in joint.atoms)
            constraints.append(CorrelationConstraint((a, b), F(value).limit_denominator(10 ** 6)))
    return constraints


def test_criterion_13_chsh_correlations_into_classical_verdicts():
    """The Bell state's four correlations violate E11 + E12 + E21 - E22 <= 2
    (Clauser, Horne, Shimony and Holt, 1969), so no joint classical model
    exists and the Farkas vector is that inequality; |00> has one."""
    spaces = {name: [-1, 1] for name in ("A1", "A2", "B1", "B2")}
    bell = _chsh_constraints([1.0 / math.sqrt(2), 0.0, 0.0, 1.0 / math.sqrt(2)])
    entangled = kolmogorov_check(spaces, bell)
    product = _chsh_constraints([1.0, 0.0, 0.0, 0.0])
    classical = kolmogorov_check(spaces, product)
    _verdict(13, "CHSH correlations into classical verdicts", [
        ("Bell state infeasible", not entangled.feasible),
        ("Farkas vector is the CHSH inequality", entangled.farkas == (-2, 1, 1, 1, -1)),
        ("core of 4", len(entangled.certificate) == 4),
        ("Farkas vector verifies", verify_farkas(entangled.farkas, spaces, bell)),
        ("|00> feasible", classical.feasible),
        ("|00> joint verifies",
         classical.feasible and verify_joint(classical.joint, spaces, product)),
    ])

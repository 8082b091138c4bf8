import math
from fractions import Fraction as F

import numpy as np
import pytest

from oplab.measures import BorelSet, DiscreteMeasure, Partition
from oplab.serialization import (
    borel_from_json,
    borel_to_json,
    format_scalar,
    labsystem_from_json,
    labsystem_to_json,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    measure_to_json,
    parse_scalar,
    partition_from_json,
    partition_to_json,
    reconstruction_from_json,
    reconstruction_to_json,
    relations_from_json,
    vector_from_json,
)
from oplab.spectral import DensityState, HermitianObservable, LabSystem
from oplab.algebra import ReconstructionProblem

from conftest import random_rational_probability


class TestScalars:
    @pytest.mark.parametrize("value,expected", [
        (F(3, 10), "0.3"),
        (F(1, 4), "0.25"),
        (F(5), "5"),
        (F(-7, 2), "-3.5"),
        (F(1, 3), "1/3"),
        (F(22, 7), "22/7"),
        (F(1, 1024), "0.0009765625"),
    ])
    def test_exact_formatting(self, value, expected):
        assert format_scalar(value, "rational") == expected

    def test_round_trip(self, rng):
        for _ in range(200):
            q = F(rng.randint(-999, 999), rng.randint(1, 999))
            assert parse_scalar(format_scalar(q, "rational"), "rational") == q

    def test_float_mode(self):
        assert format_scalar(0.25, "float") == 0.25
        assert parse_scalar("0.25", "float") == 0.25


class TestMeasureJson:
    def test_round_trip_rational(self, rng):
        for _ in range(50):
            m = random_rational_probability(rng)
            assert measure_from_json(measure_to_json(m)) == m

    def test_round_trip_float(self):
        m = DiscreteMeasure([(0.5, 0.25), (1.5, 0.75)], mode="float")
        payload = measure_to_json(m)
        assert payload == {"atoms": [[0.5, 0.25], [1.5, 0.75]]}
        assert measure_from_json(payload, mode="float") == m

    def test_strings_are_exact(self):
        m = DiscreteMeasure([(F(1, 3), F(1, 3)), (1, F(2, 3))])
        payload = measure_to_json(m)
        assert payload["atoms"][0] == ["1/3", "1/3"]


class TestBorelAndPartition:
    def test_borel_round_trip(self):
        s = BorelSet(intervals=[(0, 1), (2, math.inf)], singletons=[F(3, 2)])
        assert borel_from_json(borel_to_json(s)) == s

    def test_unbounded_encoding(self):
        payload = borel_to_json(BorelSet.interval(-math.inf, 0))
        assert payload["intervals"] == [["-inf", "0"]]

    def test_partition_round_trip(self):
        part = Partition.dyadic(0, 1, 2)
        again = partition_from_json(partition_to_json(part))
        assert again.window == part.window
        assert again.cells == part.cells


class TestMatrices:
    def test_complex_round_trip(self, nprng):
        m = nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3))
        assert np.allclose(matrix_from_json(matrix_to_json(m)), m)

    def test_parts_are_kept_bit_for_bit(self):
        payload = [[[-0.0, 0.0], [1, -0.0]], [[0.1, -2.5e-300], [2 ** 60 + 1, 10 ** 30]]]
        reference = np.array([[complex(e[0], e[1]) for e in row] for row in payload])
        got = matrix_from_json(payload)
        assert got.dtype == np.complex128 and got.shape == (2, 2)
        assert got.view(np.float64).tobytes() == reference.view(np.float64).tobytes()
        vector = vector_from_json(payload[0])
        assert vector.view(np.float64).tobytes() == reference[0].view(np.float64).tobytes()

    @pytest.mark.parametrize("payload, message", [
        ([[[]]], r"matrix row 0 entry 0 is not a \[re, im\] pair"),
        ([[[1, 0], [1]]], r"matrix row 0 entry 1 "),
        ([[[1, 0]], [[1, 2, 3]]], r"matrix row 1 entry 0 "),
        ([[[1, 0]], [["1", 0]]], r"matrix row 1 entry 0 "),
        ([[[None, 0]]], r"matrix row 0 entry 0 "),
        ([[[1, 0]], [[1, 0], [2, 0]]], r"row 1 has 2 entries, row 0 has 1"),
        ([[[1, 0]], []], r"row 1 must be a non-empty list"),
        ([], r"matrix must be a non-empty list"),
        ({"re": 1}, r"matrix must be a non-empty list"),
        ([[[10 ** 400, 0]]], r"matrix row 0 entry 0 "),
    ])
    def test_matrix_entries_must_be_pairs_of_numbers(self, payload, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_json(payload)

    @pytest.mark.parametrize("payload", [[], [[1, 0], [2]], [[1, 0], "ab"], "ab"])
    def test_vector_entries_must_be_pairs_of_numbers(self, payload):
        with pytest.raises(ValueError, match="vector"):
            vector_from_json(payload)

    def test_labsystem_round_trip(self):
        system = LabSystem(
            observables={"z": HermitianObservable(np.diag([1.0, -1.0]))},
            states={"mix": DensityState.maximally_mixed(2)},
            suitability=[("mix", "z")],
        )
        again = labsystem_from_json(labsystem_to_json(system))
        assert set(again.observables) == {"z"}
        assert again.suitability == system.suitability
        assert np.allclose(again.states["mix"].matrix, system.states["mix"].matrix)


class TestRelationsAndProblems:
    def test_relations_parse(self):
        rel = relations_from_json({
            "powers": [["z", 2, "z2"]],
            "compatible": [["z", "z2"]],
            "scalings": [["z", 2, "2z"]],
        })
        assert rel.powers == (("z", 2, "z2"),)
        assert rel.all_compatible_pairs() == [("z", "z2")]

    def test_reconstruction_round_trip(self):
        problem = ReconstructionProblem(
            observables=[HermitianObservable(np.diag([1.0, -1.0]))],
            expectations=[0.4],
            frame=[np.array([1.0, 0.0])],
        )
        again = reconstruction_from_json(reconstruction_to_json(problem))
        assert again.expectations == problem.expectations
        assert np.allclose(again.frame, problem.frame)
        assert np.allclose(again.observables[0].matrix, problem.observables[0].matrix)

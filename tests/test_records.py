"""The frozen value records of every layer: construction, immutability,
equality, hashing and the ``repr`` that ``kolmogorov.csv`` writes."""

import ast
import itertools
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oplab
from oplab import _base
from oplab.algebra import ConditionReport, DeclaredRelations
from oplab.ensembles import TrialLog, run_ensemble
from oplab.kolmogorov import (
    ConditionalConstraint,
    CorrelationConstraint,
    ExpectationConstraint,
    JointConstraint,
    KolmogorovResult,
    MarginalConstraint,
)
from oplab.measures import BorelSet, DiscreteMeasure
from oplab.simplex import FeasibilityResult

PACKAGE = Path(oplab.__file__).resolve().parent

RECORDS = {
    "algebra": ["ConditionReport", "DeclaredRelations", "EmbeddingEntry", "TomographyResult"],
    "diagnostics": ["AffineReport", "AxiomResult", "EntropyEvolutionReport",
                    "InformativityVerdict"],
    "dynamics": ["ContinuityReport", "TimeSlice"],
    "ensembles": ["CesaroReport", "DensityReport", "EstimateReport", "MinTrialsReport",
                  "PlaceSelectionReport", "TrialLog"],
    "information": ["EntropyBridge", "EntropyReport"],
    "kolmogorov": ["ConditionalConstraint", "CorrelationConstraint", "ExpectationConstraint",
                   "JointConstraint", "KolmogorovResult", "MarginalConstraint"],
    "measures": ["LebesgueDecomposition"],
    "simplex": ["FeasibilityResult"],
    "spectral": ["QuestionReport", "ResolutionDecomposition"],
}


def _is_record(cls) -> bool:
    return isinstance(cls, type) and vars(cls).get("__setattr__") is _base._frozen_setattr


def _records() -> list:
    found = []
    for layer in RECORDS:
        module = getattr(oplab, layer)
        found += [cls for name, cls in sorted(vars(module).items())
                  if _is_record(cls) and cls.__module__ == module.__name__]
    return found


ALL = _records()


def _fields(cls) -> tuple:
    return tuple(cls.__annotations__)


def _values(cls) -> tuple:
    """A label per field, except TrialLog's outcomes: a uint8 array of 0/1,
    which the log reads back as an equal array."""
    values = tuple(f"{cls.__name__}.{name}" for name in _fields(cls))
    if cls is TrialLog:
        return values[:3] + (np.array([0, 1, 1], dtype=np.uint8),) + values[4:]
    return values


def _plain(values: tuple) -> tuple:
    """``values`` with each array as its dtype and bytes, so that tuples of
    them compare by value."""
    return tuple((v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values)


def _key(cls, values: tuple) -> tuple:
    """What equality and hashing compare: the field tuple, except that
    TrialLog takes its outcomes as their number and their bits, packed
    little-endian within each byte."""
    if cls is TrialLog:
        outcomes = values[3]
        packed = np.packbits(outcomes, bitorder="little").tobytes()
        return values[:3] + (outcomes.size, packed) + values[4:]
    return values


def test_every_layer_record_is_found_and_none_is_a_dataclass():
    assert {layer: [cls.__name__ for cls in ALL if cls.__module__ == f"oplab.{layer}"]
            for layer in RECORDS} == RECORDS
    assert len(ALL) == 28
    imports = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            imports += [f"{path.relative_to(PACKAGE)}: {n}" for n in names
                        if n in ("dataclasses", "inspect")]
    assert imports == []


def test_the_decorator_generates_no_source():
    tree = ast.parse((PACKAGE / "_base.py").read_text(encoding="utf-8"))
    calls = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not calls & {"exec", "eval", "compile"}


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_construction_by_position_and_keyword(self, cls):
        names, values = _fields(cls), _values(cls)
        by_position = cls(*values)
        assert _plain(tuple(getattr(by_position, name) for name in names)) == _plain(values)
        assert cls(**dict(zip(names, values))) == by_position
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == by_position

    def test_a_bad_call_raises_type_error(self, cls):
        names, values = _fields(cls), _values(cls)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values, "extra")
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values, **{names[0]: values[0]})
        # A property named like a field reads it and gives it no default.
        required = [name for name in names
                    if not (name in vars(cls) and not isinstance(vars(cls)[name], property))]
        for name in required:
            with pytest.raises(TypeError, match=f"missing required arguments: .*{name}"):
                cls(**{n: v for n, v in zip(names, values) if n != name})

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        obj = cls(*_values(cls))
        name = _fields(cls)[0]
        with pytest.raises(AttributeError):
            setattr(obj, name, "changed")
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, name) == _values(cls)[0]

    def test_equality_and_hash_follow_the_field_tuple(self, cls):
        values = _values(cls)
        a, b = cls(*values), cls(*values)
        assert a == b and hash(a) == hash(b) == hash(_key(cls, values))
        assert a != cls(*values[:-1], "other")
        assert a != values and values != a

    def test_repr_names_every_field(self, cls):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(_fields(cls), _values(cls)))
        assert repr(cls(*_values(cls))) == f"{cls.__name__}({inner})"


def test_records_of_different_classes_are_never_equal():
    for first, second in itertools.combinations(ALL, 2):
        if len(_fields(first)) == len(_fields(second)):
            values = tuple(range(len(_fields(first))))
            if TrialLog in (first, second):  # its outcomes must be a sequence of 0/1
                values = values[:3] + ((1, 0),) + values[4:]
            assert first(*values) != second(*values), (first.__name__, second.__name__)
    assert ExpectationConstraint("x", 1) != CorrelationConstraint("x", 1)
    assert MarginalConstraint("x", 1, 0) != ("x", 1, 0)


def test_defaults_fill_in_and_stay_readable_on_the_class():
    assert KolmogorovResult.solves == 1 and KolmogorovResult.farkas is None
    assert KolmogorovResult.pivots == 0
    assert FeasibilityResult.farkas is None and FeasibilityResult.pivots == 0
    assert DeclaredRelations.powers == ()
    result = KolmogorovResult(True, {}, None, F(0), ("x",))
    assert (result.farkas, result.solves) == (None, 1)
    assert KolmogorovResult(True, {}, None, F(0), ("x",), solves=3).solves == 3
    assert DeclaredRelations() == DeclaredRelations((), (), (), (), ())
    assert ConditionReport("c", True, 0.0).witness == ""


def test_repr_pins():
    assert (repr(MarginalConstraint("x1", 42, "19/60"))
            == "MarginalConstraint(observable='x1', value=42, prob='19/60')")
    assert (repr(JointConstraint.of({"x1": "0", "x0": 1}, "1/4"))
            == "JointConstraint(events=(('x0', 1), ('x1', '0')), prob='1/4')")
    assert (repr(ConditionalConstraint.of({"a": 1}, {"b": -1}, F(1, 3)))
            == "ConditionalConstraint(event=(('a', 1),), given=(('b', -1),), prob=Fraction(1, 3))")
    assert (repr(CorrelationConstraint(("a", "b"), "0.5"))
            == "CorrelationConstraint(observables=('a', 'b'), value='0.5')")
    assert repr(ExpectationConstraint("a", 0)) == "ExpectationConstraint(observable='a', value=0)"
    assert (repr(KolmogorovResult(True, {(1,): F(1)}, None, F(0), ("x",)))
            == "KolmogorovResult(feasible=True, joint={(1,): Fraction(1, 1)}, certificate=None,"
               " deficit=Fraction(0, 1), observables=('x',), farkas=None, solves=1, pivots=0)")
    assert (repr(ConditionReport("center", False, 0.25))
            == "ConditionReport(name='center', passed=False, residual=0.25, witness='')")


class TestTrialLog:
    def _log(self, outcomes, **kwargs):
        truth = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        return TrialLog(7, truth, BorelSet.point(1), outcomes, F(1, 2), **kwargs)

    def test_outcomes_become_uint8(self):
        log = self._log([0, 1, True])
        assert log.outcomes.dtype == np.uint8
        assert log.outcomes.tolist() == [0, 1, 1]
        assert log.n == 3

    def test_outcomes_become_uint8_by_keyword_too(self):
        truth = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        log = TrialLog(seed=7, truth=truth, target=BorelSet.point(1),
                       outcomes=np.array([1, 0], dtype=np.int64), success_probability=F(1, 2))
        assert log.outcomes.dtype == np.uint8
        assert log.outcomes.tolist() == [1, 0]

    def test_frozen(self):
        log = self._log([1])
        with pytest.raises(AttributeError):
            log.outcomes = np.zeros(1, dtype=np.uint8)
        with pytest.raises(AttributeError):
            del log.seed

    def test_equality_is_by_class_and_fields(self):
        log = self._log([1])
        assert log == log
        assert log != tuple(getattr(log, name) for name in TrialLog.__annotations__)

    def test_equality_and_hash_read_the_outcomes_by_value(self):
        truth = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        first, again = (run_ensemble(truth, BorelSet.point(1), 100, 1) for _ in range(2))
        assert first.outcomes is not again.outcomes
        assert first == again and hash(first) == hash(again)
        assert first != first.prefix(99)
        assert self._log([0, 1]) != self._log([1, 0])
        assert len({self._log([0, 1]), self._log(np.array([0, 1])), self._log([1, 1])}) == 2

    def test_writing_to_the_given_array_leaves_the_log_as_it_was(self):
        given = np.array([0, 1], dtype=np.uint8)
        log = self._log(given)
        logs, before = {log}, hash(log)
        given[0] = 1
        assert log.outcomes.tolist() == [0, 1] and hash(log) == before and log in logs
        with pytest.raises(ValueError):
            log.outcomes[0] = 1
        view = given.view()
        view.flags.writeable = False  # read-only, but its base is not
        from_view = self._log(view)
        given[:] = 0
        assert from_view.outcomes.tolist() == [1, 1]

    def test_a_run_and_its_prefixes_share_their_packed_bits(self):
        """A log keeps ceil(n / 8) read-only bytes, outcome i in bit i % 8 of
        byte i // 8 and zeros past n; a prefix views them without a copy, and
        each read of ``outcomes`` unpacks a fresh read-only array."""
        truth = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        log = run_ensemble(truth, BorelSet.point(1), 100, 1)
        bits = log._bits
        assert bits.dtype == np.uint8 and bits.size == 13 and not bits.flags.writeable
        assert bits.tobytes() == np.packbits(log.outcomes, bitorder="little").tobytes()
        assert bits[-1] >> 4 == 0
        for m in (1, 10, 16, 99, 100):
            part = log.prefix(m)._bits
            assert part.base is bits and part.size == -(-m // 8), m
        first, again = log.outcomes, log.outcomes
        assert first is not again and not np.shares_memory(first, again)
        assert not first.flags.writeable and first.dtype == np.uint8
        given = self._log([1, 0, 1])
        assert given._bits.tobytes() == b"\x05" and not given._bits.flags.writeable

    def test_only_a_vector_of_zeros_and_ones_is_taken(self):
        for given in ([], [True, False], np.array([0.0, 1.0]), (1, 0), np.zeros(9, np.int64)):
            assert self._log(given).outcomes.tolist() == [int(x) for x in given]
        for given, message in [
            ([2, 0, 1], r"outcomes\[0\] is 2, not 0 or 1"),
            ([0, 1, 256], r"outcomes\[2\] is 256, not 0 or 1"),
            ([0, 1, -1], r"outcomes\[2\] is -1"),
            ([0, 0.5], r"outcomes\[1\] is 0.5"),
            ([1, float("nan")], r"outcomes\[1\] is nan"),
            ([0, None], r"outcomes\[1\] is None"),
            (["1", "0"], r"outcomes\[0\] is '1'"),
            (np.array([[0, 1], [1, 0]]), r"outcomes\[0\] is a sequence, not 0 or 1"),
            (300, r"a 1-D sequence of 0/1, not 300"),
            ([[0, 1], [1]], r"a 1-D sequence of 0/1"),
        ]:
            with pytest.raises(ValueError, match=message):
                self._log(given)

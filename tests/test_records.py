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
    "dynamics": ["AffineReport", "ContinuityReport", "EntropyEvolutionReport", "TimeSlice"],
    "ensembles": ["CesaroReport", "DensityReport", "EstimateReport", "MinTrialsReport",
                  "PlaceSelectionReport", "TrialLog"],
    "information": ["AxiomResult", "EntropyBridge", "EntropyReport", "InformativityVerdict"],
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
    """A label per field, except TrialLog's outcomes: a read-only uint8
    array, which the log keeps as it is given."""
    values = tuple(f"{cls.__name__}.{name}" for name in _fields(cls))
    if cls is TrialLog:
        outcomes = np.array([0, 1, 1], dtype=np.uint8)
        outcomes.flags.writeable = False
        return values[:3] + (outcomes,) + values[4:]
    return values


def _key(values: tuple) -> tuple:
    """``values`` with each array as its bytes, which is what equality and
    hashing compare."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)


def test_every_layer_record_is_found_and_none_is_a_dataclass():
    assert {layer: [cls.__name__ for cls in ALL if cls.__module__ == f"oplab.{layer}"]
            for layer in RECORDS} == RECORDS
    assert len(ALL) == 28
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            imports += [f"{path.name}: {n}" for n in names if n in ("dataclasses", "inspect")]
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
        assert tuple(getattr(by_position, name) for name in names) == values
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
        required = [name for name in names if name not in vars(cls)]
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
        assert a == b and hash(a) == hash(b) == hash(_key(values))
        assert a != cls(*values[:-1], "other")
        assert a != values and values != a

    def test_repr_names_every_field(self, cls):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(_fields(cls), _values(cls)))
        assert repr(cls(*_values(cls))) == f"{cls.__name__}({inner})"


def test_records_of_different_classes_are_never_equal():
    for first, second in itertools.combinations(ALL, 2):
        if len(_fields(first)) == len(_fields(second)):
            values = tuple(range(len(_fields(first))))
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
        assert self._log(view).outcomes is not view

    def test_a_run_and_its_prefixes_share_their_outcomes(self):
        truth = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
        log = run_ensemble(truth, BorelSet.point(1), 100, 1)
        assert not log.outcomes.flags.writeable
        assert log.prefix(10).outcomes.base is log.outcomes

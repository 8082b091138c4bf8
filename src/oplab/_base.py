"""What every layer builds on: the two arithmetic modes, the one scalar
coercion, and frozen value records.

A plain module, not a lazy layer: `oplab.kolmogorov`, `oplab.serialization`
and `oplab.cli` read scalars through it without running `oplab.measures`,
which re-exports its names.  `record` stands in for
``dataclasses.dataclass(frozen=True)``, whose import pulls in ``inspect`` and
whose every use compiles generated source, so that a short CLI job pays for
neither.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction
from typing import Union

RATIONAL = "rational"
FLOAT = "float"

# Largest decimal exponent a scalar string may carry: Fraction("1eN") builds
# 10**N, so an unbounded exponent costs unbounded time and memory.
MAX_SCALAR_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")

Scalar = Union[Fraction, float]
ScalarLike = Union[Fraction, float, int, str]
_Endpoint = Union[Fraction, float]  # Fractions plus the +-inf sentinels


def to_scalar(value: ScalarLike, mode: str) -> Scalar:
    """Coerce ``value`` to the scalar type of ``mode``.

    Accepts Fractions, ints and other ``numbers.Rational`` values (numpy
    integers included), floats, and decimal or ``"p/q"`` strings.  Rational
    mode converts floats through their exact binary expansion, so the
    conversion never rounds.  Non-finite values, zero denominators and
    decimal exponents beyond ``MAX_SCALAR_EXPONENT`` raise ``ValueError`` in
    both modes.
    """
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError("non-finite scalar")
            return Fraction(value)
        if isinstance(value, str):
            return _fraction_from_str(value)
        if isinstance(value, (int, numbers.Rational)):
            return Fraction(value)
        raise TypeError(f"cannot convert {type(value).__name__} to rational scalar")
    try:
        out = float(_fraction_from_str(value) if isinstance(value, str) and "/" in value else value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError("non-finite scalar")
    return out


def _fraction_from_str(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent is not None and abs(int(exponent.group(1))) > MAX_SCALAR_EXPONENT:
        raise ValueError(f"scalar exponent beyond MAX_SCALAR_EXPONENT = {MAX_SCALAR_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _to_endpoint(value) -> _Endpoint:
    """``±inf`` (a float, or the wire format's ``"inf"``/``"-inf"``) or an
    exact rational."""
    if isinstance(value, float) and math.isinf(value):
        return value
    if isinstance(value, str) and value in ("inf", "-inf"):
        return float(value)
    return to_scalar(value, RATIONAL)


# ---------------------------------------------------------------------------
# Frozen value records
# ---------------------------------------------------------------------------


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _bind(qualname: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call with ``args`` and ``kwargs``, in field
    order, or the TypeError a function with those parameters would raise."""
    if len(args) > len(names):
        raise TypeError(f"{qualname}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{qualname}() missing required arguments: {', '.join(missing)}")
    return tuple(values[name] if name in values else defaults[name] for name in names)


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen value record, as ``dataclass(frozen=True)`` does.

    The fields are the class's own annotations, in order; a class attribute
    of the same name is the field's default and stays readable on the class,
    except a property, which is no default but the field's reader: the class
    then takes the given value in its ``__post_init__``.
    The record gets an ``__init__`` taking the fields by position or keyword
    and then calling ``__post_init__`` if the class has one, the dataclass
    ``repr`` (``Name(field=value, ...)``), equality with instances of the
    same class only, the hash of the field tuple, and ``FrozenRecordError``
    (an AttributeError) on assignment or deletion.  A class whose field holds
    a value that has no hash defines ``_key``, the tuple that equality and
    hashing take in place of the field tuple.
    """
    names = tuple(cls.__annotations__)
    own = vars(cls)
    defaults = {name: own[name] for name in names
                if name in own and not isinstance(own[name], property)}
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(qualname, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def fields(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    key = own.get("_key", fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    for method in (__init__, __repr__, __eq__, __hash__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls

"""Config readers: measures, partitions, matrices, systems and constraints
from their JSON payloads, and the one place where a config value is checked.
Nothing here writes an output; `oplab.cli` does.

A measure's, a set's or a constraint's scalar is read by `to_scalar`.  In
rational mode an exact string (``"0.3"``, ``"1/3"``) reads as that rational,
so nothing is rounded on the way in; in float mode a plain JSON number does
as well as a string.  An integer or a plain number (a count, a time, a
factor) is read by `_as`, and a matrix part by ``complex()``.

Readers take the payload and, last, ``where``: the payload's path in the
config, used only in messages.  Every bad value raises `ConfigError` naming
its path, down to single scalars.  One shape language, `_read`'s, states
what a value must be: JSON kinds and leaf checks (a label, an exact scalar),
in lists, tuples and objects.  It is read two ways:

- an object field is read through `field`, against its shape
  (``inputs.trials must be an integer``, ``inputs.measure.atoms[0] must be a
  list``, ``inputs.center[0]: unknown observable label 'mix'``), so a string
  is never unpacked character by character, and a label that refers to
  another part of the config is checked where it is read;
- a payload is handed to its constructor as it is, and only when the
  constructor refuses it is the payload read against its shape, to name
  the first scalar at fault (``inputs.measures[0].atoms[2][1]: zero
  denominator``) or else the payload itself (``inputs.times: times must be
  strictly increasing``), so a valid config pays nothing for the walk.

`decode_config` reads a config's text as ``json.loads`` does, except that an
object member whose value is a rectangular block of [re, im] pairs of float
tokens becomes its complex array at once.  Its walk checks each block's
bracket skeleton; `oplab._blocks` parses the numbers of all blocks with
json's own number parser, in this process and a forked worker.  A d x d
matrix then costs its 16 bytes per entry, not a Python list and two floats
per entry (about 120 bytes).  `matrix_from_json` takes such a block as it
is; every other reader sees the lists that ``json.loads`` gives.  With the
config comes its SHA-256 for the footer, from `text_digest`, which alone
picks the module that hashes; the block worker calls it when one runs.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
from functools import partial
from json.decoder import WHITESPACE, scanstring
from typing import Mapping

from . import _np as np
from . import algebra, dynamics, ensembles, kolmogorov, measures, spectral
from ._base import RATIONAL, _to_endpoint, to_scalar


class ConfigError(Exception):
    """A config that cannot be read; the message names the field at fault."""


_DECODER = json.JSONDecoder()
# What bytes.translate deletes from a block to leave its brackets and commas.
_SKELETON = b"0123456789+-.eE \t\n\r"
_PIECE = 1 << 16  # characters of a block handed to json at a time


class _Block:
    """A rows x cols block of [re, im] pairs at ``text[start:end]``, by its
    bracket skeleton; `oplab._blocks` reads its numbers into its complex
    ``array``.  ValueError when the skeleton is not such a block."""

    __slots__ = ("start", "end", "shape", "array")

    def __init__(self, text: str, start: int, end: int):
        pieces = (text[at:min(at + _PIECE, end)] for at in range(start, end, _PIECE))
        # A non-ASCII character raises UnicodeEncodeError, a ValueError.
        skeleton = b"".join([piece.encode("ascii").translate(None, _SKELETON) for piece in pieces])
        cols = skeleton.find(b"]]") // 4
        row = b"[" + b",".join([b"[,]"] * cols) + b"]"
        rows = len(skeleton) // (len(row) + 1)
        if skeleton != b"[" + b",".join([row] * rows) + b"]":
            raise ValueError("not a block of [re, im] pairs")
        self.start, self.end, self.shape, self.array = start, end, (rows, cols), None

    def lists(self) -> list:
        return self.array.view(np.float64).reshape(*self.shape, 2).tolist()


def _plain(value):
    """``value`` as ``json.loads`` gives it."""
    return value.lists() if isinstance(value, _Block) else value


def decode_config(text: str) -> tuple:
    """``json.loads(text)``, except that an object member whose value opens
    with three brackets and is a rows x cols block of [re, im] pairs of
    finite float tokens becomes a `_Block`, which keeps no reference to
    ``text``; and `text_digest` of ``text``.

    The walk checks each block's bracket skeleton and parses no number.
    `oplab._blocks` then reads the numbers of every block at once; a block
    with an integer token, a non-finite value or a token json refuses goes
    back to json, which reads its member as lists.  On any other error the
    text goes to ``json.loads``, which raises its own error.

    The worker that reads blocks takes the digest before its first piece, so
    this process need not hash; only when no worker ran to its end is it
    taken here, after the decode.  A key or string that holds a lone
    surrogate, which no output can encode, is a ConfigError naming its path.
    """
    hashed = None
    try:
        members = []
        value, end = _value(text, _skip(text, 0), members)
        if _skip(text, end) < len(text):
            raise ValueError("extra data")
        if members:
            from . import _blocks
            hashed = _blocks.read(text, [found[key] for found, key in members], _PIECE,
                                  partial(text_digest, text))
        for found, key in members:
            if found[key].array is None:  # json ends it where the walk did
                found[key] = _DECODER.raw_decode(text, found[key].start)[0]
    except Exception:  # the fallback raises json's error, or reads the text
        value = json.loads(text)
    # Only an escape makes a lone surrogate.  Looking for one character runs
    # at memchr's speed, 0.13 ms on a 4 MB config, and for "\\u" 4.2 ms.
    if "\\" in text:
        _refuse_lone_surrogates(value, "config")
    return value, hashed or text_digest(text)


# Fewest characters of config text whose digest is taken from OpenSSL
# (``hashlib``) rather than from CPython's built-in SHA-256; an ASCII config
# has as many bytes.  Importing ``hashlib`` loads OpenSSL's
# ``_hashlib`` and ``libcrypto``: about 3.5 MB of a job's peak memory and
# 3-5 ms, against 0.3-0.5 ms for the built-in module.
# OpenSSL then hashes at about 0.9 ms/MiB, the built-in module at 5-8 ms/MiB.
# On a 2-core VM (Python 3.11, fresh processes, import and hash timed, 21
# alternated pairs each) the built-in module took 3.8 ms against 5.4 at
# 512 KiB, 3.8 against 3.9 at 768 KiB (faster in 16 of 21 pairs) and 4.5
# against 4.3 at 896 KiB (faster in 3 of 21).
OPENSSL_MIN_BYTES = 3 << 18

# CPython's built-in SHA-256 module, ``_sha2`` since 3.12 and ``_sha256``
# before.  Trying the other name first would cost a failed import, 0.2 ms.
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def text_digest(text: str) -> bytes:
    """The SHA-256 of ``text``'s UTF-8 encoding, which takes one encoded
    slice of `_PIECE` characters at a time, so no encoded copy of ``text`` is
    held: from CPython's built-in module below `OPENSSL_MIN_BYTES`
    characters, where the interpreter has one, else from ``hashlib``."""
    name = _BUILTIN_SHA256 if len(text) < OPENSSL_MIN_BYTES else "hashlib"
    try:
        sha = importlib.import_module(name).sha256()
    except ImportError:  # an interpreter with no built-in module
        sha = importlib.import_module("hashlib").sha256()
    for at in range(0, len(text), _PIECE):
        sha.update(text[at:at + _PIECE].encode("utf-8"))
    return sha.digest()


def _refuse_lone_surrogates(value, where: str) -> None:
    """ConfigError naming the first string or key of ``value``, the JSON
    value at ``where``, that holds a lone surrogate; no `_Block` is walked."""
    if isinstance(value, dict):
        for key, item in value.items():
            _refuse_lone_surrogates(key, where)
            inputs = (where, key) == ("config", "inputs")  # named as `field` names it
            _refuse_lone_surrogates(item, "inputs" if inputs else f"{where}.{key}")
    elif isinstance(value, list):
        for at, item in enumerate(value):
            _refuse_lone_surrogates(item, f"{where}[{at}]")
    elif isinstance(value, str) and re.search("[\ud800-\udfff]", value):
        raise ConfigError(f"{where}: {value!r} holds a lone surrogate")


def _skip(text: str, at: int) -> int:
    return WHITESPACE.match(text, at).end()


def _value(text: str, at: int, members: list) -> tuple:
    """The JSON value at ``at`` and its end; an object's members are walked
    here, every other value goes to json.  Each member that is a `_Block`
    is added to ``members`` as its object and key."""
    if not text.startswith("{", at):
        return _DECODER.raw_decode(text, at)
    found = {}
    at = _skip(text, at + 1)
    if text.startswith("}", at):
        return found, at + 1
    while True:
        if not text.startswith('"', at):
            raise ValueError("expected a key")
        key, at = scanstring(text, at + 1)
        at = _skip(text, at)
        if not text.startswith(":", at):
            raise ValueError("expected ':'")
        at = _skip(text, at + 1)
        found[key], at = _block(text, at) or _value(text, at, members)
        if isinstance(found[key], _Block):
            members.append((found, key))
        at = _skip(text, at)
        if text.startswith("}", at):
            return found, at + 1
        if not text.startswith(",", at):
            raise ValueError("expected ',' or '}'")
        at = _skip(text, at + 1)


def _block(text: str, at: int):
    """The `_Block` of the member value at ``at`` and its end, or None.  A
    block holds no string and no object, so it ends at the last ']' before
    the next '"' or '}'; the quote is found first, since the next '}' may lie
    past every later block of the object."""
    second = _skip(text, at + 1)
    if not (text.startswith("[", at) and text.startswith("[", second)
            and text.startswith("[", _skip(text, second + 1))):
        return None
    quote = text.find('"', at)
    if quote < 0:
        quote = len(text)
    stop = text.find("}", at, quote)
    end = text.rfind("]", at, quote if stop < 0 else stop) + 1
    if end <= at or stop < 0 and text.rfind("}", quote) < 0:
        return None
    try:
        return _Block(text, at, end), end
    except ValueError:  # any doubt: json reads the value
        return None


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a finite number"}


def _as(value, kind):
    """``value`` read as ``kind``, or None when it is not one.

    An ``int`` is a JSON integer or a string that ``int()`` reads; a ``float``
    is a JSON number or a string that ``float()`` reads, and finite.  Neither
    is ever a boolean.  Other kinds are JSON types, taken as they are.
    """
    value = _plain(value)
    if kind is not int and kind is not float:
        return value if isinstance(value, kind) else None
    if isinstance(value, bool) or not isinstance(value, (str, int, kind)):
        return None
    try:
        value = kind(value)
    except (ValueError, OverflowError):
        return None
    return value if kind is int or math.isfinite(value) else None


def field(payload, name: str, where: str, shape=None, default=_REQUIRED):
    """``payload[name]``, where ``payload`` is the JSON object at ``where``,
    read against ``shape`` (see `_read`) when that is given.

    Raises ConfigError when ``payload`` is not an object, when the field is
    missing and has no ``default``, or naming the first part of the value
    that does not fit ``shape``.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be an object")
    if name not in payload:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {name!r} in {where}")
        return default
    value = payload[name]
    return value if shape is None else _read(value, shape, (where, name))


def _path(where) -> str:
    """The path ``where`` names: a string, or a (parent, key) pair whose key
    is a list index or an object member's name."""
    if isinstance(where, str):
        return where
    parent, key = where
    return _path(parent) + (f"[{key}]" if isinstance(key, int) else f".{key}")


def _read(node, shape, where):
    """``node``, the JSON value at ``where`` (a path for `_path`), read
    against ``shape``, each kind as `_as` reads it; ConfigError names the
    first part that does not fit, and only then is a path joined.

    A shape is a JSON kind of `_KINDS`; a leaf check, a function that raises
    ValueError, TypeError or OverflowError on a bad value, which is kept as
    it is; ``[s]``, a list whose entries fit ``s``, or ``[s, ...]``, a
    non-empty one; a tuple of shapes, a list of that many entries that fit
    them in turn; or a dict of shapes, an object whose members, where
    present, fit their names' shapes.  Its key ``...`` maps the shape of
    every other member, and so does a leaf check that their names must pass.
    """
    node = _plain(node)
    if isinstance(shape, type):
        value = _as(node, shape)
        if value is None:
            raise ConfigError(f"{_path(where)} must be {_KINDS[shape]}")
        return value
    if isinstance(shape, (list, tuple)):
        if not isinstance(node, list):
            raise ConfigError(f"{_path(where)} must be a list")
        if isinstance(shape, tuple):
            if len(node) != len(shape):
                raise ConfigError(f"{_path(where)} must have {len(shape)} entries")
        elif not node and len(shape) > 1:
            raise ConfigError(f"{_path(where)} must be a non-empty list")
        elif isinstance(shape[0], type):  # a list of one kind, read in one pass
            kind = shape[0]
            read = [_as(entry, kind) for entry in node]
            if None in read:
                raise ConfigError(f"{_path((where, read.index(None)))} must be {_KINDS[kind]}")
            return read
        subs = shape if isinstance(shape, tuple) else shape[:1] * len(node)
        return [_read(entry, sub, (where, k)) for k, (entry, sub) in enumerate(zip(node, subs))]
    if isinstance(shape, dict):
        if not isinstance(node, dict):
            raise ConfigError(f"{_path(where)} must be an object")
        other = next((key for key in shape if not isinstance(key, str)), None)
        read = dict(node)
        for name, value in node.items():
            if name in shape:
                read[name] = _read(value, shape[name], (where, name))
            elif other is not None:
                if other is not ...:
                    _read(name, other, (where, name))
                read[name] = _read(value, shape[other], (where, name))
        return read
    try:
        shape(node)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{_path(where)}: {exc}") from None
    return node


def _built(build, where: str, node=None, shape=None):
    """``build()``, a constructor called on the payload ``node`` at ``where``.

    Only if it raises ValueError, TypeError, KeyError or OverflowError is
    ``node`` read against ``shape``: ConfigError names the first part of it
    that does not fit, or else ``where`` with the constructor's message.
    """
    try:
        return build()
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        if shape is not None:
            _read(node, shape, where)
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise ConfigError(f"{where}: {reason}") from exc


_rational = partial(to_scalar, mode=RATIONAL)


def _part(value) -> None:
    """Leaf check of a matrix entry's real or imaginary part: a JSON number,
    not a boolean, that ``complex()`` takes, finite as a double."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(complex(value, 0).real)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ValueError("not a finite number")


def _exponent(value) -> None:
    n = _as(value, int)
    if n is None or n < 0:
        raise ValueError("not an integer of at least 0")


def _label(labels, what: str):
    """Leaf check of a label: a string, and one of ``labels`` unless that is
    None."""
    def check(value):
        if not isinstance(value, str):
            raise TypeError(f"{what} label must be a string")
        if labels is not None and value not in labels:
            raise ValueError(f"unknown {what} label {value!r}")
    return check


_ENDPOINTS = (_to_endpoint, _to_endpoint)


def measure_from_json(payload: Mapping, mode: str = RATIONAL,
                      where: str = "measure") -> measures.DiscreteMeasure:
    atoms = field(payload, "atoms", where, [list])
    scalar = partial(to_scalar, mode=mode)
    return _built(lambda: measures.DiscreteMeasure(atoms, mode=mode), where,
                  payload, {"atoms": [(scalar, scalar)]})


def borel_from_json(payload: Mapping, where: str = "set") -> measures.BorelSet:
    intervals = field(payload, "intervals", where, [list], [])
    singletons = field(payload, "singletons", where, list, [])
    return _built(lambda: measures.BorelSet(intervals, singletons), where,
                  payload, {"intervals": [_ENDPOINTS], "singletons": [_rational]})


def partition_from_json(payload: Mapping, where: str = "partition") -> measures.Partition:
    window = field(payload, "window", where, list)
    cells = [borel_from_json(cell, f"{where}.cells[{k}]")
             for k, cell in enumerate(field(payload, "cells", where, list))]
    return _built(lambda: measures.Partition(window, cells), where, payload,
                  {"window": _ENDPOINTS})


def ensemble_of(payload: Mapping, mode: str, where: str = "inputs"):
    """The truth measure, the target set and the number of trials of a
    ``simulate`` or ``estimate`` config."""
    truth = measure_from_json(field(payload, "truth", where), mode, f"{where}.truth")
    target = borel_from_json(field(payload, "target", where), f"{where}.target")
    trials = field(payload, "trials", where, int)
    if not 1 <= trials <= ensembles.MAX_TRIALS:
        raise ConfigError(f"{where}.trials must be from 1 to MAX_TRIALS = {ensembles.MAX_TRIALS}")
    return truth, target, trials


def evolution_of(payload: Mapping, mode: str, where: str = "inputs") -> dynamics.EvolutionTrace:
    """The `EvolutionTrace` of the ``times`` and ``measures`` of ``payload``;
    a measure that is not a probability raises NotProbability naming it."""
    times = field(payload, "times", where, [float])
    family = [measure_from_json(m, mode, f"{where}.measures[{k}]")
              .require_probability(f"{where}.measures[{k}]")
              for k, m in enumerate(field(payload, "measures", where, list))]
    return _built(lambda: dynamics.EvolutionTrace(times, family), f"{where}.times")


def matrix_from_json(payload, where: str = "matrix") -> np.ndarray:
    """A complex matrix from a non-empty list of equally long rows of
    [re, im] pairs of finite numbers, or from a block that `decode_config`
    read, which is its array already."""
    if isinstance(payload, _Block):
        return payload.array
    return _built(lambda: _finite(_complex_rows(payload)), where, payload, [[(_part, _part)]])


def vector_from_json(payload, where: str = "vector") -> np.ndarray:
    """A complex vector from a non-empty list of [re, im] pairs of finite
    numbers."""
    return _built(lambda: _finite(_complex_pairs(payload, "vector")), where,
                  payload, [(_part, _part)])


def _complex_rows(payload) -> np.ndarray:
    if not isinstance(payload, list) or not payload:
        raise ValueError("must be a non-empty list of rows")
    rows = [_complex_pairs(row, f"row {i}") for i, row in enumerate(payload)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
    return np.array(rows)


def _complex_pairs(payload, name: str) -> np.ndarray:
    """``complex(re, im)`` of each [re, im] pair in ``payload``, which keeps
    both parts bit for bit, ``-0.0`` included; a boolean part is refused."""
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{name} must be a non-empty list of [re, im] pairs")
    values = [complex(real, imag) for real, imag in payload
              if bool not in (real.__class__, imag.__class__)]
    if len(values) != len(payload):
        raise ValueError("a part is a boolean")
    return np.asarray(values, dtype=complex)


def _finite(array: np.ndarray) -> np.ndarray:
    if not np.isfinite(array).all():
        raise ValueError("entries must be finite")
    return array


def operator_of(kind, payload, where: str):
    """``kind(matrix)``, a `HermitianObservable` or a `DensityState` of the
    matrix ``payload``."""
    matrix = matrix_from_json(payload, where)
    return _built(lambda: kind(matrix), where)


def _operator_maps(payload: Mapping, where: str):
    """The ``observables`` and ``states`` objects of ``payload``, each label
    mapped to its operator."""
    return [{label: operator_of(kind, m, f"{where}.{name}.{label}")
             for label, m in field(payload, name, where, dict).items()}
            for name, kind in (("observables", spectral.HermitianObservable),
                               ("states", spectral.DensityState))]


def labsystem_from_json(payload: Mapping, where: str = "system") -> spectral.LabSystem:
    observables, states = _operator_maps(payload, where)
    pairs = field(payload, "suitability", where,
                  [(_label(states, "state"), _label(observables, "observable"))])
    return _built(lambda: spectral.LabSystem(observables, states, [tuple(pair) for pair in pairs]),
                  where)


def relations_from_json(payload: Mapping, where: str = "relations",
                        labels=None) -> algebra.DeclaredRelations:
    """The declared relations; each label must be one of ``labels``, unless
    that is None."""
    label = _label(labels, "observable")
    shapes = {"powers": [(label, _exponent, label)], "sums": [(label, label, label)],
              "scalings": [(label, float, label)], "compatible": [(label, label)],
              "products": [(label, label, label)]}
    entries = {name: field(payload, name, where, shape, []) for name, shape in shapes.items()}
    return algebra.DeclaredRelations(
        powers=tuple((b, int(n), p) for b, n, p in entries["powers"]),
        sums=tuple(map(tuple, entries["sums"])),
        scalings=tuple(map(tuple, entries["scalings"])),
        compatible=tuple(map(tuple, entries["compatible"])),
        products=tuple(map(tuple, entries["products"])),
    )


def validation_of(payload: Mapping, where: str = "inputs"):
    """The algebraization, declared relations, center labels (or None) and
    embedding families (or None) of a ``validate`` config.  Every label they
    name must be one of the system's."""
    system = labsystem_from_json(field(payload, "system", where), f"{where}.system")
    images = field(payload, "algebraization", where, dict, None)
    if images is None:
        alg = algebra.Algebraization.identity(system)
    else:
        at = f"{where}.algebraization"
        alg = _built(lambda: algebra.Algebraization(system, *_operator_maps(images, at)), at)
    relations = relations_from_json(field(payload, "relations", where, default={}),
                                    f"{where}.relations", system.observables)
    observable = _label(system.observables, "observable")
    center = field(payload, "center", where, [observable], None)
    families = field(payload, "embedding_families", where,
                     {observable: [_label(system.states, "state"), ...]}, None)
    return alg, relations, center, families


def outcomes_of(payload: Mapping, where: str = "inputs") -> dict:
    """The ``outcomes`` object of ``payload``: each observable's non-empty
    list of distinct outcome values, exact rationals."""
    outcomes = field(payload, "outcomes", where, {...: [_rational, ...]})
    for name, values in outcomes.items():
        path, first = f"{where}.outcomes.{name}", {}
        for k, value in enumerate(map(_rational, values)):
            if first.setdefault(value, k) != k:
                raise ConfigError(f"{path}[{k}] repeats the value {value} of {path}[{first[value]}]")
    return outcomes


def constraint_of(payload: Mapping, where: str = "constraint", outcomes: Mapping = None):
    """One `oplab.kolmogorov` constraint from its object, chosen by its
    ``type`` field.  Each observable it names must be a key of ``outcomes``,
    unless that is None; values and probabilities are kept as written, so a
    certificate shows them that way."""
    observable = _label(outcomes, "observable")
    event = {observable: _rational}

    def get(name, shape):
        return field(payload, name, where, shape)

    kind = field(payload, "type", where, str)
    if kind == "marginal":
        return kolmogorov.MarginalConstraint(get("observable", observable),
                                             get("value", _rational), get("prob", _rational))
    if kind == "joint":
        return kolmogorov.JointConstraint.of(get("events", event), get("prob", _rational))
    if kind == "conditional":
        return kolmogorov.ConditionalConstraint.of(get("event", event), get("given", event),
                                                   get("prob", _rational))
    if kind == "correlation":
        return kolmogorov.CorrelationConstraint(
            tuple(get("observables", (observable, observable))), get("value", _rational))
    if kind == "expectation":
        return kolmogorov.ExpectationConstraint(get("observable", observable),
                                                get("value", _rational))
    raise ConfigError(f"{where}.type: unknown constraint type {kind!r}")


def reconstruction_from_json(payload: Mapping,
                             where: str = "problem") -> algebra.ReconstructionProblem:
    observables = [operator_of(spectral.HermitianObservable, m, f"{where}.observables[{k}]")
                   for k, m in enumerate(field(payload, "observables", where, list))]
    frame = [vector_from_json(v, f"{where}.frame[{k}]")
             for k, v in enumerate(field(payload, "frame", where, list))]
    expectations = field(payload, "expectations", where, [float])
    return _built(lambda: algebra.ReconstructionProblem(observables, expectations, frame), where)


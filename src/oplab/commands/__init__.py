"""The bodies of the ``oplab`` commands, one module per kind, and what they
share: the output rule, the table writers and the seed and mode options.

Each ``oplab.commands.<kind>`` module holds one function, ``run(args, config,
inputs, footer)``, that returns ``(exit code, paths written)``.  `oplab.cli`
imports only the module of the kind it runs, so a job compiles no other
kind's body.  No command module imports `oplab.cli`: ``python -m oplab.cli``
runs that file as ``__main__``, and importing it again would run it twice.
"""

from __future__ import annotations

import csv
import os
from fractions import Fraction
from pathlib import Path

from .. import ensembles
from .._base import FLOAT, RATIONAL
from ..serialization import ConfigError, ensemble_of, field

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2


def format_scalar(q: Fraction) -> str:
    """``q`` as an exact string: a terminating decimal where the denominator
    allows it, ``p/q`` otherwise.  `oplab._base.to_scalar` reads it back."""
    num, den = q.numerator, q.denominator
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    if digits == 0:
        return str(num)
    scaled = num * 10 ** digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _cell(value):
    """How every table cell and footer value is written: a `Fraction`
    exactly (`format_scalar`), a float, numpy's ``float64`` included, as the
    shortest ``repr`` of the double, and anything else as it is, for `csv` to
    write (``None`` as an empty cell, a bool as ``True`` or ``False``)."""
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, float):
        return repr(float(value))
    return value


def _create(path: Path):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise ConfigError(f"cannot write {path}: {_reason(exc)}") from exc


def _reason(exc: Exception):
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else exc


def _write_csv(path: Path, header, rows, footer: dict) -> None:
    # Every row is computed before the file is opened, so a row that fails
    # leaves no truncated table behind.
    rows = [[_cell(value) for value in row] for row in rows]
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write_footer(fh, footer)


def _write_footer(fh, footer: dict) -> None:
    for key in sorted(footer):
        fh.write(f"# {key}={_cell(footer[key])}\n")


def _resolve_seed(args, config) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("OPLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"OPLAB_SEED is not an integer: {env!r}") from exc
    seed = field(config, "seed", "config", int, None)
    if seed is None:
        raise ConfigError("no seed: give --seed, set OPLAB_SEED, or add a seed field")
    return seed


def _resolve_mode(args, config) -> str:
    mode = args.mode or field(config, "mode", "config", str, RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise ConfigError(f"config.mode: unknown mode {mode!r}")
    return mode


def _trial_log(args, config, inputs, footer):
    """The seeded ensemble that ``simulate`` and ``estimate`` report on."""
    mode = _resolve_mode(args, config)
    footer["seed"] = seed = _resolve_seed(args, config)
    truth, target, trials = ensemble_of(inputs, mode)
    return ensembles.run_ensemble(truth, target, trials, seed)


def _out_path(args, config, default_name: str) -> Path:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {_reason(exc)}") from exc
    return out_dir / field(config, "output", "config", str, default_name)


def _table(args, config, default_name: str, header, rows, footer, code=EXIT_OK):
    """Write one CSV table; the command's (exit code, paths written)."""
    path = _out_path(args, config, default_name)
    _write_csv(path, header, rows, footer)
    return code, [path]

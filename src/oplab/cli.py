"""Batch experiment harness: JSON configs in, deterministic CSV tables out.

``oplab KIND --config PATH [--seed N] [--out DIR] [--mode MODE]``.  This
module reads the arguments and the config, whose SHA-256 comes with it from
`oplab.serialization.decode_config`, runs the body of ``KIND`` and turns its
errors into exit codes.  `read_args` reads the arguments as
argparse did, with the same spellings, refusals and messages, without
loading argparse, gettext and locale: about 3 ms and 0.5 MB of each job.
Each body is its own module, ``oplab.commands.<kind>``, imported only when
that kind runs, so a job compiles and runs only the code its kind needs.
Every table cell and footer value is written by one rule,
`oplab.commands._cell`.

Exit codes: 0 success, 2 validation failure (reports still written),
1 error (usage error, malformed config, missing artifact, bad dimensions).
"""

from __future__ import annotations

import importlib
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from ._base import FLOAT, RATIONAL
from .commands import EXIT_ERROR
from .errors import OplabError
from .serialization import ConfigError, decode_config, field

# The kinds, one module each in `oplab.commands`.
_COMMANDS = ("simulate", "estimate", "entropy", "dissipation", "tomography", "kolmogorov",
             "spectral", "validate", "report")

# The thread counts that numpy's BLAS reads once, when numpy loads.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def _load_config(path: Path) -> tuple:
    """The JSON value at ``path``, which `main` reads with `field`, and the
    SHA-256 of its bytes, in hex, from `decode_config`: the bytes are the
    UTF-8 encoding of the text it reads."""
    try:
        config, digest = decode_config(path.read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config, digest.hex()


# The options every kind takes, in the order the help lists them.
_OPTIONS = ("--help", "--config", "--seed", "--out", "--mode")
_MODES = (RATIONAL, FLOAT)
# What argparse reads as a negative number, and so as a value, not an option.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")

_USAGE = """\
usage: oplab [-h] --config CONFIG [--seed SEED] [--out OUT]
             [--mode {rational,float}]
             {simulate,estimate,entropy,dissipation,tomography,kolmogorov,spectral,validate,report}
"""

_HELP = _USAGE + """
Measurement-statistics experiment harness

positional arguments:
  {simulate,estimate,entropy,dissipation,tomography,kolmogorov,spectral,validate,report}

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON experiment config
  --seed SEED
  --out OUT             output directory
  --mode {rational,float}
"""


def _fail(message: str):
    """A usage error: the usage and the message on stderr, exit 1
    (``EXIT_ERROR``), since exit 2 means a validation failure."""
    sys.stderr.write(f"{_USAGE}oplab: error: {message}\n")
    raise SystemExit(EXIT_ERROR)


def _option(arg: str):
    """What ``arg``, met before any ``--``, names: (option, its value in
    ``arg`` or None); (None, ``arg``) for a value; ("", ``arg``) for an
    unknown option.  An option may be shortened to any prefix that names one
    option, and takes its value after an ``=`` too; ``-hX`` is ``-h`` with
    the value X."""
    if not arg.startswith("-") or arg == "-":
        return None, arg
    if arg in _OPTIONS or arg == "-h":
        return arg, None
    name, equals, value = arg.partition("=")
    if equals and (name in _OPTIONS or name == "-h"):
        return name, value
    if arg.startswith("--"):
        found = [option for option in _OPTIONS if option.startswith(name)]
        if len(found) > 1:
            _fail(f"ambiguous option: {arg} could match {', '.join(found)}")
        if found:
            return found[0], value if equals else None
    elif arg.startswith("-h"):
        return "-h", arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None, arg
    return "", arg


def _choice(name: str, value: str, choices: tuple) -> str:
    if value not in choices:
        _fail(f"argument {name}: invalid choice: {value!r} (choose from "
              f"{', '.join(map(repr, choices))})")
    return value


def read_args(argv) -> SimpleNamespace:
    """The kind and the options ``--config``, ``--seed``, ``--out`` and
    ``--mode`` in ``argv`` (``sys.argv[1:]`` when None), read as argparse
    read them: in any order, each as ``--opt value`` or ``--opt=value``, or
    shortened to a unique prefix; the last of a repeated option wins, a value
    may be a negative number, and everything after a ``--`` is a value.
    ``-h`` or ``--help`` prints the help and exits 0; any other argv that
    argparse refused is a usage error (`_fail`), at the same argument."""
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    # Every argument before the "--" is read first, so an ambiguous one
    # fails before any other error.
    items = [_option(arg) for arg in argv[:cut]]
    if cut < len(argv):
        items += [("--", None)] + [(None, arg) for arg in argv[cut + 1:]]
    args = SimpleNamespace(command=None, config=None, seed=None, out=".", mode=None)
    extras = []
    at = command_end = 0
    while at < len(items):
        name, value = items[at]
        at += 1
        if name is None:
            if args.command is None:
                args.command, command_end = _choice("command", value, _COMMANDS), at
            else:
                extras.append(value)
        elif name == "--":
            # The kind takes a "--" right after it, or the next value after it.
            if args.command is not None and command_end != at - 1:
                extras.append("--")
        elif name == "":
            extras.append(value)
        elif name in ("-h", "--help"):
            if value is not None:
                rest = value.lstrip("h") if name == "-h" else value
                if rest or not value:  # "-hh" is -h twice
                    _fail(f"argument -h/--help: ignored explicit argument {rest!r}")
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        else:
            if value is None:
                if at == len(items) or items[at][0] is not None:
                    _fail(f"argument {name}: expected one argument")
                value = items[at][1]
                at += 1
            if name == "--seed":
                try:
                    value = int(value)
                except ValueError:
                    _fail(f"argument --seed: invalid int value: {value!r}")
            elif name == "--mode":
                _choice(name, value, _MODES)
            setattr(args, name[2:], value)
    missing = [name for name, value in (("command", args.command), ("--config", args.config))
               if value is None]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # One BLAS thread, whatever the caller set: the last bits of eigh and
        # of matrix products follow OpenBLAS's thread count, which follows the
        # CPUs, and the outputs must not.  Once numpy is loaded this does
        # nothing, so a caller that loaded it keeps its environment.
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    args = read_args(argv)
    try:
        config, digest = _load_config(Path(args.config))
        kind = field(config, "kind", "config", str, args.command)
        if kind != args.command:
            raise ConfigError(f"config.kind {kind!r} does not match command {args.command!r}")
        footer = {"config_hash": f"sha256:{digest}", "version": f"oplab-{__version__}"}
        inputs = field(config, "inputs", "config", dict)
        command = importlib.import_module(f"oplab.commands.{args.command}")
        code, paths = command.run(args, config, inputs, footer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OplabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in paths:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Batch experiment harness: JSON configs in, deterministic CSV tables out.

``oplab KIND --config PATH [--seed N] [--out DIR] [--mode MODE]``.  This
module reads the arguments and the config, runs the body of ``KIND`` and
turns its errors into exit codes.  Each body is its own module,
``oplab.commands.<kind>``, imported only when that kind runs, so a job
compiles and runs only the code its kind needs.  Every table cell and
footer value is written by one rule, `oplab.commands._cell`.

Exit codes: 0 success, 2 validation failure (reports still written),
1 error (usage error, malformed config, missing artifact, bad dimensions).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

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

# Fewest config bytes whose digest `config_digest` takes from OpenSSL
# (``hashlib``) rather than from CPython's built-in SHA-256.  Importing
# ``hashlib`` loads OpenSSL's ``_hashlib`` and ``libcrypto``: about 3.5 MB of
# a job's peak memory and 3-5 ms, against 0.3-0.5 ms for the built-in module.
# OpenSSL then hashes at about 0.9 ms/MiB, the built-in module at 5-8 ms/MiB.
# On a 2-core VM (Python 3.11, fresh processes, import and hash timed, 21
# alternated pairs each) the built-in module took 3.8 ms against 5.4 at
# 512 KiB, 3.8 against 3.9 at 768 KiB (faster in 16 of 21 pairs) and 4.5
# against 4.3 at 896 KiB (faster in 3 of 21).
OPENSSL_MIN_BYTES = 3 << 18

# CPython's built-in SHA-256 module, ``_sha2`` since 3.12 and ``_sha256``
# before.  Trying the other name first would cost a failed import, 0.2 ms.
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def config_digest(raw: bytes) -> str:
    """The SHA-256 of ``raw``, in hex.  Below `OPENSSL_MIN_BYTES` it comes
    from CPython's built-in module, as ``random`` takes its SHA-512, where
    the interpreter has one; otherwise from ``hashlib``.  Both give the same
    digest."""
    if len(raw) < OPENSSL_MIN_BYTES:
        try:
            return importlib.import_module(_BUILTIN_SHA256).sha256(raw).hexdigest()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(raw).hexdigest()


def _load_config(path: Path) -> tuple:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    digest = config_digest(raw)
    try:
        text = raw.decode("utf-8")
        del raw  # the decoder needs only the text
        config = decode_config(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config, digest


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (``EXIT_ERROR``), not
    argparse's 2, which this command keeps for validation failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One parser for every kind: they all take the same options."""
    parser = _Parser(
        prog="oplab",
        description="Measurement-statistics experiment harness",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--mode", choices=(RATIONAL, FLOAT), default=None)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # One BLAS thread, whatever the caller set: the last bits of eigh and
        # of matrix products follow OpenBLAS's thread count, which follows the
        # CPUs, and the outputs must not.  Once numpy is loaded this does
        # nothing, so a caller that loaded it keeps its environment.
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    args = build_parser().parse_args(argv)
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

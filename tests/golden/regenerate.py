"""The golden corpus: small CLI configs and the pinned bytes of their outputs.

``configs/`` holds one config per case: ``kolmogorov`` feasible and
infeasible, ``entropy`` and ``dissipation`` in each mode, ``entropy`` on a
float chain of atoms across a cell boundary, ``report`` on the
two ``dissipation`` tables, ``simulate`` just below and just above
``oplab.commands.simulate.FORK_MIN_TRIALS``, ``estimate``, ``spectral``,
``tomography`` reconstructed and unrealizable, and ``validate`` with and
without an ``algebraization``.  Each config's ``output`` field names its
output; ``validate`` writes its JSON report there and a CSV beside it.
``expected.json`` pins each case's exit code and the SHA-256 of its output
(and of the CSV, ``csv_sha256``, for ``validate``); ``tests/test_golden.py``
checks them.  All kinds but those in ``NUMPY_KINDS`` use neither LAPACK nor a
numpy float reduction, so their outputs must be the same bytes on every
Python, numpy and BLAS build.  A case of ``NUMPY_KINDS`` also pins the numpy
version, the BLAS build with the kernel it ran (`blas`) and the values of its
output: where numpy, build and kernel match, its hash must match; elsewhere
its values, within ``VALUE_TOL``.

A change that alters an output on purpose bumps ``oplab.__version__``
(every footer carries it) and regenerates the pins:

    python tests/golden/regenerate.py
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
EXPECTED = HERE / "expected.json"
# Kinds whose output goes through LAPACK, whose last bits may differ between
# numpy releases, BLAS builds and the kernels of one build.  ``estimate`` is
# not one of them: its sums are sequential running sums and the rest of its
# path is elementwise, which every numpy rounds the same way.
NUMPY_KINDS = ("spectral", "tomography", "validate")
# How far a number in the output of a NUMPY_KINDS case may stray from its pin,
# relative and absolute, under another numpy or BLAS: eigenvalues and residuals
# move in their last few bits.
VALUE_TOL = 1e-12
# OpenBLAS's kernel-name function, as numpy's bundled library exports it:
# scipy-openblas (numpy 2) with 64-bit and with 32-bit integers, then the
# OpenBLAS of earlier wheels, likewise.
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename")


def blas() -> str:
    """The BLAS that numpy was built against and the kernel it runs, as
    ``name version kernel``, or ``unknown`` where numpy cannot say (before
    numpy 1.26).  One OpenBLAS build picks its kernel by the CPU when it
    loads, and kernels round ``eigh`` differently in its last bits."""
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{info.get('name')} {info.get('version')} {kernel()}"


def kernel() -> str:
    """The name of the kernel that numpy's bundled OpenBLAS runs in this
    process (``OPENBLAS_CORETYPE`` forces one), or ``unknown`` where numpy
    bundles no OpenBLAS that names it."""
    package = Path(numpy.__file__).resolve().parent
    for library in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                           *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(library))  # numpy loaded it: the same handle
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def configs() -> list:
    """The config paths, ``report`` last, since it reads the other outputs."""
    return sorted((HERE / "configs").glob("*.json"), key=lambda p: (p.stem == "report", p.name))


def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def case_of(config: Path):
    """A config's kind and output name."""
    payload = json.loads(config.read_text(encoding="utf-8"))
    return payload["kind"], payload["output"]


def run(out_dir: Path) -> dict:
    """Run each config as a fresh ``python -m oplab.cli`` process, with the
    config and its output in ``out_dir``.  By case, its ``result_of``."""
    env = {key: value for key, value in os.environ.items() if key != "OPLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    results = {}
    for config in configs():
        local = out_dir / config.name
        shutil.copyfile(config, local)
        kind, output = case_of(config)
        proc = subprocess.run(
            [sys.executable, "-m", "oplab.cli", kind, "--config", str(local), "--out", str(out_dir)],
            env=env, capture_output=True, check=False)
        results[config.stem] = result_of(kind, proc.returncode, out_dir / output)
    return results


def result_of(kind: str, code: int, output: Path) -> dict:
    """What a case pins: the exit code and the SHA-256 of the output (None if
    there is none), for ``validate`` that of its CSV too, and for
    ``NUMPY_KINDS`` the numpy version, the BLAS build and kernel (`blas`) and
    the values."""
    found = {"exit": code, "sha256": _sha256(output)}
    if kind == "validate":
        found["csv_sha256"] = _sha256(output.with_suffix(".csv"))
    if kind in NUMPY_KINDS:
        found.update(numpy=numpy.__version__, blas=blas(),
                     values=values(output) if output.exists() else None)
    return found


def values(output: Path) -> dict:
    """The values of an output, by name, each as an int, a float or else a
    string.

    A CSV table gives its header cells as ``header``, its ``# key=value``
    footer and its rows: the row ``name,value`` of a two-column table as
    ``name``, and a row of a wider one as ``name[k]``, its k-th row of that
    name, whose value is the list of its other cells.  A JSON output gives
    its parsed object, and, for a ``validate`` report, its CSV beside it as
    ``csv``."""
    if output.suffix == ".json":
        found = json.loads(output.read_text(encoding="utf-8"))
        found["csv"] = values(output.with_suffix(".csv"))
        return found
    header, *lines = output.read_text(encoding="utf-8").splitlines()
    found = {"header": next(csv.reader([header]))}
    seen = {}
    for line in lines:
        if line.startswith("# "):
            name, value = line[2:].split("=", 1)
            found[name] = _scalar(value)
            continue
        name, *cells = next(csv.reader([line]))
        if len(cells) == 1:
            found[name] = _scalar(cells[0])
        else:
            k = seen[name] = seen.get(name, -1) + 1
            found[f"{name}[{k}]"] = [_scalar(cell) for cell in cells]
    return found


def _scalar(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def values_close(got, pinned) -> bool:
    """The same names, lengths, ints and strings, and floats within VALUE_TOL
    (NaN matches NaN), compared through nested objects and lists."""
    if isinstance(pinned, dict):
        return (isinstance(got, dict) and got.keys() == pinned.keys()
                and all(values_close(got[k], v) for k, v in pinned.items()))
    if isinstance(pinned, list):
        return (isinstance(got, list) and len(got) == len(pinned)
                and all(map(values_close, got, pinned)))
    if isinstance(pinned, float) and isinstance(got, float):
        return (math.isclose(got, pinned, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL)
                or (math.isnan(got) and math.isnan(pinned)))
    return got == pinned


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = run(Path(tmp))
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, result in sorted(results.items()):
        print(f"{result['exit']} {result['sha256']} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

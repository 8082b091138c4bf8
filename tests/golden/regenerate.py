"""The golden corpus: small CLI configs and the pinned bytes of their outputs.

``configs/`` holds one config per case: ``kolmogorov`` feasible and
infeasible, ``entropy`` and ``dissipation`` in each mode, ``report`` on the
two ``dissipation`` tables, ``simulate`` just below and just above
``oplab.trialcsv.FORK_MIN_TRIALS``, and ``estimate``.  ``expected.json`` pins
each case's exit code and the SHA-256 of its output; ``tests/test_golden.py``
checks them.  All kinds but those in ``NUMPY_KINDS`` use neither LAPACK nor a
numpy reduction, so their outputs must be the same bytes on every Python,
numpy and BLAS build.  A case of ``NUMPY_KINDS`` also pins the numpy version
and the values of its output: under that numpy its hash must match, under
another one its values, within ``VALUE_TOL``.

A change that alters an output on purpose bumps ``oplab.__version__``
(every footer carries it) and regenerates the pins:

    python tests/golden/regenerate.py
"""

from __future__ import annotations

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
# Kinds whose output goes through a numpy float reduction whose rounding a
# numpy release may change: ``estimate`` reports np.mean's pairwise sum.
NUMPY_KINDS = ("estimate",)
# How far a number in the output of a NUMPY_KINDS case may stray from its pin,
# relative and absolute, under another numpy.  The pairwise sum moves the
# weak-star gaps by about 1e-15.
VALUE_TOL = 1e-12


def configs() -> list:
    """The config paths, ``report`` last, since it reads the other outputs."""
    return sorted((HERE / "configs").glob("*.json"), key=lambda p: (p.stem == "report", p.name))


def run(out_dir: Path) -> dict:
    """Run each config as a fresh ``python -m oplab.cli`` process, with the
    config and its output in ``out_dir``.  By case: the exit code and the
    SHA-256 of the output (None if there is none)."""
    env = {key: value for key, value in os.environ.items() if key != "OPLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    results = {}
    for config in configs():
        local = out_dir / config.name
        shutil.copyfile(config, local)
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        proc = subprocess.run(
            [sys.executable, "-m", "oplab.cli", kind, "--config", str(local), "--out", str(out_dir)],
            env=env, capture_output=True, check=False)
        output = out_dir / f"{config.stem}.csv"
        digest = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else None
        results[config.stem] = {"exit": proc.returncode, "sha256": digest}
        if kind in NUMPY_KINDS:
            results[config.stem].update(
                numpy=numpy.__version__, values=values(output) if output.exists() else None)
    return results


def values(output: Path) -> dict:
    """The values of a ``metric,value`` table and of its ``# key=value``
    footer, by name, each as an int, a float or else a string."""
    found = {}
    for line in output.read_text(encoding="utf-8").splitlines()[1:]:
        name, value = line[2:].split("=", 1) if line.startswith("# ") else line.split(",", 1)
        for parse in (int, float, str):
            try:
                found[name] = parse(value)
                break
            except ValueError:
                pass
    return found


def values_close(got: dict, pinned: dict) -> bool:
    """The same names and, name by name, the same int or string, or a float
    within VALUE_TOL."""
    return got.keys() == pinned.keys() and all(
        math.isclose(got[k], v, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL)
        if isinstance(v, float) and isinstance(got[k], float) else got[k] == v
        for k, v in pinned.items())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = run(Path(tmp))
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, result in sorted(results.items()):
        print(f"{result['exit']} {result['sha256']} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Import structure: numpy reaches the package only through ``oplab._np``,
and each layer runs only when it is first used."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import oplab
import oplab._np
import oplab.cli
import oplab.spectral
from golden.regenerate import configs

PACKAGE = Path(oplab.__file__).resolve().parent


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_only_the_shim_imports_numpy():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_np.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _imports_numpy(node)]
    assert offenders == []


def test_shim_hands_out_numpys_own_objects():
    assert oplab.spectral.np.linalg is numpy.linalg
    assert oplab.spectral.np.ndarray is numpy.ndarray
    assert not hasattr(oplab._np, "__path__")


# The public names of the package, as its ``__init__.py`` listed them when it
# imported each one from its layer.
PUBLIC = [
    "BorelSet", "DiscreteMeasure", "JointMeasure", "MarkovKernel", "Partition", "convolve",
    "disintegrate", "lebesgue_decompose", "measures_close", "mixture", "product_measure",
    "DensityState", "HermitianObservable", "LabSystem", "Question", "epsilon_decomposition",
    "functional_calc", "joint_operator", "joint_spectral_measure", "joint_spectrum",
    "jordan_product", "positive_parts", "question_ops", "question_times", "spectral_measure",
    "spectrum_and_norm", "sps_witness", "variance_and_uncertainty", "FrequencyTrace",
    "NaturalSubset", "TrialLog", "estimate_probability", "kvn_equivalence", "min_trials",
    "natural_density", "place_selection_check", "run_ensemble", "EntropyBridge",
    "Informativity", "Schema", "dirac_detect", "entropy_bits", "informativity_compare",
    "khinchin_validate", "partition_density_matrix", "shannon_entropy",
    "vn_entropy_and_purity", "DissipationReport", "EvolutionTrace", "affine_split_check",
    "decompose_evolution", "entropy_checks", "koopman_apply", "Algebraization",
    "DeclaredRelations", "ReconstructionProblem", "arba_validate", "center_check",
    "commuting_eigenframe", "embedding_check", "purity_preservation_check",
    "purity_selection", "tomography_reconstruct", "ConditionalConstraint",
    "CorrelationConstraint", "ExpectationConstraint", "JointConstraint", "KolmogorovResult",
    "MarginalConstraint", "kolmogorov_check", "verify_farkas", "verify_joint",
]


def test_every_public_name_resolves():
    assert len(PUBLIC) == len(set(PUBLIC)) == 72
    assert oplab.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(oplab, name) is not None, name
    namespace = {}
    exec("from oplab import *", namespace)
    assert [name for name in PUBLIC if namespace.get(name) is not getattr(oplab, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        oplab.no_such_name
    assert not hasattr(oplab, "run_ensembles")


# Imports the module argv[1], runs the CLI command in argv[2:] if there is
# one, and prints the oplab layers whose body has run.  A layer not yet run is
# still LazyLoader's module type; ``type`` reads it without running the body.
_LAYERS_RUN = """
import importlib, json, sys, types
importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    sys.modules["oplab.cli"].main(sys.argv[2:])
print(json.dumps(sorted(name for name in sys.modules["oplab"]._LAYERS
                        if type(sys.modules["oplab." + name]) is types.ModuleType)))
"""

# What each kind runs on top of errors, measures and serialization.
KIND_LAYERS = {
    "kolmogorov": ["kolmogorov", "simplex"],
    "entropy": ["information"],
    "dissipation": ["dynamics", "information"],
    "simulate": ["ensembles"],
    "estimate": ["ensembles"],
    "spectral": ["spectral"],
    "validate": ["algebra", "information", "spectral"],
    "tomography": ["algebra", "information", "spectral"],
    "report": [],
}
BASE = ["errors", "measures", "serialization"]


def _layers_run(*argv) -> list:
    proc = subprocess.run([sys.executable, "-c", _LAYERS_RUN, *argv], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_runs_no_layer_but_what_the_cli_reads():
    assert _layers_run("oplab") == []
    assert _layers_run("oplab.cli") == BASE


def test_each_kind_runs_only_its_layers(tmp_path):
    """Every golden config, in a fresh interpreter: exactly its kind's layers run."""
    kinds = set()
    for config in configs():
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        kinds.add(kind)
        got = _layers_run("oplab.cli", kind, "--config", str(local), "--out", str(tmp_path))
        assert got == sorted(BASE + KIND_LAYERS[kind]), config.name
    assert kinds == set(KIND_LAYERS) == set(oplab.cli._COMMANDS)


# Reads oplab.kolmogorov_check twice, and prints the type and message of what
# each read raised.
_READ_TWICE = """
import oplab
for _ in range(2):
    try:
        oplab.kolmogorov_check
    except Exception as exc:
        print(type(exc).__name__, exc)
print(oplab.DiscreteMeasure.__name__)
"""


def test_a_broken_layer_raises_its_own_error(tmp_path):
    """A syntax error in ``simplex``, which ``kolmogorov`` imports from, shows
    as that SyntaxError on every read, not as an ImportError and then an
    AttributeError; the layers that do not need it still run."""
    shutil.copytree(PACKAGE, tmp_path / "oplab", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "oplab" / "simplex.py", "a", encoding="utf-8") as fh:
        fh.write("\ndef broken(:\n")
    proc = subprocess.run([sys.executable, "-c", _READ_TWICE], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(tmp_path),
                                           "PYTHONDONTWRITEBYTECODE": "1"})
    first, second, measure = proc.stdout.splitlines()
    assert first.startswith("SyntaxError ") and "simplex.py" in first, first
    assert second == first
    assert measure == "DiscreteMeasure"

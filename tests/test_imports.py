"""Import structure: numpy reaches the package only through ``oplab._np``,
and each layer runs only when it is first used."""

import ast
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import oplab
import oplab._blocks
import oplab._np
import oplab.cli
import oplab.serialization
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
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "_np.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        name = path.relative_to(PACKAGE)
        offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree) if _imports_numpy(node)]
    assert offenders == []


def test_shim_hands_out_numpys_own_objects():
    assert oplab.spectral.np.linalg is numpy.linalg
    assert oplab.spectral.np.ndarray is numpy.ndarray
    assert not hasattr(oplab._np, "__path__")


# The public names of the package, in the order of its ``__init__.py``: by
# layer, and sorted within each layer.
PUBLIC = [
    "BorelSet", "DiscreteMeasure", "Partition", "lebesgue_decompose", "JointMeasure",
    "MarkovKernel", "convolve", "disintegrate", "measures_close", "mixture",
    "product_measure", "DensityState", "HermitianObservable", "LabSystem", "Question",
    "epsilon_decomposition", "functional_calc", "joint_operator", "joint_spectral_measure",
    "joint_spectrum", "jordan_product", "positive_parts", "question_ops", "question_times",
    "spectral_measure", "spectrum_and_norm", "sps_witness", "variance_and_uncertainty",
    "FrequencyTrace", "NaturalSubset", "TrialLog", "estimate_probability",
    "kvn_equivalence", "min_trials", "natural_density", "place_selection_check",
    "run_ensemble", "EntropyBridge", "Schema", "entropy_bits", "partition_density_matrix",
    "shannon_entropy", "vn_entropy_and_purity", "DissipationReport", "EvolutionTrace",
    "decompose_evolution", "Informativity", "affine_split_check", "dirac_detect",
    "entropy_checks", "informativity_compare", "khinchin_validate", "koopman_apply",
    "Algebraization", "DeclaredRelations", "ReconstructionProblem", "arba_validate",
    "center_check", "commuting_eigenframe", "embedding_check", "purity_preservation_check",
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
# one, and prints the names of every loaded module, then the oplab layers
# whose body has run.  A layer not yet run is still LazyLoader's module type;
# ``type`` reads it without running the body.
_LAYERS_RUN = """
import importlib, json, sys, types
importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    sys.modules["oplab.cli"].main(sys.argv[2:])
print(json.dumps(sorted(sys.modules)))
print(json.dumps(sorted(name for name in sys.modules["oplab"]._LAYERS
                        if type(sys.modules["oplab." + name]) is types.ModuleType)))
"""

# What each kind runs on top of errors and serialization.
KIND_LAYERS = {
    "kolmogorov": ["kolmogorov", "simplex"],
    "entropy": ["information", "measures"],
    "dissipation": ["dynamics", "information", "measures"],
    "simulate": ["ensembles", "measures"],
    "estimate": ["ensembles", "measures"],
    "spectral": ["measures", "spectral"],
    "validate": ["algebra", "spectral"],
    "tomography": ["algebra", "information", "spectral"],
    "report": [],
}
# A golden case that runs less than its kind: a tomography that finds no
# state takes no purity, so it does not run information.
CASE_LAYERS = {"tomography_unrealizable": ["algebra", "spectral"]}
BASE = ["errors", "serialization"]
# The layers that only library callers run.
LIBRARY_ONLY = ["diagnostics", "joint"]


def _run(*argv) -> tuple:
    """The modules loaded and the layers run by `_LAYERS_RUN` on ``argv``."""
    proc = subprocess.run([sys.executable, "-c", _LAYERS_RUN, *argv], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    *_, modules, layers = proc.stdout.splitlines()
    return json.loads(modules), json.loads(layers)


def _layers_run(*argv) -> list:
    return _run(*argv)[1]


def _command_modules(modules) -> list:
    return [name for name in modules if name.startswith("oplab.commands.")]


def test_import_runs_no_layer_but_what_the_cli_reads():
    assert _layers_run("oplab") == []
    modules, layers = _run("oplab.cli")
    assert layers == BASE
    assert _command_modules(modules) == []


def test_each_kind_runs_only_its_layers(tmp_path):
    """Every golden config, in a fresh interpreter: exactly its kind's layers
    run, and never a library-only one."""
    kinds = set()
    for config in configs():
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        kinds.add(kind)
        got = _layers_run("oplab.cli", kind, "--config", str(local), "--out", str(tmp_path))
        assert got == sorted(BASE + CASE_LAYERS.get(config.stem, KIND_LAYERS[kind])), config.name
        assert not set(got) & set(LIBRARY_ONLY), config.name
    assert kinds == set(KIND_LAYERS) == set(oplab.cli._COMMANDS)


# Loaded first by a fresh interpreter, from ``PYTHONPATH``: at exit it writes
# the names of the loaded modules and the file that ran as ``__main__``.
_SITECUSTOMIZE = """
import atexit, json, os, sys
def _dump():
    with open(os.environ["OPLAB_TEST_MODULES"], "w", encoding="utf-8") as fh:
        json.dump([sorted(sys.modules), sys.modules["__main__"].__file__], fh)
atexit.register(_dump)
"""


def _loaded_by_main(tmp_path, *argv) -> tuple:
    """The modules loaded by ``python -m oplab.cli *argv`` in a fresh
    interpreter, and the file it ran as ``__main__``."""
    hook = tmp_path / "hook"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE, encoding="utf-8")
    dump = hook / "modules.json"
    proc = subprocess.run([sys.executable, "-m", "oplab.cli", *argv], capture_output=True,
                          text=True, check=False,
                          env={**os.environ, "OPLAB_TEST_MODULES": str(dump),
                               "PYTHONPATH": os.pathsep.join([str(hook), str(PACKAGE.parent)])})
    assert proc.returncode in (0, 2), proc.stderr
    return tuple(json.loads(dump.read_text(encoding="utf-8")))


def test_each_kind_loads_only_its_command_module(tmp_path):
    """Every golden config, as ``python -m oplab.cli`` in a fresh interpreter:
    the job imports its own command module and no other, and never imports
    ``oplab.cli`` as a module beside ``__main__``, which would run it twice."""
    for config in configs():
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        modules, main = _loaded_by_main(tmp_path, kind, "--config", str(local),
                                        "--out", str(tmp_path))
        assert Path(main).resolve() == PACKAGE / "cli.py", config.name
        assert _command_modules(modules) == [f"oplab.commands.{kind}"], config.name
        assert "oplab.cli" not in modules, config.name


# The classical kinds, and what none of their jobs needs: ``dataclasses``
# costs about 9 ms of import, most of it ``inspect``, and numpy far more.
CLASSICAL = ("kolmogorov", "entropy", "dissipation", "report")
UNUSED_BY_CLASSICAL = ("dataclasses", "inspect", "numpy")
_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def test_classical_jobs_load_no_dataclasses_inspect_or_numpy(tmp_path):
    """Every classical golden config, in a fresh interpreter: the job loads
    none of `UNUSED_BY_CLASSICAL` beyond what the bare interpreter loads, and
    ``kolmogorov`` and ``report`` do not run ``oplab.measures``."""
    bare = subprocess.run([sys.executable, "-c", _MODULES], capture_output=True, text=True,
                          check=True).stdout
    preloaded = set(json.loads(bare))
    ran = set()
    for config in configs():
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        if kind not in CLASSICAL:
            continue
        ran.add(kind)
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        modules, layers = _run("oplab.cli", kind, "--config", str(local), "--out", str(tmp_path))
        loaded = [name for name in UNUSED_BY_CLASSICAL if name in modules and name not in preloaded]
        assert loaded == [], config.name
        if kind in ("kolmogorov", "report"):
            assert "measures" not in layers, config.name
    assert ran == set(CLASSICAL)


def test_classical_jobs_load_no_block_reader(tmp_path):
    """No classical golden config holds a block of [re, im] pairs, so no
    classical job loads `oplab._blocks` or the ``mmap`` it reads into; a
    ``spectral`` job loads both."""
    ran = set()
    for config in configs():
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        if kind not in CLASSICAL + ("spectral",):
            continue
        ran.add(kind)
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        modules, _ = _run("oplab.cli", kind, "--config", str(local), "--out", str(tmp_path))
        loaded = [name for name in ("oplab._blocks", "mmap") if name in modules]
        assert loaded == ([] if kind in CLASSICAL else ["oplab._blocks", "mmap"]), config.name
    assert ran == set(CLASSICAL + ("spectral",))


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this interpreter has no built-in SHA-256 module")
def test_small_configs_hash_without_openssl(tmp_path):
    """Every golden config is under `oplab.serialization.OPENSSL_MIN_BYTES`:
    the command process hashes it with the built-in module and loads no
    ``_hashlib`` beyond what the bare interpreter loads.  A config of that
    size with no block, the kolmogorov golden config padded with blanks,
    starts no worker, so the command process hashes it with ``hashlib``."""
    bare = subprocess.run([sys.executable, "-c", _MODULES], capture_output=True, text=True,
                          check=True).stdout
    preloaded = "_hashlib" in json.loads(bare)
    for config in configs():
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        assert local.stat().st_size < oplab.serialization.OPENSSL_MIN_BYTES, config.name
        modules, _ = _run("oplab.cli", kind, "--config", str(local), "--out", str(tmp_path))
        assert preloaded or "_hashlib" not in modules, config.name
    text = (tmp_path / "kolmogorov_feasible.json").read_text(encoding="utf-8")
    large = tmp_path / "large.json"
    large.write_text(text.ljust(oplab.serialization.OPENSSL_MIN_BYTES), encoding="utf-8")
    modules, _ = _run("oplab.cli", "kolmogorov", "--config", str(large), "--out", str(tmp_path))
    assert "_hashlib" in modules


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


# What no job loads beyond the bare interpreter's modules: argparse and the
# gettext and locale it pulls in cost about 3 ms and 0.5 MB of each job.
UNUSED_BY_ANY_JOB = ("argparse", "gettext", "locale")


def test_no_job_loads_argparse_gettext_or_locale(tmp_path):
    """Every golden config, in a fresh interpreter: the job reads its options
    without argparse, so it loads none of `UNUSED_BY_ANY_JOB` beyond what the
    bare interpreter loads."""
    bare = subprocess.run([sys.executable, "-c", _MODULES], capture_output=True, text=True,
                          check=True).stdout
    preloaded = set(json.loads(bare))
    for config in configs():
        kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        local = tmp_path / config.name
        shutil.copyfile(config, local)
        modules, _ = _run("oplab.cli", kind, "--config", str(local), "--out", str(tmp_path))
        assert [name for name in UNUSED_BY_ANY_JOB
                if name in modules and name not in preloaded] == [], config.name


# Runs the CLI command in argv[2:] with `oplab._fork` seeing argv[1] CPUs, and
# prints its exit code and the names of the modules the command process loaded.
_MODULES_ON_CPUS = """
import json, sys
from oplab import _fork, cli
_fork.available_cpus = lambda: int(sys.argv[1])
print(cli.main(sys.argv[2:]), json.dumps(sorted(sys.modules)))
"""


def _spectral_config(path: Path, d: int, seed: int) -> None:
    """A seeded d x d ``spectral`` config: a random observable and state."""
    rng = numpy.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    pairs = lambda a: [[[z.real, z.imag] for z in row] for row in a.tolist()]  # noqa: E731
    path.write_text(json.dumps({"kind": "spectral", "inputs": {
        "observable": pairs((m + m.conj().T) / 2), "state": pairs(rho / numpy.trace(rho).real)}}),
        encoding="utf-8")


def _spectral_job(config: Path, cpus: int, out: Path) -> tuple:
    """The modules the command process loaded for the ``spectral`` job on
    ``config`` with `oplab._fork` seeing ``cpus`` CPUs, and its table."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_ON_CPUS, str(cpus), "spectral",
                           "--config", str(config), "--out", str(out)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    code, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    return json.loads(modules), (out / "spectral.csv").read_text(encoding="utf-8")


def test_the_block_worker_hashes_a_large_config(tmp_path):
    """A d = 128 ``spectral`` config is above
    `oplab.serialization.OPENSSL_MIN_BYTES` and its blocks above
    `oplab._blocks.FORK_MIN_CHARS`.  With two CPUs the worker that reads its
    blocks hashes it, so the command process loads no ``_hashlib``; with one,
    the command hashes it and loads ``_hashlib``.  Either way the footer is
    the SHA-256 of the file."""
    config = tmp_path / "spectral.json"
    _spectral_config(config, 128, 128)
    raw = config.read_bytes()
    assert len(raw) >= max(oplab.serialization.OPENSSL_MIN_BYTES, oplab._blocks.FORK_MIN_CHARS)
    footer = f"# config_hash=sha256:{hashlib.sha256(raw).hexdigest()}\n"
    for cpus, hashes_here in ((2, False), (1, True)):
        modules, table = _spectral_job(config, cpus, tmp_path / str(cpus))
        assert ("_hashlib" in modules) == hashes_here, cpus
        assert footer in table, cpus


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this interpreter has no built-in SHA-256 module")
@pytest.mark.parametrize("cpus", [2, 1])
def test_the_block_worker_hashes_a_small_config_without_openssl(tmp_path, cpus):
    """A d = 64 ``spectral`` config is under
    `oplab.serialization.OPENSSL_MIN_BYTES` but its blocks are above
    `oplab._blocks.FORK_MIN_CHARS`.  With two CPUs the worker that reads its
    blocks hashes it with the built-in module; with one, the command does.
    Either way the command process loads no ``_hashlib`` and the footer is
    the SHA-256 of the file."""
    bare = subprocess.run([sys.executable, "-c", _MODULES], capture_output=True, text=True,
                          check=True).stdout
    config = tmp_path / "spectral.json"
    _spectral_config(config, 64, 64)
    raw = config.read_bytes()
    assert oplab._blocks.FORK_MIN_CHARS < len(raw) < oplab.serialization.OPENSSL_MIN_BYTES
    modules, table = _spectral_job(config, cpus, tmp_path / "out")
    assert "_hashlib" in json.loads(bare) or "_hashlib" not in modules
    assert f"# config_hash=sha256:{hashlib.sha256(raw).hexdigest()}\n" in table
    if oplab.serialization._BUILTIN_SHA256 == "_sha256":  # before 3.12, nothing else loads it
        assert ("_sha256" in modules) == (cpus == 1)

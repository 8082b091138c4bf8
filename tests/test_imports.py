"""Import structure: numpy reaches the package only through ``oplab._np``."""

import ast
from pathlib import Path

import numpy

import oplab
import oplab._np
import oplab.spectral

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


def test_every_public_name_resolves():
    """Every name ``oplab/__init__.py`` imports from a layer is an attribute."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 50
    for name in names:
        assert getattr(oplab, name) is not None, name

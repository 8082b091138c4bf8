"""The byte contract across commits: every golden config (``tests/golden``)
gives its pinned exit code and output bytes.  A case that pins a numpy
version, a BLAS build or a BLAS kernel other than the running one gives its
pinned exit code and values."""

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from golden.regenerate import (EXPECTED, blas, case_of, configs, kernel, result_of, run,
                               values_close)

BUILD = {"numpy": numpy.__version__, "blas": blas()}
# A build no pin records: its cases are compared by their values.
FOREIGN = {"numpy": "0.0", "blas": "none"}


def matches(got: dict, pin: dict, build: dict) -> bool:
    """Whether a case's result matches its pin under ``build``: all of it,
    hashes included, where the pin's numpy and BLAS (if it records them) are
    the build's; elsewhere its exit code and its values."""
    if all(pin.get(key, value) == value for key, value in build.items()):
        return got == pin
    return got["exit"] == pin["exit"] and values_close(got["values"], pin["values"])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The directory the corpus ran in, and its results by case."""
    out = tmp_path_factory.mktemp("golden")
    return out, run(out)


def test_outputs_match_the_pinned_bytes(corpus):
    _, got = corpus
    pins = json.loads(EXPECTED.read_text())
    assert got.keys() == pins.keys()
    for case, pin in pins.items():
        assert matches(got[case], pin, BUILD), case


def _flip(text: str, at: int) -> str:
    """``text`` with its character at ``at`` changed."""
    return text[:at] + ("x" if text[at] != "x" else "y") + text[at + 1:]


def _edits(text: str, suffix: str) -> dict:
    """One-character edits of an output's format, by name: of a CSV table its
    header, the name of its first row, the separator after that name and its
    first footer key; of a JSON report its first key."""
    if suffix == ".json":
        return {"key": _flip(text, text.index('"') + 1)}
    row = text.index("\n") + 1
    return {
        "header": _flip(text, 0),
        "row name": _flip(text, row),
        "separator": text[:text.index(",", row)] + ";" + text[text.index(",", row) + 1:],
        "footer key": _flip(text, text.index("\n# ") + 3),
    }


def test_a_one_character_change_to_the_format_fails(corpus, tmp_path):
    """For every pinned case, each edit of ``_edits`` to any file it writes
    fails ``matches``, where it compares hashes and, for a case that pins
    values, where it compares values."""
    out, got = corpus
    pins = json.loads(EXPECTED.read_text())
    for config in configs():
        case, pin = config.stem, pins[config.stem]
        kind, name = case_of(config)
        files = [out / name] + ([(out / name).with_suffix(".csv")] if kind == "validate" else [])
        builds = [BUILD] + ([FOREIGN] if "values" in pin else [])
        for build in builds:
            assert matches(got[case], pin, build), (case, build)
        for target in files:
            for edit, text in _edits(target.read_text(encoding="utf-8"), target.suffix).items():
                edited = tmp_path / f"{case}-{target.suffix[1:]}-{edit.replace(' ', '-')}"
                edited.mkdir()
                for path in files:
                    shutil.copyfile(path, edited / path.name)
                (edited / target.name).write_text(text, encoding="utf-8")
                result = result_of(kind, got[case]["exit"], edited / name)
                for build in builds:
                    assert not matches(result, pin, build), (case, target.name, edit, build)


# Prints `blas()` as a fresh interpreter sees it, with the tests directory
# (argv[1]) on its path.
_BLAS = "import sys; sys.path.insert(0, sys.argv[1]); from golden.regenerate import blas; print(blas())"


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or kernel() == "unknown",
                    reason="needs a bundled OpenBLAS that names its x86-64 kernel")
def test_the_blas_pin_names_the_kernel():
    """Two forced OpenBLAS kernels give two `blas` names, so a pin made under
    one kernel is compared by its values under the other."""
    names = {}
    for core in ("Haswell", "Prescott"):
        proc = subprocess.run([sys.executable, "-c", _BLAS, str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "OPENBLAS_CORETYPE": core})
        names[core] = proc.stdout.strip()
    assert names["Haswell"].endswith(" Haswell")
    assert names["Prescott"] != names["Haswell"]

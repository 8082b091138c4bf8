import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplab
from oplab import errors as oplab_errors
from oplab import cli, commands, serialization
from oplab.cli import main
from oplab.commands import simulate
from oplab.ensembles import MAX_TRIALS, PIECE
from oplab.serialization import OPENSSL_MIN_BYTES

from conftest import CHUNK, assert_no_child_left

SIMULATE = {
    "kind": "simulate",
    "seed": 42,
    "inputs": {
        "truth": {"atoms": [["0", "0.7"], ["1", "0.3"]]},
        "target": {"singletons": ["1"]},
        "trials": 200,
    },
}

KOLMOGOROV_BAD = {
    "kind": "kolmogorov",
    "inputs": {
        "outcomes": {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]},
        "constraints": [
            {"type": "correlation", "observables": ["a", "b"], "value": "-9/10"},
            {"type": "correlation", "observables": ["a", "c"], "value": "-9/10"},
            {"type": "correlation", "observables": ["b", "c"], "value": "-9/10"},
        ],
    },
}

KOLMOGOROV_OK = {
    "kind": "kolmogorov",
    "inputs": {
        "outcomes": {"a": [-1, 1], "b": [-1, 1]},
        "constraints": [
            {"type": "marginal", "observable": "a", "value": 1, "prob": "1/2"},
        ],
    },
}

ENTROPY = {
    "kind": "entropy",
    "inputs": {
        "measure": {"atoms": [["0", "0.5"], ["1", "0.5"]]},
        "partition": {
            "window": ["-1", "2"],
            "cells": [{"singletons": ["0"]}, {"singletons": ["1"]}],
        },
    },
}

DISSIPATION = {
    "kind": "dissipation",
    "inputs": {
        "times": [0, 1],
        "measures": [
            {"atoms": [["0", "1"]]},
            {"atoms": [["0", "0.5"], ["1", "0.5"]]},
        ],
        "partition": {
            "window": ["-1", "2"],
            "cells": [{"singletons": ["0"]}, {"singletons": ["1"]}],
        },
    },
}

IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
SIGMA_Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]

VALIDATE_OK = {
    "kind": "validate",
    "inputs": {
        "system": {
            "observables": {"z": SIGMA_Z, "z2": IDENTITY},
            "states": {"mix": [[[0.7, 0], [0, 0]], [[0, 0], [0.3, 0]]]},
            "suitability": [["mix", "z"], ["mix", "z2"]],
        },
        "relations": {"powers": [["z", 2, "z2"]], "compatible": [["z", "z2"]]},
        "center": ["z2"],
    },
}


VALIDATE_ALGEBRAIZATION = {
    "kind": "validate",
    "inputs": {
        **VALIDATE_OK["inputs"],
        "algebraization": {
            "observables": {"z": SIGMA_Z, "z2": IDENTITY},
            "states": VALIDATE_OK["inputs"]["system"]["states"],
        },
    },
}

SPECTRAL = {
    "kind": "spectral",
    "inputs": {"observable": SIGMA_Z, "state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
}

TOMOGRAPHY = {
    "kind": "tomography",
    "inputs": {
        "problem": {
            "observables": [SIGMA_Z, IDENTITY],
            "expectations": [0.4, 1.0],
            "frame": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        },
    },
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        config = write_config(tmp_path, SIMULATE)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "simulate.csv").read_bytes()
        second = (tmp_path / "b" / "simulate.csv").read_bytes()
        assert first == second

    def test_footer_has_provenance(self, tmp_path):
        config = write_config(tmp_path, SIMULATE)
        main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        text = (tmp_path / "simulate.csv").read_text()
        assert "# config_hash=sha256:" in text
        assert "# seed=42" in text
        assert "# version=oplab-" in text


# argv, then what `cli.read_args` makes of it: None and the parsed (kind,
# config, seed, out, mode); 1 and the message of the usage error; or 0 and
# None for the help.
READ = ("simulate", "c.json", None, ".", None)
OPTION_TABLE = [
    (["simulate", "--config", "c.json"], None, READ),
    (["simulate", "--config=c.json", "--seed=7", "--out=o", "--mode=float"], None,
     ("simulate", "c.json", 7, "o", "float")),
    (["--config", "c.json", "--seed", "7", "simulate"], None, ("simulate", "c.json", 7, ".", None)),
    (["--seed", "3", "spectral", "--out", "o", "--config", "c.json"], None,
     ("spectral", "c.json", 3, "o", None)),
    (["simulate", "--conf", "c.json", "--se", "1", "--o", "o", "--m", "rational"], None,
     ("simulate", "c.json", 1, "o", "rational")),
    (["simulate", "--c=c.json"], None, READ),
    (["simulate", "--config", "a.json", "--seed", "1", "--config", "c.json", "--seed=2"], None,
     ("simulate", "c.json", 2, ".", None)),
    (["simulate", "--config", "c.json", "--seed", "-5"], None, ("simulate", "c.json", -5, ".", None)),
    (["simulate", "--config", "c.json", "--out", "-"], None, ("simulate", "c.json", None, "-", None)),
    (["simulate", "--config", "c.json", "--out", "-x y"], None,
     ("simulate", "c.json", None, "-x y", None)),
    (["--config", "c.json", "--", "simulate"], None, READ),
    (["simulate", "--", "--config"], 1, "the following arguments are required: --config"),
    (["simulate", "--config"], 1, "argument --config: expected one argument"),
    (["simulate", "--config", "--seed", "1"], 1, "argument --config: expected one argument"),
    (["simulate", "--config", "c.json", "--bogus", "x"], 1, "unrecognized arguments: --bogus x"),
    (["simulate", "--config", "c.json", "-x"], 1, "unrecognized arguments: -x"),
    (["simulate", "estimate", "--config", "c.json"], 1, "unrecognized arguments: estimate"),
    (["simulate", "--config=c.json", "--"], 1, "unrecognized arguments: --"),
    (["simulate", "--config", "c.json", "--mode", "bogus"], 1,
     "argument --mode: invalid choice: 'bogus' (choose from 'rational', 'float')"),
    (["simulate", "--config", "c.json", "--seed", "1.5"], 1,
     "argument --seed: invalid int value: '1.5'"),
    (["simulate", "--config", "c.json", "--seed", "-1.5"], 1,
     "argument --seed: invalid int value: '-1.5'"),
    (["bogus", "--config", "c.json"], 1,
     "argument command: invalid choice: 'bogus' (choose from 'simulate', 'estimate', 'entropy', "
     "'dissipation', 'tomography', 'kolmogorov', 'spectral', 'validate', 'report')"),
    ([], 1, "the following arguments are required: command, --config"),
    (["--mode", "bogus", "-h"], 1,
     "argument --mode: invalid choice: 'bogus' (choose from 'rational', 'float')"),
    (["-h", "--=x"], 1,
     "ambiguous option: --=x could match --help, --config, --seed, --out, --mode"),
    (["simulate", "--config", "c.json", "-hx"], 1,
     "argument -h/--help: ignored explicit argument 'x'"),
    (["simulate", "--help=", "--config", "c.json"], 1,
     "argument -h/--help: ignored explicit argument ''"),
    (["-h"], 0, None),
    (["simulate", "--help"], 0, None),
    (["--he"], 0, None),
    (["-hh"], 0, None),
    (["simulate", "extra", "-x", "-h"], 0, None),
]


class TestOptionReader:
    """`cli.read_args` reads the kind and its four options as argparse,
    which read them before it, did: each spelling it took, each argv it
    refused, with its message, and the help."""

    @pytest.mark.parametrize("argv, code, expected", OPTION_TABLE)
    def test_argv(self, capsys, argv, code, expected):
        if code is None:
            args = cli.read_args(argv)
            assert (args.command, args.config, args.seed, args.out, args.mode) == expected
            assert capsys.readouterr() == ("", "")
            return
        with pytest.raises(SystemExit) as exc:
            cli.read_args(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and out.startswith("usage: oplab [-h] --config CONFIG")
            for option in ("-h, --help", "--config CONFIG", "--seed SEED", "--out OUT",
                           "--mode {rational,float}"):
                assert f"\n  {option}" in out
        else:
            assert out == "" and err.startswith("usage: oplab [-h] --config CONFIG")
            assert err.endswith(f"\noplab: error: {expected}\n")

    @staticmethod
    def _argparse():
        """The parser `cli.read_args` replaced, with argparse's own exit code
        for a usage error."""
        parser = argparse.ArgumentParser(prog="oplab")
        parser.add_argument("command", choices=cli._COMMANDS)
        parser.add_argument("--config", required=True)
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument("--out", default=".")
        parser.add_argument("--mode", choices=("rational", "float"), default=None)
        return parser

    @staticmethod
    def _outcome(read, argv):
        """The parsed values of ``argv``, or the exit code it raised."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                args = read(argv)
            except SystemExit as exc:
                return {0: "help"}.get(exc.code, "refused")
        return (args.command, args.config, args.seed, args.out, args.mode)

    @settings(max_examples=400, deadline=None)
    @given(argv=st.lists(st.sampled_from(
        ["simulate", "spectral", "bogus", "--config", "--conf", "--config=c.json", "c.json",
         "--seed", "--se=3", "-5", "7", "abc", "--out", "--o=o", "--mode", "float", "-x",
         "--bogus", "-h"]), max_size=7))
    def test_accepts_and_refuses_what_argparse_did(self, argv):
        assert self._outcome(cli.read_args, argv) == self._outcome(self._argparse().parse_args,
                                                                  argv)


class TestConfigDigest:
    """`serialization.text_digest`, the footer's digest, is the SHA-256 of
    the config's UTF-8 encoding on either side of
    `serialization.OPENSSL_MIN_BYTES`, and with the built-in modules hidden,
    so that ``hashlib`` hashes every size."""

    SIZES = (0, 1, OPENSSL_MIN_BYTES - 1, OPENSSL_MIN_BYTES, OPENSSL_MIN_BYTES + 1)
    HIDDEN = pytest.mark.parametrize("hidden", [(), ("_sha2", "_sha256")],
                                     ids=["builtin", "hidden"])

    @HIDDEN
    @pytest.mark.parametrize("size", SIZES)
    def test_digest_is_sha256(self, monkeypatch, size, hidden):
        for name in hidden:
            monkeypatch.setitem(sys.modules, name, None)
        text = ('[[0.5, -0.25], "1/3"], ' * (size // 23 + 1))[:size]
        assert serialization.text_digest(text) == hashlib.sha256(text.encode()).digest()

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.characters(codec="utf-8"), max_size=40), piece=st.integers(1, 5))
    @example(text="a\u00e9\u20ac\U0001f600\U0010ffff", piece=1)
    @example(text="\U0001f600" * 7, piece=3)
    def test_digest_of_any_text_is_sha256(self, text, piece):
        # Pieces of a few characters put a slice edge at every character,
        # inside and beside the multi-byte ones.
        with mock.patch.object(serialization, "_PIECE", piece):
            assert serialization.text_digest(text) == hashlib.sha256(text.encode()).digest()

    @HIDDEN
    def test_the_threshold_counts_characters(self, monkeypatch, hidden):
        """A text under the constant in characters but over it in UTF-8
        bytes is hashed by the built-in module, where there is one."""
        for name in hidden:
            monkeypatch.setitem(sys.modules, name, None)
        text = "\u00e9" * (OPENSSL_MIN_BYTES // 2 + 1)
        assert len(text) < OPENSSL_MIN_BYTES < len(text.encode())
        imported = []
        real = serialization.importlib.import_module
        monkeypatch.setattr(serialization.importlib, "import_module",
                            lambda name: imported.append(name) or real(name))
        assert serialization.text_digest(text) == hashlib.sha256(text.encode()).digest()
        assert imported[0] == serialization._BUILTIN_SHA256
        assert imported[1:] == (["hashlib"] if hidden else [])


class TestSeedResolution:
    def test_flag_beats_config(self, tmp_path):
        config = write_config(tmp_path, SIMULATE)
        main(["simulate", "--config", str(config), "--seed", "7", "--out", str(tmp_path / "flag")])
        assert "# seed=7" in (tmp_path / "flag" / "simulate.csv").read_text()

    def test_env_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPLAB_SEED", "9")
        config = write_config(tmp_path, SIMULATE)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "env")])
        assert "# seed=9" in (tmp_path / "env" / "simulate.csv").read_text()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPLAB_SEED", "9")
        config = write_config(tmp_path, SIMULATE)
        main(["simulate", "--config", str(config), "--seed", "7", "--out", str(tmp_path / "x")])
        assert "# seed=7" in (tmp_path / "x" / "simulate.csv").read_text()

    def test_a_seed_variable_that_is_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPLAB_SEED", "x")
        config = write_config(tmp_path, SIMULATE)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: OPLAB_SEED is not an integer: 'x'\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_missing_seed_errors(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPLAB_SEED", raising=False)
        payload = dict(SIMULATE)
        payload.pop("seed")
        config = write_config(tmp_path, payload)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1


class TestErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "simulate",,}', encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_a_config_that_is_not_an_object(self, tmp_path, capsys):
        config = write_config(tmp_path, [SIMULATE])
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: config must be an object\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1

    def test_missing_field(self, tmp_path, capsys):
        config = write_config(tmp_path, {"kind": "simulate", "seed": 1, "inputs": {}})
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "truth" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [], ["simulate"], ["bogus", "--config", "c.json"],
        ["simulate", "--config", "c.json", "--seed", "abc"],
    ])
    def test_usage_errors_exit_1(self, capsys, argv):
        # Exit 2 means a validation failure, so a usage error exits 1.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_kind_mismatch(self, tmp_path):
        config = write_config(tmp_path, SIMULATE)
        assert main(["entropy", "--config", str(config), "--out", str(tmp_path)]) == 1

    def test_dimension_mismatch_in_validate(self, tmp_path):
        payload = json.loads(json.dumps(VALIDATE_OK))
        payload["inputs"]["system"]["states"]["mix"] = [[[1, 0]]]
        config = write_config(tmp_path, payload)
        assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 1

    def test_missing_state_mapping(self, tmp_path):
        payload = json.loads(json.dumps(VALIDATE_OK))
        payload["inputs"]["algebraization"] = {
            "observables": {"z": SIGMA_Z, "z2": IDENTITY},
            "states": {},
        }
        config = write_config(tmp_path, payload)
        assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("field", [
        "outcomes",
        "system.observables",
        "system.states",
        "algebraization.observables",
        "algebraization.states",
    ])
    def test_field_that_is_not_an_object(self, tmp_path, capsys, field):
        payload = json.loads(json.dumps(KOLMOGOROV_OK if field == "outcomes" else VALIDATE_OK))
        if field.startswith("algebraization"):
            payload["inputs"]["algebraization"] = dict(payload["inputs"]["system"])
        *parents, name = field.split(".")
        node = payload["inputs"]
        for key in parents:
            node = node[key]
        node[name] = []
        config = write_config(tmp_path, payload)
        assert main([payload["kind"], "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: inputs.{field} must be an object\n"
        assert not list(tmp_path.glob("*.csv"))


    def test_failed_dissipation_leaves_no_csv(self, tmp_path, capsys):
        # The partition covers the t=0 measure but not the atom at 1 of t=1.
        payload = json.loads(json.dumps(DISSIPATION))
        payload["inputs"]["partition"]["cells"] = [{"singletons": ["0"]}]
        config = write_config(tmp_path, payload)
        assert main(["dissipation", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: PartitionDoesNotCover: ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("kind", ["simulate", "estimate"])
    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 2 ** 70])
    def test_trials_over_the_cap_name_the_field(self, tmp_path, capsys, kind, trials):
        payload = json.loads(json.dumps(SIMULATE))
        payload["kind"] = kind
        payload["inputs"]["trials"] = trials
        config = write_config(tmp_path, payload)
        assert main([kind, "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "inputs.trials" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_finite_probability_in_kolmogorov(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"kind": "kolmogorov", "inputs": {"outcomes": {"a": [0, 1]}, "constraints":'
                        ' [{"type": "marginal", "observable": "a", "value": 0, "prob": 1e999}]}}',
                        encoding="utf-8")
        assert main(["kolmogorov", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("names", [["a"], [], ["a", "b", "a"]])
    def test_correlation_needs_two_observables(self, tmp_path, capsys, names):
        payload = json.loads(json.dumps(KOLMOGOROV_BAD))
        payload["inputs"]["constraints"][0]["observables"] = names
        config = write_config(tmp_path, payload)
        assert main(["kolmogorov", "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "observables" in err and "Traceback" not in err

    # json.dumps writes math.inf and math.nan as the JSON tokens Infinity and NaN.

    def test_non_finite_rational_atom(self, tmp_path, capsys):
        payload = json.loads(json.dumps(ENTROPY))
        payload["inputs"]["measure"]["atoms"][0] = [math.inf, "1"]
        config = write_config(tmp_path, payload)
        assert main(["entropy", "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("weight", ["1/0", "1e100000000"])
    def test_unparseable_rational_atom(self, tmp_path, capsys, weight):
        payload = json.loads(json.dumps(ENTROPY))
        payload["inputs"]["measure"]["atoms"][0] = ["0", weight]
        config = write_config(tmp_path, payload)
        assert main(["entropy", "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_nan_singleton(self, tmp_path, capsys):
        payload = json.loads(json.dumps(ENTROPY))
        payload["inputs"]["partition"]["cells"][0]["singletons"] = [math.nan]
        config = write_config(tmp_path, payload)
        assert main(["entropy", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_json_infinity_endpoint_reads_like_the_string(self, tmp_path):
        outputs = []
        for k, end in enumerate(["inf", math.inf]):
            payload = json.loads(json.dumps(ENTROPY))
            payload["inputs"]["partition"] = {
                "window": ["-1", end], "cells": [{"intervals": [["-1", end]]}],
            }
            config = write_config(tmp_path, payload, name=f"config{k}.json")
            assert main(["entropy", "--config", str(config), "--out", str(tmp_path / str(k))]) == 0
            text = (tmp_path / str(k) / "entropy.csv").read_text()
            outputs.append([line for line in text.splitlines() if "config_hash" not in line])
        assert outputs[0] == outputs[1]
        assert "[-1,inf)" in outputs[0][1]


    @pytest.mark.parametrize("entry", [[], [1], [1, 2, 3], ["1", 0], [None, 0]])
    def test_matrix_entry_that_is_not_a_pair(self, tmp_path, capsys, entry):
        observable = json.loads(json.dumps(SIGMA_Z))
        observable[1][0] = entry
        config = write_config(tmp_path, {
            "kind": "spectral",
            "inputs": {"observable": observable, "state": IDENTITY},
        })
        assert main(["spectral", "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err in ("error: inputs.observable[1][0] must have 2 entries\n",
                       "error: inputs.observable[1][0][0]: not a finite number\n")
        assert not list(tmp_path.glob("*.csv"))


CONFIGS = {
    "simulate": SIMULATE,
    "estimate": {**SIMULATE, "kind": "estimate"},
    "kolmogorov_ok": KOLMOGOROV_OK,
    "kolmogorov_bad": KOLMOGOROV_BAD,
    "entropy": ENTROPY,
    "dissipation": DISSIPATION,
    "tomography": TOMOGRAPHY,
    "spectral": SPECTRAL,
    "validate": VALIDATE_OK,
    "validate_algebraization": VALIDATE_ALGEBRAIZATION,
    "report": {"kind": "report", "inputs": {"artifacts": ["entropy.csv"]}},
}

WRONG_TYPES = ([], {}, "x", 5, None)


def _containers(node, path=()):
    """The path of every object or list below ``node``, depth first."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(child, (dict, list)):
            yield path + (key,)
            yield from _containers(child, path + (key,))


def _leaves(node, path=()):
    """The path of every scalar below ``node``, depth first."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(child, (dict, list)):
            yield from _leaves(child, path + (key,))
        else:
            yield path + (key,)


# Wrong JSON types, then values of the right type that are out of range or
# unreadable.  No valid but huge size, such as trials near MAX_TRIALS.
SCALAR_POOL = WRONG_TYPES + (True, 1.5, -1, 0, math.nan, math.inf, -math.inf,
                             "1/0", "1e100000", 10 ** 30)
OPLAB_ERRORS = tuple(name for name, obj in vars(oplab_errors).items()
                     if isinstance(obj, type) and issubclass(obj, oplab_errors.OplabError))


def _dotted(path):
    """``("inputs", "measures", 0, "atoms")`` as ``inputs.measures[0].atoms``;
    a top-level field as ``config.<name>``."""
    text = "config" if path[0] != "inputs" else ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _names_a_path(err, paths):
    """Whether ``err`` is an oplab error line or names one of ``paths`` or an
    ancestor below ``inputs``."""
    if err.startswith(tuple(f"error: {name}: " for name in OPLAB_ERRORS)):
        return True
    named = {_dotted(path[:k]) for path in paths for k in range(2, len(path) + 1)}
    named |= {_dotted(path) for path in paths}
    return any(re.search(re.escape(name) + r"(?![\w\[.])", err) for name in named)


def _run_corrupted(tmp_path, name, payload):
    """(exit code, stderr) of the command of ``CONFIGS[name]`` on ``payload``;
    an exception that escapes ``main`` stands in for the exit code."""
    config = write_config(tmp_path, payload)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([CONFIGS[name]["kind"], "--config", str(config),
                         "--out", str(tmp_path / "out")])
    except Exception as exc:  # noqa: BLE001 - any escape is the failure
        return repr(exc), err.getvalue()
    return code, err.getvalue()


def _at(payload, path):
    return reduce(lambda node, key: node[key], path, payload)


def _replaced(payload, path, value):
    payload = json.loads(json.dumps(payload))
    _at(payload, path[:-1])[path[-1]] = value
    return payload


class TestConfigCorruption:
    """A config with fields of the wrong JSON type or scalars out of range
    exits 0, 1 or 2, and exit 1 comes with an ``error:`` line that names the
    field, never a traceback."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_each_container_field_of_each_wrong_type(self, tmp_path, capsys, name):
        failures = []
        for path in _containers(CONFIGS[name]):
            for value in WRONG_TYPES:
                payload = _replaced(CONFIGS[name], path, value)
                config = write_config(tmp_path, payload)
                try:
                    code = main([payload["kind"], "--config", str(config),
                                 "--out", str(tmp_path / "out")])
                except Exception as exc:  # noqa: BLE001 - any escape is the failure
                    failures.append((path, value, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if code not in (0, 1, 2) or (code == 1 and not err.startswith("error: ")):
                    failures.append((path, value, code, err))
        assert failures == []

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_each_scalar_of_each_pool_value(self, tmp_path, name):
        # Exit 1 names the replaced scalar or an ancestor, unless the library
        # refused the value with one of its own errors.
        failures = []
        for path in _leaves(CONFIGS[name]):
            for value in SCALAR_POOL:
                code, err = _run_corrupted(tmp_path, name, _replaced(CONFIGS[name], path, value))
                if code not in (0, 1, 2) or (code == 1 and not _names_a_path(err, [path])):
                    failures.append((_dotted(path), value, code, err))
        assert failures == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_to_three_corruptions_at_once(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(CONFIGS)))
        payload = json.loads(json.dumps(CONFIGS[name]))
        replaced = []
        for _ in range(data.draw(st.integers(1, 3))):
            paths = sorted(set(_containers(payload)) | set(_leaves(payload)), key=repr)
            if not paths:
                break
            path = data.draw(st.sampled_from(paths))
            payload = _replaced(payload, path, data.draw(st.sampled_from(SCALAR_POOL + ("01",))))
            replaced.append(path)
        code, err = _run_corrupted(tmp_path_factory.mktemp("fuzz"), name, payload)
        assert code in (0, 1, 2), (replaced, err)
        # A replaced container can leave a reference elsewhere dangling, such
        # as a constraint naming a dropped observable: any path may be named.
        assert code != 1 or _names_a_path(err, replaced) or re.fullmatch(
            r"error: .*\b(inputs|config)\b.*\n", err), (replaced, err)

    @pytest.mark.parametrize("name, path, value, message", [
        ("simulate", ("inputs", "trials"), 1.5, "inputs.trials must be an integer"),
        ("simulate", ("inputs", "trials"), True, "inputs.trials must be an integer"),
        ("simulate", ("inputs", "trials"), 0, "inputs.trials must be from 1 to MAX_TRIALS = 100000000"),
        ("simulate", ("seed",), 1.5, "config.seed must be an integer"),
        ("simulate", ("kind",), 5, "config.kind must be a string"),
        ("estimate", ("inputs", "alpha"), math.nan, "inputs.alpha must be a finite number"),
        ("estimate", ("inputs", "alpha"), 0, "inputs.alpha must be above 0"),
        ("dissipation", ("inputs", "times", 1), math.nan, "inputs.times[1] must be a finite number"),
        ("dissipation", ("inputs", "times"), [0, 0],
         "inputs.times: times must be strictly increasing"),
        ("entropy", ("inputs", "measure", "atoms", 1, 1), "1/0",
         "inputs.measure.atoms[1][1]: zero denominator"),
        ("entropy", ("inputs", "partition", "cells", 1, "singletons", 0), [],
         "inputs.partition.cells[1].singletons[0]: cannot convert list to rational scalar"),
        ("spectral", ("inputs", "observable", 1, 1, 0), math.nan,
         "inputs.observable[1][1][0]: not a finite number"),
        ("spectral", ("inputs", "state", 0, 0, 0), 2, "inputs.state: trace 2.5 differs from one"),
        ("tomography", ("inputs", "problem", "expectations", 0), "x",
         "inputs.problem.expectations[0] must be a finite number"),
        ("kolmogorov_ok", ("inputs", "outcomes", "b"), [], "inputs.outcomes.b must be a non-empty list"),
        ("kolmogorov_ok", ("inputs", "outcomes", "a"), [-1, 1, "2/2"],
         "inputs.outcomes.a[2] repeats the value 1 of inputs.outcomes.a[1]"),
        ("kolmogorov_ok", ("inputs", "outcomes", "b", 1), "-1.0",
         "inputs.outcomes.b[1] repeats the value -1 of inputs.outcomes.b[0]"),
        ("kolmogorov_ok", ("inputs", "constraints", 0, "observable"), "x",
         "inputs.constraints[0].observable: unknown observable label 'x'"),
        ("kolmogorov_bad", ("inputs", "constraints", 1, "observables", 1), "d",
         "inputs.constraints[1].observables[1]: unknown observable label 'd'"),
        ("validate", ("inputs", "system", "suitability", 1, 0), "pure",
         "inputs.system.suitability[1][0]: unknown state label 'pure'"),
        ("validate", ("inputs", "relations", "powers", 0, 1), -1,
         "inputs.relations.powers[0][1]: not an integer of at least 0"),
        ("validate", ("inputs", "relations", "compatible", 0, 1), "x",
         "inputs.relations.compatible[0][1]: unknown observable label 'x'"),
        ("validate", ("inputs", "center", 0), "mix", "inputs.center[0]: unknown observable label 'mix'"),
        ("validate", ("inputs", "embedding_families"), {"x": ["mix"]},
         "inputs.embedding_families.x: unknown observable label 'x'"),
        ("validate", ("inputs", "embedding_families"), {"z": ["z"]},
         "inputs.embedding_families.z[0]: unknown state label 'z'"),
        ("validate", ("inputs", "embedding_families"), {"z": []},
         "inputs.embedding_families.z must be a non-empty list"),
        ("validate", ("inputs", "system"), {"observables": {}, "states": {}, "suitability": []},
         "inputs.system: a lab system needs at least one observable and one state"),
        ("simulate", ("mode",), "bogus", "config.mode: unknown mode 'bogus'"),
        ("validate", ("inputs", "relations", "scalings"), [["z", "x", "z2"]],
         "inputs.relations.scalings[0][1] must be a finite number"),
    ])
    def test_scalar_names_its_path(self, tmp_path, capsys, name, path, value, message):
        payload = _replaced(CONFIGS[name], path, value)
        config = write_config(tmp_path, payload)
        assert main([CONFIGS[name]["kind"], "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name, path, value, message", [
        ("kolmogorov_ok", ("inputs", "outcomes"), {"\ud800": [1]},
         "inputs.outcomes: '\\ud800' holds a lone surrogate"),
        ("kolmogorov_ok", ("inputs", "constraints", 0, "observable"), "a\udc00",
         "inputs.constraints[0].observable: 'a\\udc00' holds a lone surrogate"),
        ("validate", ("inputs", "center"), ["z2", "\udbff"],
         "inputs.center[1]: '\\udbff' holds a lone surrogate"),
        ("simulate", ("note",), "\ud83d", "config.note: '\\ud83d' holds a lone surrogate"),
    ], ids=["key", "string", "list-entry", "top-level"])
    def test_a_lone_surrogate_names_its_path(self, tmp_path, capsys, name, path, value, message):
        """A lone surrogate escape is valid JSON, but no output can encode
        the string it makes: the config is refused before any table opens."""
        config = write_config(tmp_path, _replaced(CONFIGS[name], path, value))
        assert "\\ud" in config.read_text(encoding="utf-8")
        assert main([CONFIGS[name]["kind"], "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_a_surrogate_pair_is_one_character_and_reads(self, tmp_path, capsys):
        payload = _replaced(KOLMOGOROV_OK, ("inputs", "outcomes"), {"\U0001f600": [-1, 1],
                                                                    "b": [-1, 1]})
        payload["inputs"]["constraints"][0]["observable"] = "\U0001f600"
        config = write_config(tmp_path, payload)
        assert "\\ud83d\\ude00" in config.read_text(encoding="utf-8")
        assert main(["kolmogorov", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "\U0001f600" in (tmp_path / "kolmogorov.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_each_list_replaced_by_a_string_exits_1(self, tmp_path, capsys, name):
        # "01" unpacks like a pair, so a reader that takes any iterable would
        # read it character by character and run on.
        failures = []
        for path in _containers(CONFIGS[name]):
            if not isinstance(_at(CONFIGS[name], path), list):
                continue
            payload = _replaced(CONFIGS[name], path, "01")
            config = write_config(tmp_path, payload)
            code = main([payload["kind"], "--config", str(config),
                         "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if code != 1 or not err.startswith("error: "):
                failures.append((path, code, err))
        assert failures == []

    @pytest.mark.parametrize("name, path, value, message", [
        ("entropy", ("inputs", "measure", "atoms"), ["01"],
         "inputs.measure.atoms[0] must be a list"),
        ("simulate", ("inputs", "target"), {"intervals": ["01"]},
         "inputs.target.intervals[0] must be a list"),
        ("entropy", ("inputs", "partition", "cells", 1), {"intervals": [["1", "2"], "01"]},
         "inputs.partition.cells[1].intervals[1] must be a list"),
        ("kolmogorov_ok", ("inputs", "outcomes", "a"), "01", "inputs.outcomes.a must be a list"),
        ("validate", ("inputs", "relations", "compatible"), ["zz"],
         "inputs.relations.compatible[0] must be a list"),
        ("validate", ("inputs", "relations", "powers"), ["z2z"],
         "inputs.relations.powers[0] must be a list"),
        ("validate", ("inputs", "system", "suitability", 1), "mz",
         "inputs.system.suitability[1] must be a list"),
        ("validate", ("inputs", "center"), "z2", "inputs.center must be a list"),
        ("validate", ("inputs", "embedding_families"), {"z": "mix"},
         "inputs.embedding_families.z must be a list"),
        ("validate", ("inputs", "embedding_families"), [],
         "inputs.embedding_families must be an object"),
    ])
    def test_string_for_a_list_names_the_field(self, tmp_path, capsys, name, path, value,
                                               message):
        payload = _replaced(CONFIGS[name], path, value)
        config = write_config(tmp_path, payload)
        assert main([payload["kind"], "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name, path, message", [
        ("simulate", ("inputs", "target"), "inputs.target must be an object"),
        ("estimate", ("inputs", "target"), "inputs.target must be an object"),
        ("entropy", ("inputs", "partition", "cells"), "inputs.partition.cells must be a list"),
        ("entropy", ("inputs", "partition", "cells", 1),
         "inputs.partition.cells[1] must be an object"),
        ("dissipation", ("inputs", "partition", "cells"),
         "inputs.partition.cells must be a list"),
        ("dissipation", ("inputs", "partition", "cells", 0),
         "inputs.partition.cells[0] must be an object"),
        ("validate", ("inputs", "relations"), "inputs.relations must be an object"),
        ("validate_algebraization", ("inputs", "relations"),
         "inputs.relations must be an object"),
    ])
    @pytest.mark.parametrize("value", ["x", 5, None])
    def test_message_names_the_field(self, tmp_path, capsys, name, path, message, value):
        payload = _replaced(CONFIGS[name], path, value)
        config = write_config(tmp_path, payload)
        assert main([payload["kind"], "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))


class TestKolmogorovCommand:
    def test_infeasible_writes_certificate_and_exits_2(self, tmp_path):
        config = write_config(tmp_path, KOLMOGOROV_BAD)
        assert main(["kolmogorov", "--config", str(config), "--out", str(tmp_path)]) == 2
        text = (tmp_path / "kolmogorov.csv").read_text()
        assert "# verdict=infeasible" in text
        assert "# deficit=" in text
        assert "CorrelationConstraint" in text

    def test_feasible_writes_joint(self, tmp_path):
        config = write_config(tmp_path, KOLMOGOROV_OK)
        assert main(["kolmogorov", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "kolmogorov.csv").read_text().splitlines()
        assert lines[0] == "a,b,probability"
        assert "# verdict=feasible" in lines[-2] or "# verdict=feasible" in "\n".join(lines)


class TestValidateCommand:
    def test_identity_all_pass(self, tmp_path):
        config = write_config(tmp_path, VALIDATE_OK)
        assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert all(entry["pass"] for entry in report["conditions"])

    def test_injected_defect_exits_2(self, tmp_path):
        payload = json.loads(json.dumps(VALIDATE_ALGEBRAIZATION))
        payload["inputs"]["algebraization"]["observables"]["z"] = [[[2, 0], [0, 0]], [[0, 0], [-2, 0]]]
        config = write_config(tmp_path, payload)
        assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "validation.json").read_text())
        failed = [entry["name"] for entry in report["conditions"] if not entry["pass"]]
        assert "expectation-matching" in failed

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_nan_gap_fails_with_its_witness(self, tmp_path):
        """z^3 overflows to inf and inf * 0 is NaN: the polynomial condition
        fails with a NaN residual, not 0.0, and names its witness."""
        payload = json.loads(json.dumps(VALIDATE_OK))
        payload["inputs"]["system"]["observables"]["z"] = [[[0, 0], [1e200, 0]],
                                                           [[1e200, 0], [0, 0]]]
        payload["inputs"]["relations"] = {"powers": [["z", 3, "z2"]]}
        config = write_config(tmp_path, payload)
        assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "validation.json").read_text())
        entry, = [e for e in report["conditions"] if e["name"] == "polynomial"]
        assert not entry["pass"] and entry["witness"] == "z^3 vs z2"
        assert math.isnan(entry["residual"])

    @pytest.mark.parametrize("output", ["v.csv", "v.json.csv"])
    def test_report_and_csv_must_not_share_a_path(self, tmp_path, capsys, output):
        """The CSV goes beside the JSON report, at its path with suffix .csv:
        an output that already ends in .csv would lose the report."""
        config = write_config(tmp_path, {**VALIDATE_OK, "output": output})
        out = tmp_path / "out"
        assert main(["validate", "--config", str(config), "--out", str(out)]) == 1
        assert "config.output" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestOtherCommands:
    def test_entropy_rows(self, tmp_path):
        config = write_config(tmp_path, {
            "kind": "entropy",
            "inputs": {
                "measure": {"atoms": [["0", "0.5"], ["1", "0.5"]]},
                "partition": {
                    "window": ["-1", "2"],
                    "cells": [{"singletons": ["0"]}, {"singletons": ["1"]}],
                },
            },
        })
        assert main(["entropy", "--config", str(config), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "entropy.csv").read_text()
        assert "# H_bits=1.0" in text

    def test_spectral_output(self, tmp_path):
        config = write_config(tmp_path, SPECTRAL)
        assert main(["spectral", "--config", str(config), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "spectral.csv").read_text()
        assert "atom" in text and "spectral_radius" in text

    def test_estimate_output(self, tmp_path):
        config = write_config(tmp_path, {
            "kind": "estimate",
            "seed": 42,
            "inputs": {
                "truth": {"atoms": [["0", "0.7"], ["1", "0.3"]]},
                "target": {"singletons": ["1"]},
                "trials": 500,
            },
        })
        assert main(["estimate", "--config", str(config), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "estimate.csv").read_text()
        assert "p_hat" in text and "lower_bound_holds" in text

    def test_tomography_ok_and_infeasible(self, tmp_path):
        config = write_config(tmp_path, TOMOGRAPHY, "tomo_ok.json")
        assert main(["tomography", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "weight_0" in (tmp_path / "tomography.csv").read_text()

        bad = json.loads(json.dumps(TOMOGRAPHY))
        bad["inputs"]["problem"]["expectations"] = [1.5, 1.0]
        config2 = write_config(tmp_path, bad, "tomo_bad.json")
        assert main(["tomography", "--config", str(config2), "--out", str(tmp_path / "bad")]) == 2
        assert "NoRealizableFrame" in (tmp_path / "bad" / "tomography.csv").read_text()


class TestCell:
    """Every table cell and footer value is written by one rule."""

    @pytest.mark.parametrize("value, written", [
        (Fraction(3, 10), "0.3"),
        (Fraction(1, 3), "1/3"),
        (Fraction(5), "5"),
        (Fraction(-7, 2), "-3.5"),
        (np.float64(0.1), "0.1"),
        (math.nan, "nan"),
        (-0.0, "-0.0"),
    ])
    def test_a_number_is_written_exactly_or_as_the_shortest_repr(self, value, written):
        assert commands._cell(value) == written

    @pytest.mark.parametrize("value", [None, True, 3])
    def test_anything_else_is_left_to_csv(self, value):
        assert commands._cell(value) is value


class TestReport:
    def _dissipation_config(self, tmp_path):
        return write_config(tmp_path, DISSIPATION, "diss.json")

    def test_join_on_time_column(self, tmp_path):
        config = self._dissipation_config(tmp_path)
        assert main(["dissipation", "--config", str(config), "--out", str(tmp_path)]) == 0
        # second artifact sharing the time column
        other = tmp_path / "other.csv"
        other.write_text("t,extra\n0.0,10\n1.0,20\n", encoding="utf-8")
        report_config = write_config(tmp_path, {
            "kind": "report",
            "inputs": {"artifacts": ["dissipation.csv", "other.csv"]},
        }, "report.json")
        assert main(["report", "--config", str(report_config), "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "report.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0].startswith("t,")
        assert len(lines) == 3  # header + two joined time rows

    def test_single_artifact_passthrough(self, tmp_path):
        config = self._dissipation_config(tmp_path)
        main(["dissipation", "--config", str(config), "--out", str(tmp_path)])
        report_config = write_config(tmp_path, {
            "kind": "report",
            "inputs": {"artifacts": ["dissipation.csv"]},
        }, "report.json")
        assert main(["report", "--config", str(report_config), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.csv").read_text()
        assert "dissipation.csv" in text

    def test_empty_artifacts_error(self, tmp_path):
        config = write_config(tmp_path, {"kind": "report", "inputs": {"artifacts": []}})
        assert main(["report", "--config", str(config), "--out", str(tmp_path)]) == 1

    def test_an_empty_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "a.csv"
        artifact.write_bytes(b"")
        config = write_config(tmp_path, {"kind": "report", "inputs": {"artifacts": ["a.csv"]}})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 1
        message = f"inputs.artifacts[0]: artifact {artifact} is empty"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_artifact_error(self, tmp_path):
        config = write_config(tmp_path, {
            "kind": "report", "inputs": {"artifacts": ["nope.csv"]},
        })
        assert main(["report", "--config", str(config), "--out", str(tmp_path)]) == 1


class TestFileErrors:
    """A file that cannot be read or written exits 1 with one ``error:`` line
    that names it."""

    @staticmethod
    def _fails(capsys, argv, *named):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(name in err for name in named), err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        config = write_config(tmp_path, ENTROPY)
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        self._fails(capsys, ["entropy", "--config", str(config), "--out", str(out)], str(out))

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, {**ENTROPY, "output": "nosuch/x.csv"})
        self._fails(capsys, ["entropy", "--config", str(config), "--out", str(tmp_path)],
                    str(tmp_path / "nosuch" / "x.csv"))

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(ENTROPY).encode("utf-16"))
        self._fails(capsys, ["entropy", "--config", str(config), "--out", str(tmp_path)],
                    str(config))

    def _report(self, tmp_path, capsys, *named):
        config = write_config(tmp_path, {
            "kind": "report", "inputs": {"artifacts": ["a.csv", "b.csv"]}}, "report.json")
        self._fails(capsys, ["report", "--config", str(config), "--out", str(tmp_path / "out")],
                    *named)

    def test_artifact_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("t,x\n0,1\n", encoding="utf-8")
        (tmp_path / "b.csv").mkdir()
        self._report(tmp_path, capsys, "inputs.artifacts[1]", str(tmp_path / "b.csv"))

    def test_artifact_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_bytes(b"t,x\n0,\xff\n")
        (tmp_path / "b.csv").write_text("t,y\n0,1\n", encoding="utf-8")
        self._report(tmp_path, capsys, "inputs.artifacts[0]", str(tmp_path / "a.csv"))

    def test_joined_time_that_is_not_a_number(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("t,x\n0,1\nlater,2\n", encoding="utf-8")
        (tmp_path / "b.csv").write_text("t,y\n0,1\nlater,2\n", encoding="utf-8")
        self._report(tmp_path, capsys, "inputs.artifacts", "'later'")


class TestSpotCheck:
    def test_csv_rederivable_from_recorded_seed(self, tmp_path):
        """Numbers in a simulate CSV must be recomputable from the library
        using nothing but the recorded seed and the config inputs."""
        from fractions import Fraction as F

        from oplab.ensembles import run_ensemble
        from oplab.measures import BorelSet, DiscreteMeasure

        config = write_config(tmp_path, SIMULATE)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        footer = {
            line[2:].split("=", 1)[0]: line[2:].split("=", 1)[1]
            for line in lines if line.startswith("# ")
        }
        seed = int(footer["seed"])
        truth = DiscreteMeasure([(0, F(7, 10)), (1, F(3, 10))])
        log = run_ensemble(truth, BorelSet.point(1), 200, seed)
        recomputed = list(log.rows())
        data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(data) == len(recomputed)
        for row, (i, x, xi, f, w) in zip(data, recomputed):
            assert row == [str(i), str(x), str(xi), repr(f), repr(w)]


SIMULATE_P = {"0": [["0", "1"]], "3/10": [["0", "7/10"], ["1", "3/10"]], "1": [["1", "1"]]}
SRC = Path(oplab.__file__).resolve().parent.parent


def _python(tmp_path, args, stdin=None, env=None, preexec_fn=None):
    """Run ``python ARGS`` in a fresh interpreter that imports this oplab,
    with ``env`` over this process's environment (a None value unsets)."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, input=stdin,
                          preexec_fn=preexec_fn, capture_output=True, text=True, timeout=120)


def _simulate_config(tmp_path, trials, p="3/10"):
    payload = json.loads(json.dumps(SIMULATE))
    payload["inputs"]["truth"]["atoms"] = SIMULATE_P[p]
    payload["inputs"]["trials"] = trials
    return write_config(tmp_path, payload, f"simulate_{trials}_{p.replace('/', '_')}.json")


def _simulate(tmp_path, trials, p="3/10", name="run"):
    """Run ``simulate`` in this process; returns the CSV bytes."""
    config = _simulate_config(tmp_path, trials, p)
    out = tmp_path / name
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return (out / "simulate.csv").read_bytes()


class TestSimulateWorker:
    """The two-process ``simulate`` writer gives the serial loop's bytes, and
    its worker never outlives the call or returns into the caller."""

    @pytest.mark.parametrize("p", ["0", "3/10", "1"])
    @pytest.mark.parametrize("trials", [1, simulate.FORK_MIN_TRIALS - 1, simulate.FORK_MIN_TRIALS,
                                        PIECE - 1, PIECE, PIECE + 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                        2 * CHUNK + 1, 200_000])
    def test_two_processes_equal_serial(self, tmp_path, cpus, forks, parent, trials, p):
        cpus(1)
        serial = _simulate(tmp_path, trials, p, "serial")
        assert forks == []
        cpus(2)
        forked = _simulate(tmp_path, trials, p, "forked")
        assert len(forks) == (1 if trials >= simulate.FORK_MIN_TRIALS else 0)
        assert forked == serial
        assert serial.count(b"\n") == 1 + trials + 3  # header, rows, footer
        assert_no_child_left()

    def test_failing_worker_is_replaced_by_the_parent(self, tmp_path, monkeypatch, cpus, forks,
                                                      parent):
        cpus(1)
        serial = _simulate(tmp_path, CHUNK + 1, name="serial")
        real = simulate.format_rows

        def fails_in_worker(log, start=0, stop=None):
            if os.getpid() != parent:
                raise RuntimeError("worker fails")
            return real(log, start, stop)

        monkeypatch.setattr(simulate, "format_rows", fails_in_worker)
        cpus(2)
        assert _simulate(tmp_path, CHUNK + 1, name="forked") == serial
        assert len(forks) == 1
        assert_no_child_left()

    def test_parent_failure_kills_and_reaps_the_worker(self, tmp_path, monkeypatch, cpus, forks,
                                                       parent):
        real = simulate.format_rows

        def fails_in_parent(log, start=0, stop=None):
            if os.getpid() == parent:
                raise RuntimeError("parent fails")
            return real(log, start, stop)

        statuses = []
        real_waitpid = os.waitpid

        def recording_waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(simulate, "format_rows", fails_in_parent)
        cpus(2)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        with pytest.raises(RuntimeError, match="parent fails"):
            _simulate(tmp_path, 4 * CHUNK)
        assert len(forks) == 1
        # Killed, not left to format its 2·CHUNK rows.
        assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
        assert_no_child_left()

    def test_failing_worker_never_returns_into_the_caller(self, tmp_path):
        config = _simulate_config(tmp_path, CHUNK + 1)
        done = _python(tmp_path, ["-", "simulate", "--config", str(config)], (
            "import os, sys\n"
            "from oplab import _fork, cli\n"
            "from oplab.commands import simulate\n"
            "parent = os.getpid()\n"
            "real = simulate.format_rows\n"
            "def fails_in_worker(log, start=0, stop=None):\n"
            "    if os.getpid() != parent:\n"
            "        raise RuntimeError('worker fails')\n"
            "    return real(log, start, stop)\n"
            "simulate.format_rows = fails_in_worker\n"
            "_fork.available_cpus = lambda: 2\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('returned in', 'parent' if os.getpid() == parent else 'worker', code)\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.splitlines() == ["simulate.csv", "returned in parent 0"]

    def test_runs_clean_under_warnings_as_errors(self, tmp_path):
        config = _simulate_config(tmp_path, CHUNK + 1)
        done = _python(tmp_path, ["-W", "error", "-m", "oplab.cli", "simulate",
                                  "--config", str(config), "--out", "cli"], None)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert (tmp_path / "cli" / "simulate.csv").read_bytes() == _simulate(
            tmp_path, CHUNK + 1, name="in_process")

    def test_worker_memory_does_not_grow_with_trials(self, tmp_path, monkeypatch, cpus, forks,
                                                     parent):
        """The worker streams its rows: its peak RSS over its own run, read
        inside it, is about the same at 8·CHUNK trials as at 2·CHUNK."""
        resource = pytest.importorskip("resource")
        real = simulate.format_rows

        def measured_in_worker(log, start=0, stop=None):
            if os.getpid() == parent:
                return real(log, start, stop)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            yield from real(log, start, stop)
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            (tmp_path / f"grown_{log.n}").write_text(str(grown))

        monkeypatch.setattr(simulate, "format_rows", measured_in_worker)
        cpus(2)
        grown = {}
        for trials in (2 * CHUNK, 8 * CHUNK):
            _simulate(tmp_path, trials, name=f"n{trials}")
            grown[trials] = int((tmp_path / f"grown_{trials}").read_text())
        assert len(forks) == 2
        # ru_maxrss is in KiB on Linux, bytes on macOS; either way, holding the
        # worker's 4·CHUNK rows at once would add well over 8 MB.
        unit = 1 if sys.platform == "darwin" else 1024
        assert (grown[8 * CHUNK] - grown[2 * CHUNK]) * unit < 8 * 2 ** 20, grown
        assert_no_child_left()


class TestNumpyOnFirstUse:
    """numpy is imported by the first layer that touches ``np``: the exact
    classical kinds never load it, the matrix kinds do."""

    PROBE = (
        "import contextlib, io, json, sys\n"
        "import oplab.cli\n"
        "seen = [['import', None, 'numpy' in sys.modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = oplab.cli.main(argv)\n"
        "    seen.append([argv[0], code, 'numpy' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )

    def test_classical_kinds_run_without_numpy(self, tmp_path):
        spectral = write_config(tmp_path, SPECTRAL, "spectral.json")
        runs = [
            ["kolmogorov", "--config", str(write_config(tmp_path, KOLMOGOROV_OK, "ok.json"))],
            ["kolmogorov", "--config", str(write_config(tmp_path, KOLMOGOROV_BAD, "bad.json"))],
            ["entropy", "--config", str(write_config(tmp_path, ENTROPY, "entropy.json"))],
            ["dissipation", "--config", str(write_config(tmp_path, DISSIPATION, "diss.json")),
             "--mode", "float"],
            ["spectral", "--config", str(spectral)],
        ]
        for k, argv in enumerate(runs):
            argv += ["--out", f"out{k}"]
        done = _python(tmp_path, ["-c", self.PROBE, json.dumps(runs)])
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [
            ["import", None, False],
            ["kolmogorov", 0, False],
            ["kolmogorov", 2, False],
            ["entropy", 0, False],
            ["dissipation", 0, False],
            ["spectral", 0, True],
        ]


class TestBlasPin:
    """The CLI runs BLAS on one thread, set before numpy loads and over the
    caller's variables, so its bytes follow neither the CPUs nor those
    variables.  The library sets nothing."""

    NO_BLAS = dict.fromkeys(cli.BLAS_THREAD_VARIABLES)
    SHOW_BLAS = "print(json.dumps([os.environ.get(name) for name in %r]))" % (
        cli.BLAS_THREAD_VARIABLES,)

    def test_spectral_bytes_follow_neither_cpus_nor_callers_threads(self, tmp_path):
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        if len(cpus) < 2:
            pytest.skip("needs two CPUs")
        # A seeded d = 128 config: with OpenBLAS on two threads, about a third
        # of its weights differ in the last digit from one thread's.
        rng = np.random.default_rng(128)
        m = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        rho = m @ m.conj().T
        pairs = lambda a: [[[z.real, z.imag] for z in row] for row in a.tolist()]
        config = write_config(tmp_path, {"kind": "spectral", "inputs": {
            "observable": pairs((m + m.conj().T) / 2),
            "state": pairs(rho / np.trace(rho).real)}}, "spectral_128.json")
        first = min(cpus)
        runs = {
            "one_cpu": (self.NO_BLAS, lambda: os.sched_setaffinity(0, {first})),
            "every_cpu": (self.NO_BLAS, None),
            "two_threads": ({**self.NO_BLAS, "OPENBLAS_NUM_THREADS": "2"}, None),
        }
        tables = []
        for name, (env, preexec_fn) in runs.items():
            done = _python(tmp_path, ["-m", "oplab.cli", "spectral", "--config", str(config),
                                      "--out", name], env=env, preexec_fn=preexec_fn)
            assert done.returncode == 0, done.stderr
            tables.append((tmp_path / name / "spectral.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_the_library_sets_no_blas_variable(self, tmp_path):
        probe = ("import json, os\n"
                 "import oplab\n"
                 "z = oplab.HermitianObservable([[1.0, 0.0], [0.0, -1.0]])\n"
                 "oplab.spectral_measure(z, oplab.DensityState.maximally_mixed(2))\n"
                 + self.SHOW_BLAS + "\n")
        done = _python(tmp_path, ["-c", probe], env=self.NO_BLAS)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [None, None, None]

    @pytest.mark.parametrize("numpy_loaded,expected", [
        (False, ["1", "1", "1"]),
        (True, ["2", None, None]),
    ])
    def test_main_pins_blas_only_before_numpy_loads(self, tmp_path, numpy_loaded, expected):
        config = write_config(tmp_path, SPECTRAL, "spectral.json")
        probe = ("import contextlib, io, json, os, sys\n"
                 + ("import numpy\n" if numpy_loaded else "")
                 + "from oplab import cli\n"
                 "before = dict(os.environ)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    assert cli.main(sys.argv[1:]) == 0\n"
                 "print(json.dumps(dict(os.environ) == before))\n"
                 + self.SHOW_BLAS + "\n")
        done = _python(tmp_path, ["-c", probe, "spectral", "--config", str(config), "--out", "out"],
                       env={**self.NO_BLAS, "OPENBLAS_NUM_THREADS": "2"})
        assert done.returncode == 0, done.stderr
        unchanged, seen = map(json.loads, done.stdout.splitlines())
        assert unchanged is numpy_loaded and seen == expected

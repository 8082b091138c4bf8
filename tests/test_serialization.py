import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oplab import _blocks, _fork, serialization
from oplab.commands import format_scalar
from oplab.measures import BorelSet, DiscreteMeasure, Partition, to_scalar
from oplab.serialization import (
    ConfigError,
    borel_from_json,
    constraint_of,
    decode_config,
    field,
    labsystem_from_json,
    matrix_from_json,
    measure_from_json,
    partition_from_json,
    reconstruction_from_json,
    relations_from_json,
    vector_from_json,
)
from oplab.spectral import DensityState, HermitianObservable, LabSystem
from oplab.algebra import ReconstructionProblem

from conftest import assert_no_child_left


class TestScalars:
    """The exact strings of rational scalars: `oplab.commands.format_scalar`
    writes them and `to_scalar` reads them back."""

    @pytest.mark.parametrize("value,expected", [
        (F(3, 10), "0.3"),
        (F(1, 4), "0.25"),
        (F(5), "5"),
        (F(-7, 2), "-3.5"),
        (F(1, 3), "1/3"),
        (F(22, 7), "22/7"),
        (F(1, 1024), "0.0009765625"),
    ])
    def test_exact_formatting(self, value, expected):
        assert format_scalar(value) == expected
        assert to_scalar(expected, "rational") == value

    @given(st.fractions())
    def test_round_trip(self, q):
        assert to_scalar(format_scalar(q), "rational") == q

    def test_float_mode(self):
        assert to_scalar(0.25, "float") == 0.25
        assert to_scalar("0.25", "float") == 0.25


class TestMeasureJson:
    """Each payload is the one a measure is written as, and reads back as
    that measure."""

    def test_round_trip_rational(self):
        payload = {"atoms": [["-1.5", "0.25"], ["0", "1/3"], ["2", "5/12"]]}
        m = DiscreteMeasure([(F(-3, 2), F(1, 4)), (0, F(1, 3)), (2, F(5, 12))])
        assert measure_from_json(payload) == m

    def test_round_trip_float(self):
        m = DiscreteMeasure([(0.5, 0.25), (1.5, 0.75)], mode="float")
        assert measure_from_json({"atoms": [[0.5, 0.25], [1.5, 0.75]]}, mode="float") == m

    def test_strings_are_exact(self):
        m = measure_from_json({"atoms": [["1/3", "1/3"], ["1", "2/3"]]})
        assert m.atoms == ((F(1, 3), F(1, 3)), (1, F(2, 3)))


class TestBorelAndPartition:
    def test_borel_round_trip(self):
        s = BorelSet(intervals=[(0, 1), (2, math.inf)], singletons=[F(3, 2)])
        payload = {"intervals": [["0", "1"], ["2", "inf"]], "singletons": ["1.5"]}
        assert borel_from_json(payload) == s

    def test_unbounded_encoding(self):
        payload = {"intervals": [["-inf", "0"]]}
        assert borel_from_json(payload) == BorelSet.interval(-math.inf, 0)

    def test_partition_round_trip(self):
        part = Partition.dyadic(0, 1, 2)
        again = partition_from_json({
            "window": ["0", "1"],
            "cells": [{"intervals": [["0", "0.25"]]}, {"intervals": [["0.25", "0.5"]]},
                      {"intervals": [["0.5", "0.75"]]},
                      {"intervals": [["0.75", "1"]], "singletons": ["1"]}],
        })
        assert again.window == part.window
        assert again.cells == part.cells


class TestMatrices:
    def test_complex_round_trip(self):
        payload = [[[1.0, 2.0], [-0.0, -0.5]], [[0.25, 0.0], [3.0, -1.0]]]
        assert np.array_equal(matrix_from_json(payload), [[1 + 2j, -0.5j], [0.25, 3 - 1j]])

    def test_parts_are_kept_bit_for_bit(self):
        payload = [[[-0.0, 0.0], [1, -0.0]], [[0.1, -2.5e-300], [2 ** 60 + 1, 10 ** 30]]]
        reference = np.array([[complex(e[0], e[1]) for e in row] for row in payload])
        got = matrix_from_json(payload)
        assert got.dtype == np.complex128 and got.shape == (2, 2)
        assert got.view(np.float64).tobytes() == reference.view(np.float64).tobytes()
        vector = vector_from_json(payload[0])
        assert vector.view(np.float64).tobytes() == reference[0].view(np.float64).tobytes()

    @pytest.mark.parametrize("payload, message", [
        pytest.param([[[]]], "matrix[0][0] must have 2 entries",
                     id="payload0-matrix entry without parts"),
        pytest.param([[[1, 0], [1]]], "matrix[0][1] must have 2 entries",
                     id="payload1-matrix entry with one part"),
        pytest.param([[[1, 0]], [[1, 2, 3]]], "matrix[1][0] must have 2 entries",
                     id="payload2-matrix entry with three parts"),
        pytest.param([[[1, 0]], [["1", 0]]], "matrix[1][0][0]: not a finite number",
                     id="payload3-matrix part that is a string"),
        pytest.param([[[None, 0]]], "matrix[0][0][0]: not a finite number",
                     id="payload4-matrix part that is null"),
        ([[[1, 0]], [[1, 0], [2, 0]]], "row 1 has 2 entries, row 0 has 1"),
        ([[[1, 0]], []], "row 1 must be a non-empty list of [re, im] pairs"),
        pytest.param([], "matrix: must be a non-empty list of rows",
                     id="payload7-matrix without rows"),
        ({"re": 1}, "matrix must be a list"),
        pytest.param([[[10 ** 400, 0]]], "matrix[0][0][0]: not a finite number",
                     id="payload9-matrix part beyond a double"),
        pytest.param([[[1, 0]], [[0, math.nan]]], "matrix[1][0][1]: not a finite number",
                     id="payload10-matrix part that is NaN"),
        pytest.param([[[math.inf, 0]]], "matrix[0][0][0]: not a finite number",
                     id="payload11-matrix part that is infinite"),
        pytest.param([[[True, False]]], "matrix[0][0][0]: not a finite number",
                     id="matrix part that is a boolean"),
        pytest.param([[[1, 0]], [[0, False]]], "matrix[1][0][1]: not a finite number",
                     id="matrix imaginary part that is a boolean"),
    ])
    def test_matrix_entries_must_be_pairs_of_numbers(self, payload, message):
        with pytest.raises(ConfigError) as info:
            matrix_from_json(payload)
        # A row-level fault names the matrix, then the row: "matrix: row 1 ...".
        assert str(info.value).endswith(message)

    @pytest.mark.parametrize("payload", [[], [[1, 0], [2]], [[1, 0], "ab"], "ab",
                                         [[1, -math.inf]], [[True, 0]], [[1, 0], [0, False]]])
    def test_vector_entries_must_be_pairs_of_numbers(self, payload):
        with pytest.raises(ConfigError, match="vector"):
            vector_from_json(payload)

    def test_labsystem_round_trip(self):
        system = LabSystem(
            observables={"z": HermitianObservable(np.diag([1.0, -1.0]))},
            states={"mix": DensityState.maximally_mixed(2)},
            suitability=[("mix", "z")],
        )
        again = labsystem_from_json({
            "observables": {"z": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
            "states": {"mix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
            "suitability": [["mix", "z"]],
        })
        assert set(again.observables) == {"z"}
        assert again.suitability == system.suitability
        assert np.allclose(again.states["mix"].matrix, system.states["mix"].matrix)


# Tokens that json.dumps never writes, put in the text in place of these ints.
_TOKENS = {-7777: "-0", -8888: "1e400"}
_PART = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(sorted(_TOKENS)),
    st.sampled_from([2 ** 64 - 1, 2 ** 64 + 1, -(2 ** 70), 10 ** 400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
)
_PAIR = st.tuples(_PART, _PART).map(list)
_MATRIX = st.one_of(
    st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.lists(_PAIR, min_size=cols, max_size=cols), min_size=1, max_size=3)),
    st.lists(st.lists(_PAIR, max_size=3), max_size=3),  # ragged or empty rows
)
_STYLES = [{"separators": (",", ":")}, {}, {"indent": 1}, {"indent": "\t"}]
_EDIT = st.one_of(st.none(), st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                        st.integers(0, 10 ** 6),
                                        st.sampled_from('[]{},:" -+.eE0159tnfxa\n\u00a0\u0663')))


def _mutated(text: str, edit) -> str:
    if edit is None:
        return text
    how, at, char = edit
    at %= len(text) + 1
    if how == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + (char if how == "replace" else "") + text[at + 1:]


def _read(loads, text: str) -> list:
    """What ``loads`` and the matrix reader make of the members ``inputs.m``
    and ``m`` of ``text``: each matrix's bytes, or the error's type and
    message."""
    found = []
    for path in (("inputs", "m"), ("m",)):
        try:
            payload = loads(text)
            for depth, name in enumerate(path):
                payload = field(payload, name, ".".join(("config",) + path[:depth]))
            matrix = matrix_from_json(payload, ".".join(path))
            found.append((matrix.shape, matrix.tobytes()))
        except Exception as exc:
            found.append((type(exc), str(exc)))
    return found


def _config(text: str):
    """The value `decode_config` reads from ``text``, without its digest."""
    return decode_config(text)[0]


def _as_loaded(value):
    if isinstance(value, dict):
        return {key: _as_loaded(entry) for key, entry in value.items()}
    return serialization._plain(value)


class TestConfigDecoder:
    """`decode_config` reads blocks of [re, im] pairs straight into arrays;
    every value, error and message must be what ``json.loads`` and the list
    reader give."""

    @settings(max_examples=300, deadline=None)
    @given(first=_MATRIX, second=_MATRIX, style=st.sampled_from(_STYLES), edit=_EDIT,
           piece=st.sampled_from([1, 2, 7, 1 << 16]))
    def test_decoder_reads_what_json_loads_reads(self, first, second, style, edit, piece):
        config = {"kind": "spectral", "inputs": {"m": first, "n": [1, "x"]}, "m": second}
        text = json.dumps(config, **style)
        for value, token in _TOKENS.items():
            text = text.replace(str(value), token)
        text = _mutated(text, edit)
        with mock.patch.object(serialization, "_PIECE", piece):
            assert _read(_config, text) == _read(json.loads, text)
            try:
                expected = json.loads(text)
            except Exception as exc:
                with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
                    decode_config(text)
            else:
                assert repr(_as_loaded(_config(text))) == repr(expected)

    @settings(max_examples=300, deadline=None)
    @given(tail=st.text(alphabet='[]{}", 1.5', max_size=40))
    @example(tail='1.5, 2.5]]], "n": [[[1.5, 2.5]]]}')
    @example(tail='1.5, 2.5]]]}, "n": "}"}')
    @example(tail='1.5, 2.5]]] "n"')
    @example(tail='1.5, 2.5]]]')
    def test_a_block_ends_at_the_last_bracket_before_the_next_brace_or_quote(self, tail):
        text = "[[[" + tail
        stop = text.find("}")
        quote = text.find('"', 0, stop)
        end = text.rfind("]", 0, stop if quote < 0 else quote) + 1
        try:
            block = serialization._Block(text, 0, end) if stop >= 0 and end > 0 else None
        except ValueError:
            block = None
        found = serialization._block(text, 0)
        assert (found and (found[0].start, found[0].end, found[1])) == (
            block and (block.start, block.end, end))

    def test_large_block_is_read_bit_for_bit_across_pieces(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        matrix[0, 0], matrix[64, 3], matrix[127, 127] = complex(-0.0, 5e-324), 1e308, -0.0
        payload = [[[z.real, z.imag] for z in row] for row in matrix]
        for style in _STYLES:
            text = json.dumps({"inputs": {"observable": payload}}, **style)
            block = _config(text)["inputs"]["observable"]
            assert isinstance(block, serialization._Block)
            got = matrix_from_json(block)
            assert got.tobytes() == matrix_from_json(json.loads(text)["inputs"]["observable"]).tobytes()
            assert got[0, 0].real.hex() == "-0x0.0p+0" and got[64, 3] == 1e308

    @pytest.mark.parametrize("text", [
        '{"m": [[[1,2]3]]}', '{"m": [[[1.5,2.5]3]]}', '{"m": [[[1.0,2.0]e5]]}',
        '{"m": [[5[1,2]]]}', '{"m": [[[1.5, 2.5], 5[3.5, 4.5]]]}',
        '{"m": [[[1.5, 2.5],\n  5.5[3.5, 4.5]]]}',
    ])
    def test_numbers_that_touch_a_bracket_raise_json_error(self, text):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError, match="^" + re.escape(str(expected.value)) + "$"):
            decode_config(text)

    @pytest.mark.parametrize("text", [
        '{"m": [[[1.5,\u00a02.5]]]}', '{"m": [[[1.5, 2.5]\u00a0]]}', '{"m": [[[1.5, \u06632.5]]]}',
        '{"m": [[[1.5, 2.\u0663]]]}', '{"m": [[[1.5, 2.5], [\u0663, 0.5]]]}',
        '{"m\u00e9": [[[1.5, 2.5]]], "n": "\u0663\u00a0"}',
    ])
    def test_a_non_ascii_character_reads_as_json_reads_it(self, text):
        try:
            expected = json.loads(text)
        except Exception as exc:
            with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
                decode_config(text)
        else:
            assert repr(_as_loaded(_config(text))) == repr(expected)

    def test_an_integer_token_leaves_the_member_to_json(self):
        text = '{"m": [[[1.5, 2], [2.5, -0]]], "n": [[[1.5, 2.0], [2.5, 0.0]]]}'
        decoded = _config(text)
        assert decoded["m"] == json.loads(text)["m"]
        assert isinstance(decoded["n"], serialization._Block)
        assert matrix_from_json(decoded["m"]).tobytes() == matrix_from_json(decoded["n"]).tobytes()

    def test_a_compact_matrix_config_allocates_under_half_of_json_loads(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        text = json.dumps({"kind": "spectral", "inputs": {"observable": [
            [[z.real, z.imag] for z in row] for row in matrix]}}, separators=(",", ":"))

        def peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        decoded = peak(lambda: matrix_from_json(_config(text)["inputs"]["observable"]))
        loaded = peak(lambda: json.loads(text))
        assert decoded < loaded / 2, (decoded, loaded)


def _config_text(first, second, style, edit) -> str:
    config = {"kind": "spectral", "inputs": {"m": first, "n": [1, "x"]}, "m": second}
    text = json.dumps(config, **style)
    for value, token in _TOKENS.items():
        text = text.replace(str(value), token)
    return _mutated(text, edit)


def _decoded(text: str) -> tuple:
    """What `decode_config` and the matrix reader make of ``text``: the
    matrices' bytes and the decoded value's ``repr``, or the error.  The
    digest must be the text's SHA-256 whichever process took it."""
    try:
        value, digest = decode_config(text)
    except Exception as exc:
        whole = (type(exc), str(exc))
    else:
        assert digest == hashlib.sha256(text.encode()).digest()
        whole = repr(_as_loaded(value))
    return _read(_config, text), whole


def _blocks_payload(d: int, seed: int) -> dict:
    """Three d x d blocks of [re, im] pairs, ``a``, ``b`` and ``c``."""
    rng = np.random.default_rng(seed)
    return {name: [[[float(x), float(y)] for x, y in zip(*rng.standard_normal((2, d)))]
                   for _ in range(d)] for name in ("a", "b", "c")}


# Runs the CLI in argv[2:] with `oplab._fork` seeing argv[1] CPUs, and
# prints its exit code and the number of workers it forked.
_COUNTED_CLI = """
import os, sys
from oplab import _fork, cli
forks, real_fork = [], os.fork
def counting_fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counting_fork
_fork.available_cpus = lambda: int(sys.argv[1])
print(cli.main(sys.argv[2:]), len(forks))
"""


def _hashed_by_command(monkeypatch, parent, in_worker=None) -> list:
    """Patches `serialization.text_digest` to list the texts that the command
    process hashes; a worker's call returns ``in_worker`` instead, when given.
    Returns the list."""
    real = serialization.text_digest
    hashed = []

    def digest(text):
        if os.getpid() != parent:
            return real(text) if in_worker is None else in_worker
        hashed.append(text)
        return real(text)

    monkeypatch.setattr(serialization, "text_digest", digest)
    return hashed


class TestTwoProcessRead:
    """With two CPUs and enough text, `decode_config` reads the numbers of
    its blocks in this process and a forked worker; every value, error and
    failure path must give what the one-process read gives."""

    @settings(max_examples=150, deadline=None)
    @given(first=_MATRIX, second=_MATRIX, style=st.sampled_from(_STYLES), edit=_EDIT,
           piece=st.sampled_from([1, 2, 7, 1 << 16]))
    def test_two_processes_read_what_one_reads(self, first, second, style, edit, piece):
        text = _config_text(first, second, style, edit)
        with mock.patch.object(serialization, "_PIECE", piece), \
                mock.patch.object(_blocks, "FORK_MIN_CHARS", 0):
            with mock.patch.object(_fork, "available_cpus", lambda: 1):
                alone = _decoded(text)
            with mock.patch.object(_fork, "available_cpus", lambda: 2):
                assert _decoded(text) == alone
        assert_no_child_left()

    @pytest.fixture
    def two_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(_blocks, "FORK_MIN_CHARS", 0)
        cpus(2)
        monkeypatch.setattr(serialization, "_PIECE", 64)

    def test_a_failing_worker_is_replaced_by_the_command(self, two_cpus, monkeypatch, forks,
                                                          parent):
        text = json.dumps(_blocks_payload(8, 1))
        real = _blocks._take
        calls = []

        def fails_in_worker(text, pieces, order, doubles, flags):
            if os.getpid() != parent:  # takes the last piece, then fails
                flags[len(pieces) - 1] = _blocks._TAKEN
                raise RuntimeError("worker fails")
            calls.append(order)
            # The command's first call stops at the worker's piece; its second,
            # after the worker failed, reads that piece again without a wait.
            deadline = time.monotonic() + 30
            while len(calls) == 1 and not flags[len(pieces) - 1] and time.monotonic() < deadline:
                time.sleep(0.001)
            return real(text, pieces, order, doubles, flags)

        monkeypatch.setattr(_blocks, "_take", fails_in_worker)
        # Its digest is wrong, so the caller must not take it.
        hashed_here = _hashed_by_command(monkeypatch, parent, in_worker=bytes(32))
        decoded, digest = decode_config(text)
        assert len(forks) == 1
        for name, rows in json.loads(text).items():
            assert isinstance(decoded[name], serialization._Block)
            assert matrix_from_json(decoded[name]).tobytes() == matrix_from_json(rows).tobytes()
        # The worker left its digest and then failed: the command hashes.
        assert digest == hashlib.sha256(text.encode()).digest() and hashed_here == [text]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus_seen, worker_hashes", [(2, True), (1, False)])
    def test_the_worker_hashes_the_text_when_it_runs(self, two_cpus, cpus, monkeypatch, forks,
                                                    parent, cpus_seen, worker_hashes):
        """`decode_config` hands back the worker's digest; with no worker
        the command takes it, after the decode."""
        cpus(cpus_seen)
        text = json.dumps(_blocks_payload(8, 4))
        hashed_here = _hashed_by_command(monkeypatch, parent)
        decoded, digest = decode_config(text)
        assert len(forks) == worker_hashes
        assert digest == hashlib.sha256(text.encode()).digest()
        assert hashed_here == ([] if worker_hashes else [text])
        assert isinstance(decoded["a"], serialization._Block)
        assert_no_child_left()

    def test_a_failing_command_kills_and_reaps_the_worker(self, two_cpus, monkeypatch, forks,
                                                          parent):
        def fails_in_command(*args):
            if os.getpid() == parent:
                raise RuntimeError("command fails")
            time.sleep(60)

        statuses = []
        real_waitpid = os.waitpid

        def recording_waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(_blocks, "_take", fails_in_command)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        text = json.dumps(_blocks_payload(4, 2))
        with pytest.raises(RuntimeError, match="command fails"):
            _blocks.read(text, [serialization._Block(text, text.index("[["), text.index("]]]") + 3)],
                         64, lambda: bytes(32))
        assert len(forks) == 1
        # Killed, not left to sleep.
        assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
        assert_no_child_left()
        # Through the decoder, json then reads the whole config.
        assert _config(text) == json.loads(text)
        assert len(forks) == 2 and len(statuses) == 2
        assert_no_child_left()

    def test_an_integer_in_the_workers_first_piece_leaves_only_its_member_to_json(
            self, two_cpus, monkeypatch, forks, parent):
        payload = _blocks_payload(8, 3)
        payload["c"][-1][-1][1] = 7  # an integer token, in the last piece
        text = json.dumps(payload)
        flags = []
        real = _blocks._take

        def worker_first(text, pieces, order, doubles, flags_):
            if os.getpid() == parent:  # wait until the worker has read the last piece
                flags.append(flags_)
                deadline = time.monotonic() + 30
                while flags_[len(pieces) - 1] != _blocks._BAD and time.monotonic() < deadline:
                    time.sleep(0.001)
            return real(text, pieces, order, doubles, flags_)

        monkeypatch.setattr(_blocks, "_take", worker_first)
        expected = json.loads(text)
        decoded = _config(text)
        assert len(forks) == 1 and flags
        assert decoded["c"] == expected["c"]
        for name in ("a", "b"):
            assert isinstance(decoded[name], serialization._Block)
            assert decoded[name].lists() == expected[name]
        assert_no_child_left()

    def test_spectral_above_the_threshold_runs_clean_under_warnings_as_errors(self, tmp_path):
        rng = np.random.default_rng(11)
        d = 64
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        observable, rho = (m + m.conj().T) / 2, m @ m.conj().T
        rho /= np.trace(rho).real
        config = tmp_path / "spectral.json"
        config.write_text(json.dumps({"kind": "spectral", "inputs": {
            "observable": [[[z.real, z.imag] for z in row] for row in observable],
            "state": [[[z.real, z.imag] for z in row] for row in rho]}}), encoding="utf-8")
        assert len(config.read_text()) >= _blocks.FORK_MIN_CHARS
        env = {**os.environ, "PYTHONPATH": str(Path(_blocks.__file__).parents[1])}
        out = {}
        for cpus, forked in ((1, 0), (2, 1)):
            done = subprocess.run(
                [sys.executable, "-W", "error", "-c", _COUNTED_CLI, str(cpus), "spectral",
                 "--config", str(config), "--out", str(tmp_path / str(cpus))],
                capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0 and done.stderr == "", done.stderr
            assert done.stdout.split()[-2:] == ["0", str(forked)]
            out[cpus] = (tmp_path / str(cpus) / "spectral.csv").read_bytes()
        assert out[1] == out[2]


class TestRelationsAndProblems:
    def test_relations_parse(self):
        rel = relations_from_json({
            "powers": [["z", 2, "z2"]],
            "compatible": [["z", "z2"]],
            "scalings": [["z", 2, "2z"]],
        })
        assert rel.powers == (("z", 2, "z2"),)
        assert rel.all_compatible_pairs() == [("z", "z2")]

    def test_reconstruction_round_trip(self):
        problem = ReconstructionProblem(
            observables=[HermitianObservable(np.diag([1.0, -1.0]))],
            expectations=[0.4],
            frame=[np.array([1.0, 0.0])],
        )
        again = reconstruction_from_json({
            "observables": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
            "expectations": [0.4],
            "frame": [[[1.0, 0.0], [0.0, 0.0]]],
        })
        assert again.expectations == problem.expectations
        assert np.allclose(again.frame, problem.frame)
        assert np.allclose(again.observables[0].matrix, problem.observables[0].matrix)


class TestFieldPaths:
    """Readers name the field at fault by its path, starting from ``where``."""

    @pytest.mark.parametrize("read, payload, message", [
        (measure_from_json, {"atoms": {}}, "measure.atoms must be a list"),
        (borel_from_json, [], "set must be an object"),
        (lambda p: partition_from_json(p, "inputs.partition"),
         {"window": ["0", "1"], "cells": [{}, "x"]}, "inputs.partition.cells[1] must be an object"),
        (labsystem_from_json, {"observables": {}}, "missing field 'states' in system"),
        (relations_from_json, {"powers": {}}, "relations.powers must be a list"),
        (lambda p: constraint_of(p, "inputs.constraints[0]"), {"type": "joint", "events": [],
         "prob": 1}, "inputs.constraints[0].events must be an object"),
        (constraint_of, {"type": "marginal", "value": 1}, "missing field 'observable' in constraint"),
    ])
    def test_reader_names_the_field(self, read, payload, message):
        with pytest.raises(ConfigError) as info:
            read(payload)
        assert str(info.value) == message


_MISSING = object()


def _field_with_items(payload, name, where, kind=None, default=_MISSING, *, items=None):
    """`field` as it was when it took a kind and an ``items`` kind, kept here
    to pin the shapes that replaced them."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be an object")
    if name not in payload:
        if default is _MISSING:
            raise ConfigError(f"missing field {name!r} in {where}")
        return default
    value = payload[name]
    if kind is not None:
        value = serialization._as(value, kind)
        if value is None:
            raise ConfigError(f"{where}.{name} must be {serialization._KINDS[kind]}")
    if items is not None:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        read = [serialization._as(value[key], items) for key in keys]
        if None in read:
            key = keys[read.index(None)]
            at = f".{key}" if isinstance(value, dict) else f"[{key}]"
            raise ConfigError(f"{where}.{name}{at} must be {serialization._KINDS[items]}")
        value = dict(zip(keys, read)) if isinstance(value, dict) else read
    return value


# Each (kind, items) pair that a reader or a command passed, and its shape.
_SHAPES = [
    ((None, None), None), ((str, None), str), ((dict, None), dict), ((int, None), int),
    ((float, None), float), ((list, None), list), ((list, list), [list]),
    ((list, float), [float]), ((list, str), [str]), ((dict, list), {...: list}),
]
_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(), st.sampled_from(["1", " -2 ", "0.5", "1e3", "1e400", "nan", "inf", "1/2", "x",
                                  ""]),
    st.text(max_size=3))
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=2), inner, max_size=4)),
    max_leaves=12)


def _outcome(read):
    """What a call gives, comparable across calls: the repr of its value,
    which tells 1 from 1.0 and True and shows NaN, or its message."""
    try:
        return "value", repr(read())
    except ConfigError as exc:
        return "error", str(exc)


class TestFieldShapes:
    @settings(max_examples=300, deadline=None)
    @given(pair=st.sampled_from(_SHAPES), payload=st.one_of(
        st.dictionaries(st.sampled_from(["f", "g"]), _JSON, max_size=2), _JSON),
        default=st.sampled_from([_MISSING, None, []]))
    @example(pair=_SHAPES[7], payload={"f": [1, "2.5", True]}, default=_MISSING)
    @example(pair=_SHAPES[9], payload={"f": {"a": [], "b": "01"}}, default=_MISSING)
    def test_a_shape_reads_as_its_kind_and_items_did(self, pair, payload, default):
        (kind, items), shape = pair
        defaults = {} if default is _MISSING else {"default": default}
        assert _outcome(lambda: field(payload, "f", "inputs", shape, **defaults)) == _outcome(
            lambda: _field_with_items(payload, "f", "inputs", kind, **defaults, items=items))

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oplab
from oplab import trialcsv
from oplab.cli import main
from oplab.ensembles import CHUNK, MAX_TRIALS

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

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1

    def test_missing_field(self, tmp_path, capsys):
        config = write_config(tmp_path, {"kind": "simulate", "seed": 1, "inputs": {}})
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "truth" in capsys.readouterr().err

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
        assert err.startswith("error: ValueError: ") and "Traceback" not in err
        assert "matrix row 1 entry 0 is not a [re, im] pair" in err
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
        payload = json.loads(json.dumps(VALIDATE_OK))
        payload["inputs"]["algebraization"] = {
            "observables": {"z": [[[2, 0], [0, 0]], [[0, 0], [-2, 0]]], "z2": IDENTITY},
            "states": payload["inputs"]["system"]["states"],
        }
        config = write_config(tmp_path, payload)
        assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "validation.json").read_text())
        failed = [entry["name"] for entry in report["conditions"] if not entry["pass"]]
        assert "expectation-matching" in failed


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
        config = write_config(tmp_path, {
            "kind": "spectral",
            "inputs": {
                "observable": SIGMA_Z,
                "state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            },
        })
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
        base = {
            "kind": "tomography",
            "inputs": {
                "problem": {
                    "observables": [SIGMA_Z, IDENTITY],
                    "expectations": [0.4, 1.0],
                    "frame": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                },
            },
        }
        config = write_config(tmp_path, base, "tomo_ok.json")
        assert main(["tomography", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "weight_0" in (tmp_path / "tomography.csv").read_text()

        bad = json.loads(json.dumps(base))
        bad["inputs"]["problem"]["expectations"] = [1.5, 1.0]
        config2 = write_config(tmp_path, bad, "tomo_bad.json")
        assert main(["tomography", "--config", str(config2), "--out", str(tmp_path / "bad")]) == 2
        assert "NoRealizableFrame" in (tmp_path / "bad" / "tomography.csv").read_text()


class TestReport:
    def _dissipation_config(self, tmp_path):
        return write_config(tmp_path, {
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
        }, "diss.json")

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

    def test_missing_artifact_error(self, tmp_path):
        config = write_config(tmp_path, {
            "kind": "report", "inputs": {"artifacts": ["nope.csv"]},
        })
        assert main(["report", "--config", str(config), "--out", str(tmp_path)]) == 1


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

    @pytest.fixture
    def forks(self, monkeypatch):
        """pids of the workers forked from this process."""
        pids = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @pytest.fixture
    def parent(self, tmp_path):
        """Fails the test if a worker returns into it (the marker file)."""
        pid = os.getpid()
        yield pid
        if os.getpid() != pid:
            (tmp_path / "worker_returned").touch()
            os._exit(0)
        assert not (tmp_path / "worker_returned").exists()

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("p", ["0", "3/10", "1"])
    @pytest.mark.parametrize("trials", [1, trialcsv.FORK_MIN_TRIALS - 1, trialcsv.FORK_MIN_TRIALS,
                                        CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 200_000])
    def test_two_processes_equal_serial(self, tmp_path, monkeypatch, forks, parent, trials, p):
        monkeypatch.setattr(trialcsv, "available_cpus", lambda: 1)
        serial = _simulate(tmp_path, trials, p, "serial")
        assert forks == []
        monkeypatch.setattr(trialcsv, "available_cpus", lambda: 2)
        forked = _simulate(tmp_path, trials, p, "forked")
        assert len(forks) == (1 if trials >= trialcsv.FORK_MIN_TRIALS else 0)
        assert forked == serial
        assert serial.count(b"\n") == 1 + trials + 3  # header, rows, footer
        self._assert_no_child_left()

    def test_failing_worker_is_replaced_by_the_parent(self, tmp_path, monkeypatch, forks, parent):
        monkeypatch.setattr(trialcsv, "available_cpus", lambda: 1)
        serial = _simulate(tmp_path, CHUNK + 1, name="serial")
        real = trialcsv.format_rows

        def fails_in_worker(log, start=0, stop=None):
            if os.getpid() != parent:
                raise RuntimeError("worker fails")
            return real(log, start, stop)

        monkeypatch.setattr(trialcsv, "format_rows", fails_in_worker)
        monkeypatch.setattr(trialcsv, "available_cpus", lambda: 2)
        assert _simulate(tmp_path, CHUNK + 1, name="forked") == serial
        assert len(forks) == 1
        self._assert_no_child_left()

    def test_parent_failure_kills_and_reaps_the_worker(self, tmp_path, monkeypatch, forks,
                                                       parent):
        real = trialcsv.format_rows

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

        monkeypatch.setattr(trialcsv, "format_rows", fails_in_parent)
        monkeypatch.setattr(trialcsv, "available_cpus", lambda: 2)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        with pytest.raises(RuntimeError, match="parent fails"):
            _simulate(tmp_path, 4 * CHUNK)
        assert len(forks) == 1
        # Killed, not left to format its 2·CHUNK rows.
        assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
        self._assert_no_child_left()

    def _run(self, tmp_path, args, stdin):
        """Run ``python ARGS`` in a fresh interpreter that imports this oplab."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, input=stdin,
                              capture_output=True, text=True, timeout=120)

    def test_failing_worker_never_returns_into_the_caller(self, tmp_path):
        config = _simulate_config(tmp_path, CHUNK + 1)
        done = self._run(tmp_path, ["-", "simulate", "--config", str(config)], (
            "import os, sys\n"
            "from oplab import cli, trialcsv\n"
            "parent = os.getpid()\n"
            "real = trialcsv.format_rows\n"
            "def fails_in_worker(log, start=0, stop=None):\n"
            "    if os.getpid() != parent:\n"
            "        raise RuntimeError('worker fails')\n"
            "    return real(log, start, stop)\n"
            "trialcsv.format_rows = fails_in_worker\n"
            "trialcsv.available_cpus = lambda: 2\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('returned in', 'parent' if os.getpid() == parent else 'worker', code)\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.splitlines() == ["simulate.csv", "returned in parent 0"]

    def test_only_simulate_imports_the_writer(self, tmp_path):
        code = "import sys, oplab.cli; print('oplab.trialcsv' in sys.modules)"
        done = self._run(tmp_path, ["-c", code], None)
        assert done.stdout == "False\n", done.stderr

    def test_runs_clean_under_warnings_as_errors(self, tmp_path):
        config = _simulate_config(tmp_path, CHUNK + 1)
        done = self._run(tmp_path, ["-W", "error", "-m", "oplab.cli", "simulate",
                                    "--config", str(config), "--out", "cli"], None)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert (tmp_path / "cli" / "simulate.csv").read_bytes() == _simulate(
            tmp_path, CHUNK + 1, name="in_process")

    def test_worker_memory_does_not_grow_with_trials(self, tmp_path, monkeypatch, forks, parent):
        """The worker streams its rows: its peak RSS over its own run, read
        inside it, is about the same at 8·CHUNK trials as at 2·CHUNK."""
        resource = pytest.importorskip("resource")
        real = trialcsv.format_rows

        def measured_in_worker(log, start=0, stop=None):
            if os.getpid() == parent:
                return real(log, start, stop)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            yield from real(log, start, stop)
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            (tmp_path / f"grown_{log.n}").write_text(str(grown))

        monkeypatch.setattr(trialcsv, "format_rows", measured_in_worker)
        monkeypatch.setattr(trialcsv, "available_cpus", lambda: 2)
        grown = {}
        for trials in (2 * CHUNK, 8 * CHUNK):
            _simulate(tmp_path, trials, name=f"n{trials}")
            grown[trials] = int((tmp_path / f"grown_{trials}").read_text())
        assert len(forks) == 2
        # ru_maxrss is in KiB on Linux, bytes on macOS; either way, holding the
        # worker's 4·CHUNK rows at once would add well over 8 MB.
        unit = 1 if sys.platform == "darwin" else 1024
        assert (grown[8 * CHUNK] - grown[2 * CHUNK]) * unit < 8 * 2 ** 20, grown
        self._assert_no_child_left()

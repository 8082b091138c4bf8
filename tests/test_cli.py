import json
import math

import pytest

from oplab.cli import main
from oplab.ensembles import MAX_TRIALS

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

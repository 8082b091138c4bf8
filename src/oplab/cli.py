"""Batch experiment harness: JSON configs in, deterministic CSV tables out.

Exit codes: 0 success, 2 validation failure (reports still written),
1 error (malformed config, missing artifact, bad dimensions).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algebra import (
    Algebraization,
    arba_validate,
    center_check,
    embedding_check,
    reports_to_records,
    tomography_reconstruct,
)
from .dynamics import EvolutionTrace, decompose_evolution
from .ensembles import estimate_probability, min_trials, run_ensemble
from .errors import CapacityError, NoRealizableFrame, OplabError, SingularFrame
from .information import shannon_entropy, vn_entropy_and_purity
from .kolmogorov import (
    ConditionalConstraint,
    CorrelationConstraint,
    ExpectationConstraint,
    JointConstraint,
    MarginalConstraint,
    kolmogorov_check,
)
from .measures import FLOAT, RATIONAL
from .serialization import (
    borel_from_json,
    format_scalar,
    labsystem_from_json,
    matrix_from_json,
    measure_from_json,
    partition_from_json,
    reconstruction_from_json,
    relations_from_json,
)
from .spectral import DensityState, HermitianObservable, spectral_measure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2

KINDS = (
    "simulate", "estimate", "entropy", "dissipation", "tomography",
    "kolmogorov", "spectral", "validate", "report",
)
SEEDED_KINDS = {"simulate", "estimate"}


class ConfigError(Exception):
    pass


def _fmt(value, mode: str) -> str:
    if isinstance(value, Fraction):
        return format_scalar(value, RATIONAL)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows, footer: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        _write_footer(fh, footer)


def _write_footer(fh, footer: dict) -> None:
    for key in sorted(footer):
        fh.write(f"# {key}={footer[key]}\n")


def _load_config(path: Path) -> tuple:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    digest = hashlib.sha256(raw).hexdigest()
    return config, digest


def _field(config, name, where="config"):
    if name not in config:
        raise ConfigError(f"missing field {name!r} in {where}")
    return config[name]


def _object(config, name, where):
    """The field ``name`` of ``config``, which must be a JSON object."""
    value = _field(config, name, where)
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{name} must be an object")
    return value


def _resolve_seed(args, config) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("OPLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"OPLAB_SEED is not an integer: {env!r}") from exc
    if "seed" in config and config["seed"] is not None:
        return int(config["seed"])
    raise ConfigError("no seed: give --seed, set OPLAB_SEED, or add a seed field")


def _resolve_mode(args, config) -> str:
    mode = args.mode or config.get("mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise ConfigError(f"unknown mode {mode!r}")
    return mode


def _ensemble(inputs, truth, target, seed: int):
    trials = int(_field(inputs, "trials", "inputs"))
    try:
        return run_ensemble(truth, target, trials, seed)
    except CapacityError as exc:
        raise ConfigError(f"inputs.trials: {exc}") from exc


def _out_path(args, config, default_name: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / config.get("output", default_name)


# ---------------------------------------------------------------------------
# Subcommand bodies; each returns (exit_code, paths_written)
# ---------------------------------------------------------------------------


def _cmd_simulate(args, config, footer):
    inputs = _field(config, "inputs")
    mode = _resolve_mode(args, config)
    seed = _resolve_seed(args, config)
    footer["seed"] = seed
    truth = measure_from_json(_field(inputs, "truth", "inputs"), mode)
    target = borel_from_json(_field(inputs, "target", "inputs"))
    log = _ensemble(inputs, truth, target, seed)
    path = _out_path(args, config, "simulate.csv")
    # Imported here, so that no other kind compiles the two-process writer.
    from .trialcsv import write_rows
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,X_i,xi_i,f_i,w_i\n")
        write_rows(fh, log)
        _write_footer(fh, footer)
    return EXIT_OK, [path]


def _cmd_estimate(args, config, footer):
    inputs = _field(config, "inputs")
    mode = _resolve_mode(args, config)
    seed = _resolve_seed(args, config)
    footer["seed"] = seed
    truth = measure_from_json(_field(inputs, "truth", "inputs"), mode)
    target = borel_from_json(_field(inputs, "target", "inputs"))
    alpha = float(inputs.get("alpha", 0.01))
    trace = _ensemble(inputs, truth, target, seed).trace()
    report = estimate_probability(trace)
    stabilization = min_trials(trace, alpha)
    rows = [
        ["p_hat", repr(report.p_hat)],
        ["horizon", report.horizon],
        ["cesaro_mean", repr(report.cesaro_diagnostics.cesaro_mean)],
        ["cesaro_verdict", report.cesaro_diagnostics.verdict],
        ["count_monotone", report.count_monotone],
    ]
    for alpha_level, density in report.cesaro_diagnostics.exceedance_densities:
        rows.append([f"exceedance_density_alpha={alpha_level:g}", repr(density)])
    for name, gap in report.weak_star_gaps:
        rows.append([f"weak_star_gap_{name}", repr(gap)])
    rows.append(["stabilization_alpha", repr(alpha)])
    rows.append(["first_stable_index", stabilization.first_candidate])
    rows.append(["first_success_index", stabilization.first_success_index])
    rows.append(["lower_bound_at_horizon", repr(stabilization.lower_bound_at_horizon)])
    rows.append(["lower_bound_holds", stabilization.bound_holds])
    path = _out_path(args, config, "estimate.csv")
    _write_csv(path, ["metric", "value"], rows, footer)
    return EXIT_OK, [path]


def _cmd_entropy(args, config, footer):
    inputs = _field(config, "inputs")
    mode = _resolve_mode(args, config)
    measure = measure_from_json(_field(inputs, "measure", "inputs"), mode)
    partition = partition_from_json(_field(inputs, "partition", "inputs"))
    report = shannon_entropy(measure, partition)
    footer["H_bits"] = repr(report.bits)
    path = _out_path(args, config, "entropy.csv")
    _write_csv(
        path,
        ["cell_index", "cell", "probability", "contribution_bits"],
        ([k, desc, _fmt(p, mode), repr(c)] for k, desc, p, c in report.rows()),
        footer,
    )
    return EXIT_OK, [path]


def _cmd_dissipation(args, config, footer):
    inputs = _field(config, "inputs")
    mode = _resolve_mode(args, config)
    times = _field(inputs, "times", "inputs")
    measures = [measure_from_json(m, mode) for m in _field(inputs, "measures", "inputs")]
    partition = partition_from_json(_field(inputs, "partition", "inputs"))
    trace = EvolutionTrace(times, measures)
    report = decompose_evolution(trace)
    path = _out_path(args, config, "dissipation.csv")
    _write_csv(
        path,
        ["t", "coefficient", "entropy_bits", "escaped_mass"],
        ([repr(t), _fmt(chi, mode), repr(bits), _fmt(esc, mode)]
         for t, chi, bits, esc in report.rows(partition)),
        footer,
    )
    return EXIT_OK, [path]


def _cmd_tomography(args, config, footer):
    inputs = _field(config, "inputs")
    problem = reconstruction_from_json(_field(inputs, "problem", "inputs"))
    path = _out_path(args, config, "tomography.csv")
    try:
        result = tomography_reconstruct(problem)
    except (NoRealizableFrame, SingularFrame) as exc:
        footer["failure"] = type(exc).__name__
        _write_csv(path, ["metric", "value"],
                   [["status", type(exc).__name__], ["detail", str(exc)]], footer)
        return EXIT_VALIDATION, [path]
    entropy, purity = vn_entropy_and_purity(result.state)
    rows = [["status", "reconstructed"],
            ["purity", repr(purity)],
            ["entropy_nats", repr(entropy)]]
    for k, w in enumerate(result.weights):
        rows.append([f"weight_{k}", format_scalar(w, RATIONAL)])
    for k, r in enumerate(result.residuals):
        rows.append([f"residual_{k}", repr(r)])
    _write_csv(path, ["metric", "value"], rows, footer)
    return EXIT_OK, [path]


def _constraint_from_json(payload: dict):
    kind = _field(payload, "type", "constraint")
    if kind == "marginal":
        return MarginalConstraint(payload["observable"], payload["value"], payload["prob"])
    if kind == "joint":
        return JointConstraint.of(payload["events"], payload["prob"])
    if kind == "conditional":
        return ConditionalConstraint.of(payload["event"], payload["given"], payload["prob"])
    if kind == "correlation":
        observables = tuple(payload["observables"])
        if len(observables) != 2:
            raise ConfigError(f"correlation constraint field 'observables' needs 2 names, "
                              f"got {len(observables)}")
        return CorrelationConstraint(observables, payload["value"])
    if kind == "expectation":
        return ExpectationConstraint(payload["observable"], payload["value"])
    raise ConfigError(f"unknown constraint type {kind!r}")


def _cmd_kolmogorov(args, config, footer):
    inputs = _field(config, "inputs")
    spaces = _object(inputs, "outcomes", "inputs")
    constraints = [_constraint_from_json(c) for c in _field(inputs, "constraints", "inputs")]
    result = kolmogorov_check(spaces, constraints)
    path = _out_path(args, config, "kolmogorov.csv")
    if result.feasible:
        header = list(result.observables) + ["probability"]
        rows = [
            [format_scalar(v, RATIONAL) for v in cell] + [format_scalar(p, RATIONAL)]
            for cell, p in sorted(result.joint.items())
        ]
        footer["verdict"] = "feasible"
        _write_csv(path, header, rows, footer)
        return EXIT_OK, [path]
    footer["verdict"] = "infeasible"
    footer["deficit"] = format_scalar(result.deficit, RATIONAL)
    rows = [[k, repr(c)] for k, c in enumerate(result.certificate)]
    _write_csv(path, ["certificate_index", "constraint"], rows, footer)
    return EXIT_VALIDATION, [path]


def _cmd_spectral(args, config, footer):
    inputs = _field(config, "inputs")
    observable = HermitianObservable(matrix_from_json(_field(inputs, "observable", "inputs")))
    state = DensityState(matrix_from_json(_field(inputs, "state", "inputs")))
    measure = spectral_measure(observable, state)
    rows = [["atom", repr(p), repr(w)] for p, w in measure.atoms]
    rows.append(["mean", "", repr(float(measure.mean()))])
    rows.append(["variance", "", repr(float(measure.variance()))])
    for point in observable.spectrum:
        rows.append(["spectrum_point", repr(point), observable.multiplicity(point)])
    rows.append(["spectral_radius", "", repr(observable.spectral_radius)])
    path = _out_path(args, config, "spectral.csv")
    _write_csv(path, ["row", "x", "value"], rows, footer)
    return EXIT_OK, [path]


def _cmd_validate(args, config, footer):
    inputs = _field(config, "inputs")
    payload = _object(inputs, "system", "inputs")
    _object(payload, "observables", "inputs.system")
    _object(payload, "states", "inputs.system")
    system = labsystem_from_json(payload)
    if "algebraization" in inputs:
        payload = _object(inputs, "algebraization", "inputs")
        observables = {label: HermitianObservable(matrix_from_json(m)) for label, m in
                       _object(payload, "observables", "inputs.algebraization").items()}
        states = {label: DensityState(matrix_from_json(m)) for label, m in
                  _object(payload, "states", "inputs.algebraization").items()}
        alg = Algebraization(system, observables, states)
    else:
        alg = Algebraization.identity(system)
    relations = relations_from_json(inputs.get("relations", {}))
    reports = list(arba_validate(alg, relations))
    if "center" in inputs:
        reports.extend(center_check(alg, inputs["center"], relations))
    if "embedding_families" in inputs:
        reports.extend(embedding_check(alg, inputs["embedding_families"]))
    records = reports_to_records(reports)
    json_path = _out_path(args, config, "validation.json")
    json_path.write_text(
        json.dumps({"conditions": records}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    csv_path = json_path.with_suffix(".csv")
    _write_csv(
        csv_path,
        ["name", "pass", "witness", "residual"],
        ([r["name"], r["pass"], r["witness"], repr(float(r["residual"]))] for r in records),
        footer,
    )
    all_pass = all(r["pass"] for r in records)
    return (EXIT_OK if all_pass else EXIT_VALIDATION), [json_path, csv_path]


def _read_artifact(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise ConfigError(f"artifact {path} is empty")
    return rows[0], rows[1:]


def _cmd_report(args, config, footer):
    inputs = _field(config, "inputs")
    artifacts = _field(inputs, "artifacts", "inputs")
    if not artifacts:
        raise ConfigError("no artifacts to report on")
    loaded = []
    for name in artifacts:
        path = Path(name)
        if not path.is_absolute():
            path = Path(args.config).parent / path
        if not path.exists():
            raise ConfigError(f"missing artifact {path}")
        header, rows = _read_artifact(path)
        loaded.append((path.name, header, rows))
    out = _out_path(args, config, "report.csv")
    joinable = [entry for entry in loaded if entry[1] and entry[1][0] == "t"]
    if len(joinable) >= 2:
        # Inner join on the time column, no recomputation.
        base_name, base_header, base_rows = joinable[0]
        header = ["t"] + [f"{base_name}:{c}" for c in base_header[1:]]
        table = {row[0]: list(row[1:]) for row in base_rows}
        for name, art_header, art_rows in joinable[1:]:
            header += [f"{name}:{c}" for c in art_header[1:]]
            incoming = {row[0]: list(row[1:]) for row in art_rows}
            table = {
                t: vals + incoming[t] for t, vals in table.items() if t in incoming
            }
        rows = [[t] + vals for t, vals in sorted(table.items(), key=lambda kv: float(kv[0]))]
        _write_csv(out, header, rows, footer)
        return EXIT_OK, [out]
    rows = [[name, len(rows_), ";".join(header)] for name, header, rows_ in loaded]
    _write_csv(out, ["artifact", "rows", "columns"], rows, footer)
    return EXIT_OK, [out]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "entropy": _cmd_entropy,
    "dissipation": _cmd_dissipation,
    "tomography": _cmd_tomography,
    "kolmogorov": _cmd_kolmogorov,
    "spectral": _cmd_spectral,
    "validate": _cmd_validate,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplab",
        description="Measurement-statistics experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--mode", choices=(RATIONAL, FLOAT), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, digest = _load_config(Path(args.config))
        kind = config.get("kind", args.command)
        if kind != args.command:
            raise ConfigError(f"config kind {kind!r} does not match command {args.command!r}")
        footer = {"config_hash": f"sha256:{digest}", "version": f"oplab-{__version__}"}
        code, paths = _COMMANDS[args.command](args, config, footer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OplabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in paths:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())

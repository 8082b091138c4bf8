"""Batch experiment harness: JSON configs in, deterministic CSV tables out.

Exit codes: 0 success, 2 validation failure (reports still written),
1 error (usage error, malformed config, missing artifact, bad dimensions).
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

from . import __version__, algebra, dynamics, ensembles, information, kolmogorov, spectral
from .errors import NoRealizableFrame, OplabError, SingularFrame
from .measures import FLOAT, RATIONAL
from .serialization import (
    ConfigError,
    constraint_of,
    ensemble_of,
    evolution_of,
    field,
    format_scalar,
    measure_from_json,
    operator_of,
    outcomes_of,
    partition_from_json,
    reconstruction_from_json,
    validation_of,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_scalar(value, RATIONAL)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _create(path: Path):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise ConfigError(f"cannot write {path}: {_reason(exc)}") from exc


def _reason(exc: Exception):
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else exc


def _write_csv(path: Path, header, rows, footer: dict) -> None:
    # Every row is computed before the file is opened, so a row that fails
    # leaves no truncated table behind.
    rows = list(rows)
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    digest = hashlib.sha256(raw).hexdigest()
    return config, digest


def _resolve_seed(args, config) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("OPLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"OPLAB_SEED is not an integer: {env!r}") from exc
    seed = field(config, "seed", "config", int, None)
    if seed is None:
        raise ConfigError("no seed: give --seed, set OPLAB_SEED, or add a seed field")
    return seed


def _resolve_mode(args, config) -> str:
    mode = args.mode or field(config, "mode", "config", str, RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise ConfigError(f"config.mode: unknown mode {mode!r}")
    return mode


def _trial_log(args, config, inputs, footer):
    """The seeded ensemble that ``simulate`` and ``estimate`` report on."""
    mode = _resolve_mode(args, config)
    footer["seed"] = seed = _resolve_seed(args, config)
    truth, target, trials = ensemble_of(inputs, mode)
    return ensembles.run_ensemble(truth, target, trials, seed)


def _out_path(args, config, default_name: str) -> Path:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {_reason(exc)}") from exc
    return out_dir / field(config, "output", "config", str, default_name)


def _table(args, config, default_name: str, header, rows, footer, code=EXIT_OK):
    """Write one CSV table; the command's (exit code, paths written)."""
    path = _out_path(args, config, default_name)
    _write_csv(path, header, rows, footer)
    return code, [path]


# ---------------------------------------------------------------------------
# Subcommand bodies; each returns (exit_code, paths_written)
# ---------------------------------------------------------------------------


def _cmd_simulate(args, config, inputs, footer):
    log = _trial_log(args, config, inputs, footer)
    path = _out_path(args, config, "simulate.csv")
    # Imported here, so that no other kind compiles the two-process writer.
    from .trialcsv import write_rows
    with _create(path) as fh:
        fh.write("i,X_i,xi_i,f_i,w_i\n")
        write_rows(fh, log)
        _write_footer(fh, footer)
    return EXIT_OK, [path]


def _cmd_estimate(args, config, inputs, footer):
    alpha = field(inputs, "alpha", "inputs", float, 0.01)
    if not alpha > 0:
        raise ConfigError("inputs.alpha must be above 0")
    trace = _trial_log(args, config, inputs, footer).trace()
    report = ensembles.estimate_probability(trace)
    stabilization = ensembles.min_trials(trace, alpha)
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
    return _table(args, config, "estimate.csv", ["metric", "value"], rows, footer)


def _cmd_entropy(args, config, inputs, footer):
    mode = _resolve_mode(args, config)
    measure = measure_from_json(field(inputs, "measure", "inputs"), mode, "inputs.measure")
    partition = partition_from_json(field(inputs, "partition", "inputs"), "inputs.partition")
    report = information.shannon_entropy(measure, partition)
    footer["H_bits"] = repr(report.bits)
    return _table(
        args, config, "entropy.csv",
        ["cell_index", "cell", "probability", "contribution_bits"],
        ([k, desc, _fmt(p), repr(c)] for k, desc, p, c in report.rows()),
        footer,
    )


def _cmd_dissipation(args, config, inputs, footer):
    mode = _resolve_mode(args, config)
    trace = evolution_of(inputs, mode)
    partition = partition_from_json(field(inputs, "partition", "inputs"), "inputs.partition")
    report = dynamics.decompose_evolution(trace)
    return _table(
        args, config, "dissipation.csv",
        ["t", "coefficient", "entropy_bits", "escaped_mass"],
        ([repr(t), _fmt(chi), repr(bits), _fmt(esc)]
         for t, chi, bits, esc in report.rows(partition)),
        footer,
    )


def _cmd_tomography(args, config, inputs, footer):
    problem = reconstruction_from_json(field(inputs, "problem", "inputs"), "inputs.problem")
    try:
        result = algebra.tomography_reconstruct(problem)
    except (NoRealizableFrame, SingularFrame) as exc:
        footer["failure"] = type(exc).__name__
        return _table(args, config, "tomography.csv", ["metric", "value"],
                      [["status", type(exc).__name__], ["detail", str(exc)]], footer,
                      EXIT_VALIDATION)
    entropy, purity = information.vn_entropy_and_purity(result.state)
    rows = [["status", "reconstructed"],
            ["purity", repr(purity)],
            ["entropy_nats", repr(entropy)]]
    for k, w in enumerate(result.weights):
        rows.append([f"weight_{k}", format_scalar(w, RATIONAL)])
    for k, r in enumerate(result.residuals):
        rows.append([f"residual_{k}", repr(r)])
    return _table(args, config, "tomography.csv", ["metric", "value"], rows, footer)


def _cmd_kolmogorov(args, config, inputs, footer):
    spaces = outcomes_of(inputs)
    constraints = [constraint_of(c, f"inputs.constraints[{k}]", spaces)
                   for k, c in enumerate(field(inputs, "constraints", "inputs", list))]
    result = kolmogorov.kolmogorov_check(spaces, constraints)
    if result.feasible:
        header = list(result.observables) + ["probability"]
        rows = [
            [format_scalar(v, RATIONAL) for v in cell] + [format_scalar(p, RATIONAL)]
            for cell, p in sorted(result.joint.items())
        ]
        footer["verdict"] = "feasible"
        return _table(args, config, "kolmogorov.csv", header, rows, footer)
    footer["verdict"] = "infeasible"
    footer["deficit"] = format_scalar(result.deficit, RATIONAL)
    rows = [[k, repr(c)] for k, c in enumerate(result.certificate)]
    return _table(args, config, "kolmogorov.csv", ["certificate_index", "constraint"], rows,
                  footer, EXIT_VALIDATION)


def _cmd_spectral(args, config, inputs, footer):
    observable = operator_of(spectral.HermitianObservable, field(inputs, "observable", "inputs"),
                             "inputs.observable")
    state = operator_of(spectral.DensityState, field(inputs, "state", "inputs"), "inputs.state")
    measure = spectral.spectral_measure(observable, state)
    rows = [["atom", repr(p), repr(w)] for p, w in measure.atoms]
    rows.append(["mean", "", repr(float(measure.mean()))])
    rows.append(["variance", "", repr(float(measure.variance()))])
    for point in observable.spectrum:
        rows.append(["spectrum_point", repr(point), observable.multiplicity(point)])
    rows.append(["spectral_radius", "", repr(observable.spectral_radius)])
    return _table(args, config, "spectral.csv", ["row", "x", "value"], rows, footer)


def _cmd_validate(args, config, inputs, footer):
    alg, relations, center, families = validation_of(inputs)
    reports = list(algebra.arba_validate(alg, relations))
    if center is not None:
        reports.extend(algebra.center_check(alg, center, relations))
    if families is not None:
        reports.extend(algebra.embedding_check(alg, families))
    records = algebra.reports_to_records(reports)
    json_path = _out_path(args, config, "validation.json")
    csv_path = json_path.with_suffix(".csv")
    if csv_path == json_path:
        raise ConfigError(f"config.output: the CSV beside {json_path.name!r} would overwrite it")
    with _create(json_path) as fh:
        fh.write(json.dumps({"conditions": records}, indent=2, sort_keys=True) + "\n")
    _write_csv(
        csv_path,
        ["name", "pass", "witness", "residual"],
        ([r["name"], r["pass"], r["witness"], repr(float(r["residual"]))] for r in records),
        footer,
    )
    all_pass = all(r["pass"] for r in records)
    return (EXIT_OK if all_pass else EXIT_VALIDATION), [json_path, csv_path]


def _read_artifact(path: Path, where: str):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader([line for line in fh if not line.startswith("#")]))
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8, a NUL in the name
        raise ConfigError(f"{where}: cannot read artifact {path}: {_reason(exc)}") from exc
    if not rows:
        raise ConfigError(f"{where}: artifact {path} is empty")
    return rows[0], rows[1:]


def _cmd_report(args, config, inputs, footer):
    artifacts = field(inputs, "artifacts", "inputs", list, items=str)
    if not artifacts:
        raise ConfigError("inputs.artifacts must be a non-empty list")
    loaded = []
    for k, name in enumerate(artifacts):
        # An absolute name replaces the config's directory.
        path = Path(args.config).parent / name
        header, rows = _read_artifact(path, f"inputs.artifacts[{k}]")
        loaded.append((path.name, header, rows))
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
        try:
            rows = [[t] + vals for t, vals in sorted(table.items(), key=lambda kv: float(kv[0]))]
        except ValueError as exc:
            raise ConfigError(f"inputs.artifacts: t column: {exc}") from exc
        return _table(args, config, "report.csv", header, rows, footer)
    rows = [[name, len(rows_), ";".join(header)] for name, header, rows_ in loaded]
    return _table(args, config, "report.csv", ["artifact", "rows", "columns"], rows, footer)


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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (``EXIT_ERROR``), not
    argparse's 2, which this command keeps for validation failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oplab",
        description="Measurement-statistics experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _COMMANDS:
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
        kind = field(config, "kind", "config", str, args.command)
        if kind != args.command:
            raise ConfigError(f"config.kind {kind!r} does not match command {args.command!r}")
        footer = {"config_hash": f"sha256:{digest}", "version": f"oplab-{__version__}"}
        inputs = field(config, "inputs", "config", dict)
        code, paths = _COMMANDS[args.command](args, config, inputs, footer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OplabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in paths:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())

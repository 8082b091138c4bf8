"""``oplab validate``: the representation contract of an algebraization,
condition by condition, as a JSON report and a CSV table beside it."""

from __future__ import annotations

import json

from .. import algebra
from ..serialization import ConfigError, validation_of
from . import EXIT_OK, EXIT_VALIDATION, _create, _out_path, _write_csv


def run(args, config, inputs, footer):
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
        ([r["name"], r["pass"], r["witness"], r["residual"]] for r in records),
        footer,
    )
    all_pass = all(r["pass"] for r in records)
    return (EXIT_OK if all_pass else EXIT_VALIDATION), [json_path, csv_path]

"""``oplab report``: earlier tables joined on their time column, or else
listed with their row counts and columns."""

from __future__ import annotations

import csv
from pathlib import Path

from ..serialization import ConfigError, field
from . import _reason, _table


def _read_artifact(path: Path, where: str):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader([line for line in fh if not line.startswith("#")]))
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8, a NUL in the name
        raise ConfigError(f"{where}: cannot read artifact {path}: {_reason(exc)}") from exc
    if not rows:
        raise ConfigError(f"{where}: artifact {path} is empty")
    return rows[0], rows[1:]


def run(args, config, inputs, footer):
    artifacts = field(inputs, "artifacts", "inputs", [str, ...])
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

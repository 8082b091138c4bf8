"""``oplab entropy``: the Shannon entropy of a measure over a partition,
cell by cell."""

from __future__ import annotations

from .. import information
from ..serialization import field, measure_from_json, partition_from_json
from . import _resolve_mode, _table


def run(args, config, inputs, footer):
    mode = _resolve_mode(args, config)
    measure = measure_from_json(field(inputs, "measure", "inputs"), mode, "inputs.measure")
    partition = partition_from_json(field(inputs, "partition", "inputs"), "inputs.partition")
    report = information.shannon_entropy(measure, partition)
    footer["H_bits"] = report.bits
    return _table(
        args, config, "entropy.csv",
        ["cell_index", "cell", "probability", "contribution_bits"],
        report.rows(), footer,
    )

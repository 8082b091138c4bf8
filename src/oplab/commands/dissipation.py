"""``oplab dissipation``: the dissipation coefficient, entropy and escaped
mass of an evolution at each time."""

from __future__ import annotations

from .. import dynamics
from ..serialization import evolution_of, field, partition_from_json
from . import _resolve_mode, _table


def run(args, config, inputs, footer):
    mode = _resolve_mode(args, config)
    trace = evolution_of(inputs, mode)
    partition = partition_from_json(field(inputs, "partition", "inputs"), "inputs.partition")
    report = dynamics.decompose_evolution(trace)
    return _table(
        args, config, "dissipation.csv",
        ["t", "coefficient", "entropy_bits", "escaped_mass"],
        report.rows(partition), footer,
    )

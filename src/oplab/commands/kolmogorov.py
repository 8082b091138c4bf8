"""``oplab kolmogorov``: one classical joint distribution for the declared
constraints, or a minimal infeasible subset of them."""

from __future__ import annotations

from .. import kolmogorov
from ..serialization import constraint_of, field, outcomes_of
from . import EXIT_VALIDATION, _table


def run(args, config, inputs, footer):
    spaces = outcomes_of(inputs)
    constraints = [constraint_of(c, f"inputs.constraints[{k}]", spaces)
                   for k, c in enumerate(field(inputs, "constraints", "inputs", list))]
    result = kolmogorov.kolmogorov_check(spaces, constraints)
    if result.feasible:
        header = list(result.observables) + ["probability"]
        rows = [[*cell, p] for cell, p in sorted(result.joint.items())]
        footer["verdict"] = "feasible"
        return _table(args, config, "kolmogorov.csv", header, rows, footer)
    footer["verdict"] = "infeasible"
    footer["deficit"] = result.deficit
    rows = list(enumerate(result.certificate))
    return _table(args, config, "kolmogorov.csv", ["certificate_index", "constraint"], rows,
                  footer, EXIT_VALIDATION)

"""``oplab tomography``: a state reconstructed from expectation data over an
orthonormal frame, or why none is."""

from __future__ import annotations

from .. import algebra, information
from ..errors import NoRealizableFrame, SingularFrame
from ..serialization import field, reconstruction_from_json
from . import EXIT_VALIDATION, _table


def run(args, config, inputs, footer):
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
            ["purity", purity],
            ["entropy_nats", entropy]]
    for k, w in enumerate(result.weights):
        rows.append([f"weight_{k}", w])
    for k, r in enumerate(result.residuals):
        rows.append([f"residual_{k}", r])
    return _table(args, config, "tomography.csv", ["metric", "value"], rows, footer)

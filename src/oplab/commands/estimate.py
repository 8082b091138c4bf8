"""``oplab estimate``: the probability estimate of a seeded ensemble, with
its convergence and stabilization diagnostics."""

from __future__ import annotations

from .. import ensembles
from ..serialization import ConfigError, field
from . import _table, _trial_log


def run(args, config, inputs, footer):
    alpha = field(inputs, "alpha", "inputs", float, 0.01)
    if not alpha > 0:
        raise ConfigError("inputs.alpha must be above 0")
    trace = _trial_log(args, config, inputs, footer).trace()
    stabilization = ensembles.min_trials(trace, alpha)
    report = ensembles.estimate_probability(trace)
    rows = [
        ["p_hat", report.p_hat],
        ["horizon", report.horizon],
        ["cesaro_mean", report.cesaro_diagnostics.cesaro_mean],
        ["cesaro_verdict", report.cesaro_diagnostics.verdict],
        ["count_monotone", report.count_monotone],
    ]
    for alpha_level, density in report.cesaro_diagnostics.exceedance_densities:
        rows.append([f"exceedance_density_alpha={alpha_level:g}", density])
    for name, gap in report.weak_star_gaps:
        rows.append([f"weak_star_gap_{name}", gap])
    rows.append(["stabilization_alpha", alpha])
    rows.append(["first_stable_index", stabilization.first_candidate])
    rows.append(["first_success_index", stabilization.first_success_index])
    rows.append(["lower_bound_at_horizon", stabilization.lower_bound_at_horizon])
    rows.append(["lower_bound_holds", stabilization.bound_holds])
    return _table(args, config, "estimate.csv", ["metric", "value"], rows, footer)

"""``oplab spectral``: the outcome distribution of an observable in a state,
with its moments and the observable's spectrum."""

from __future__ import annotations

from .. import spectral
from ..serialization import field, operator_of
from . import _table


def run(args, config, inputs, footer):
    observable = operator_of(spectral.HermitianObservable, field(inputs, "observable", "inputs"),
                             "inputs.observable")
    state = operator_of(spectral.DensityState, field(inputs, "state", "inputs"), "inputs.state")
    measure = spectral.spectral_measure(observable, state)
    rows = [["atom", p, w] for p, w in measure.atoms]
    rows.append(["mean", "", measure.mean()])
    rows.append(["variance", "", measure.variance()])
    for point in observable.spectrum:
        rows.append(["spectrum_point", point, observable.multiplicity(point)])
    rows.append(["spectral_radius", "", observable.spectral_radius])
    return _table(args, config, "spectral.csv", ["row", "x", "value"], rows, footer)

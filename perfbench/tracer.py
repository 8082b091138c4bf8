"""Spans and counters recorded from outside oplab, around its public functions.

``install`` replaces each boundary function with a timing wrapper wherever a
loaded ``oplab`` module looks the name up, and each boundary method on its
class, so no file under ``src/`` changes.  Generators are timed per
``next()``, which charges lazily produced rows to their own layer.  Spans
stay in memory and ``dump`` writes them out once, at the end of the job.

A layer's self time is its spans' time minus the part covered by their child
spans (``self_times``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "serialization", "ensembles", "kolmogorov", "simplex", "measures",
          "information", "dynamics", "spectral", "algebra")


class Tracer:
    """Append-only span table: name id, parent index, start and end times."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = defaultdict(int)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured before the tracer existed."""
        idx = self.open(name)
        self.close(idx)
        self.start[idx], self.end[idx] = start, end

    def dump(self, path: Path) -> None:
        header = {"names": self.names, "counts": dict(self.counts), "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def load(path: Path):
    """(names, counts, name ids, parents, starts, ends) from a dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(fh, n)
            columns.append(column)
    return (header["names"], header["counts"], *columns)


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    n = len(starts)
    covered = [0.0] * n
    frontier = list(starts)
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], frontier[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def layer_self_times(names, name_ids, parents, starts, ends) -> dict:
    """Self seconds per layer; span names are ``layer:function``."""
    totals = defaultdict(float)
    layer_of = [name.split(":", 1)[0] for name in names]
    for nid, own in zip(name_ids, self_times(parents, starts, ends)):
        totals[layer_of[nid]] += own
    return dict(totals)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def wrap_call(tracer: Tracer, layer: str, fn, record=None, prepare=None):
    name = f"{layer}:{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if prepare is not None:
            args, kwargs = prepare(tracer.counts, args, kwargs)
        tracer.counts[f"{layer}.calls"] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if record is not None:
            record(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def wrap_generator(tracer: Tracer, layer: str, fn, counter=None):
    name = f"{layer}:{fn.__qualname__}"

    def timed(gen):
        while True:
            idx = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.counts[counter] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[f"{layer}.calls"] += 1
        return timed(fn(*args, **kwargs))

    return wrapper


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _count(key, value_of):
    def record(counts, args, kwargs, result):
        counts[key] += value_of(args, kwargs, result)
    return record


def _kolmogorov(counts, args, kwargs, result):
    cells = 1
    for space in _arg(args, kwargs, 0, "outcome_spaces").values():
        cells *= len(space)
    counts["kolmogorov.cells"] += cells
    counts["kolmogorov.constraints"] += len(_arg(args, kwargs, 1, "constraints"))
    counts["kolmogorov.certificate_size"] += len(result.certificate or ())


def _simplex(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    m = len(rows)
    counts["simplex.solves"] += 1
    counts["simplex.tableau_entries"] += m * (len(rows[0]) + m) if m else 0


def _spectral_init(counts, args, kwargs, result):
    counts["spectral.eigendecompositions"] += 1
    counts["spectral.max_dim"] = max(counts["spectral.max_dim"], args[0].dim)


def _materialize_atoms(counts, args, kwargs):
    """DiscreteMeasure accepts any iterable of atoms; count them once."""
    if len(args) > 1:
        atoms = list(args[1])
        counts["measures.atoms_in"] += len(atoms)
        return (args[0], atoms, *args[2:]), kwargs
    atoms = list(kwargs.get("atoms", ()))
    counts["measures.atoms_in"] += len(atoms)
    return args, {**kwargs, "atoms": atoms}


def _call(record=None, prepare=None):
    return lambda tracer, layer, fn: wrap_call(tracer, layer, fn, record, prepare)


def _generator(counter=None):
    return lambda tracer, layer, fn: wrap_generator(tracer, layer, fn, counter)


# (layer, module, qualified name, wrapper factory)
BOUNDARIES = (
    ("ensembles", "oplab.ensembles", "run_ensemble",
     _call(_count("ensembles.trials", lambda a, k, r: int(_arg(a, k, 2, "n"))))),
    ("ensembles", "oplab.ensembles", "estimate_probability", _call()),
    ("ensembles", "oplab.ensembles", "min_trials", _call()),
    ("ensembles", "oplab.ensembles", "TrialLog.trace", _call()),
    ("ensembles", "oplab.ensembles", "TrialLog.rows", _generator("ensembles.rows_yielded")),
    ("kolmogorov", "oplab.kolmogorov", "kolmogorov_check", _call(_kolmogorov)),
    ("simplex", "oplab.simplex", "find_feasible_point", _call(_simplex)),
    ("measures", "oplab.measures", "Partition.__init__",
     _call(_count("measures.partition_cells", lambda a, k, r: len(a[0].cells)))),
    ("measures", "oplab.measures", "Partition.locate", _call()),
    ("measures", "oplab.measures", "DiscreteMeasure.__init__", _call(prepare=_materialize_atoms)),
    ("measures", "oplab.measures", "DiscreteMeasure.measure_of", _call()),
    ("measures", "oplab.measures", "lebesgue_decompose", _call()),
    ("information", "oplab.information", "shannon_entropy", _call()),
    ("information", "oplab.information", "EntropyReport.rows", _generator()),
    ("dynamics", "oplab.dynamics", "EvolutionTrace.__init__", _call()),
    ("dynamics", "oplab.dynamics", "decompose_evolution",
     _call(_count("dynamics.time_slices", lambda a, k, r: len(r.slices)))),
    ("dynamics", "oplab.dynamics", "DissipationReport.rows", _generator()),
    ("spectral", "oplab.spectral", "HermitianObservable.__init__", _call(_spectral_init)),
    ("spectral", "oplab.spectral", "DensityState.__init__", _call(_spectral_init)),
    ("spectral", "oplab.spectral", "spectral_measure", _call()),
    ("algebra", "oplab.algebra", "arba_validate", _call()),
    ("algebra", "oplab.algebra", "center_check", _call()),
    ("algebra", "oplab.algebra", "embedding_check", _call()),
    ("algebra", "oplab.algebra", "reports_to_records",
     _call(_count("algebra.conditions", lambda a, k, r: len(r)))),
)


def boundaries() -> list:
    """Every boundary as (layer, module, qualified name, wrapper factory);
    the serialization layer is every ``*_from_json`` in oplab.serialization."""
    found = list(BOUNDARIES)
    serialization = sys.modules["oplab.serialization"]
    for attr in sorted(vars(serialization)):
        fn = getattr(serialization, attr)
        if attr.endswith("_from_json") and getattr(fn, "__module__", None) == serialization.__name__:
            found.append(("serialization", serialization.__name__, attr, _call()))
    return found


def install(tracer: Tracer) -> None:
    """Wrap every boundary of the already imported oplab modules."""
    oplab_modules = [m for name, m in list(sys.modules.items())
                     if m is not None and (name == "oplab" or name.startswith("oplab."))]
    for layer, module_name, qualname, make in boundaries():
        module = sys.modules[module_name]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, make(tracer, layer, vars(owner)[attr]))
            continue
        original = getattr(module, attr)
        wrapper = make(tracer, layer, original)
        for candidate in oplab_modules:
            for key, value in list(vars(candidate).items()):
                if value is original:
                    setattr(candidate, key, wrapper)

"""oplab: exact discrete-measure calculus, finite-dimensional observables,
seeded measurement ensembles, entropy analytics and algebraization
diagnostics, with a batch CLI.

Importing the package runs no layer.  Each layer module is registered in
``sys.modules`` and bound here at import, but through
``importlib.util.LazyLoader``: its body runs the first time one of its
attributes is read.  The public names resolve on first access (PEP 562), so
a CLI kind runs only the layers it uses, and a broken layer fails on first
use rather than at ``import oplab``, with its own error on every use.
"""

import importlib.util
import sys
import types

__version__ = "0.3.0"

# The layers, in no particular order: each one's body runs on first use.
_LAYERS = ("errors", "measures", "simplex", "kolmogorov", "spectral", "ensembles",
           "information", "dynamics", "algebra", "serialization", "joint", "diagnostics")


class _Loader:
    """A layer's loader under LazyLoader.  The import system drops a lazy load's
    error, so a failed body leaves a ``__getattr__`` that raises it again."""

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def exec_module(self, module):
        try:
            self.loader.exec_module(module)
        except Exception as exc:
            def __getattr__(name, error=exc):
                raise error
            # A newer LazyLoader leaves the module lazy; a plain one reads __getattr__.
            module.__class__, module.__getattr__ = types.ModuleType, __getattr__
            raise


def _register(name: str):
    """The module ``oplab.<name>``, in ``sys.modules`` but not yet run."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(_Loader(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAYERS:
    globals()[_name] = _register(_name)
del _name

_PUBLIC = {
    "measures": ("BorelSet", "DiscreteMeasure", "Partition", "lebesgue_decompose"),
    "joint": (
        "JointMeasure", "MarkovKernel", "convolve", "disintegrate", "measures_close", "mixture",
        "product_measure",
    ),
    "spectral": (
        "DensityState", "HermitianObservable", "LabSystem", "Question",
        "epsilon_decomposition", "functional_calc", "joint_operator",
        "joint_spectral_measure", "joint_spectrum", "jordan_product", "positive_parts",
        "question_ops", "question_times", "spectral_measure", "spectrum_and_norm",
        "sps_witness", "variance_and_uncertainty",
    ),
    "ensembles": (
        "FrequencyTrace", "NaturalSubset", "TrialLog", "estimate_probability",
        "kvn_equivalence", "min_trials", "natural_density", "place_selection_check",
        "run_ensemble",
    ),
    "information": (
        "EntropyBridge", "Schema", "entropy_bits", "partition_density_matrix",
        "shannon_entropy", "vn_entropy_and_purity",
    ),
    "dynamics": ("DissipationReport", "EvolutionTrace", "decompose_evolution"),
    "diagnostics": (
        "Informativity", "affine_split_check", "dirac_detect", "entropy_checks",
        "informativity_compare", "khinchin_validate", "koopman_apply",
    ),
    "algebra": (
        "Algebraization", "DeclaredRelations", "ReconstructionProblem", "arba_validate",
        "center_check", "commuting_eigenframe", "embedding_check",
        "purity_preservation_check", "purity_selection", "tomography_reconstruct",
    ),
    "kolmogorov": (
        "ConditionalConstraint", "CorrelationConstraint", "ExpectationConstraint",
        "JointConstraint", "KolmogorovResult", "MarginalConstraint", "kolmogorov_check",
        "verify_farkas", "verify_joint",
    ),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""oplab: exact discrete-measure calculus, finite-dimensional observables,
seeded measurement ensembles, entropy analytics and algebraization
diagnostics, with a batch CLI."""

__version__ = "0.1.0"

from .measures import (
    BorelSet,
    DiscreteMeasure,
    JointMeasure,
    MarkovKernel,
    Partition,
    convolve,
    disintegrate,
    lebesgue_decompose,
    measures_close,
    mixture,
    product_measure,
)
from .spectral import (
    DensityState,
    HermitianObservable,
    LabSystem,
    Question,
    epsilon_decomposition,
    functional_calc,
    joint_operator,
    joint_spectral_measure,
    joint_spectrum,
    jordan_product,
    positive_parts,
    question_ops,
    question_times,
    spectral_measure,
    spectrum_and_norm,
    sps_witness,
    variance_and_uncertainty,
)
from .ensembles import (
    FrequencyTrace,
    NaturalSubset,
    TrialLog,
    estimate_probability,
    kvn_equivalence,
    min_trials,
    natural_density,
    place_selection_check,
    run_ensemble,
)
from .information import (
    EntropyBridge,
    Informativity,
    Schema,
    dirac_detect,
    entropy_bits,
    informativity_compare,
    khinchin_validate,
    partition_density_matrix,
    shannon_entropy,
    vn_entropy_and_purity,
)
from .dynamics import (
    DissipationReport,
    EvolutionTrace,
    affine_split_check,
    decompose_evolution,
    entropy_checks,
    koopman_apply,
)
from .algebra import (
    Algebraization,
    DeclaredRelations,
    ReconstructionProblem,
    arba_validate,
    center_check,
    commuting_eigenframe,
    embedding_check,
    purity_preservation_check,
    purity_selection,
    tomography_reconstruct,
)
from .kolmogorov import (
    ConditionalConstraint,
    CorrelationConstraint,
    ExpectationConstraint,
    JointConstraint,
    KolmogorovResult,
    MarginalConstraint,
    kolmogorov_check,
    verify_farkas,
    verify_joint,
)

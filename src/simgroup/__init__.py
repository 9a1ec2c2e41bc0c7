"""Similarity of matrix semigroups to contraction-type semigroups.

The package decides and quantifies, with explicit Hermitian weight
certificates, whether a matrix or a one-parameter matrix semigroup is
similar to a contraction, quasi-contraction or isometric semigroup; it
ships grid discretizations of the classical example semigroups (shifts,
reflection couplings, circle interpolants, fractional integration), the
renorming constructions and quantitative bound audits tying individual
and joint similarity constants together, and the observability /
controllability criteria expressed through Gramians and resolvent means.
"""

from .exceptions import (
    DimensionError,
    InputFormatError,
    InvalidWeightError,
    NearSingularError,
    NotContractionError,
    SaturationError,
    SimgroupError,
    StabilityError,
    WindowError,
)
from .opcore import (
    MatrixSemigroup,
    as_matrix,
    expm_semigroup,
    growth_bound,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    min_singular_value,
    norm_upper_bound,
    numerical_abscissa,
    operator_norm,
    resolvent,
    sampled_semigroup,
    save_matrix,
    semigroup_from_generator,
    semigroup_law_residual,
    spectral_radius,
    weight_factors,
    weighted_norm,
)
from .weightsolve import (
    FeasibilityResult,
    LyapunovTarget,
    SimilarityVerdict,
    SteinTarget,
    WeightCertificate,
    certificate_check,
    discrete_similarity_constant,
    joint_similarity_constant,
    lyapunov_feasible,
    min_quasi_shift,
    quasi_similarity_constant,
    stein_feasible,
)
from .gallery import (
    DyadicSequence,
    GridSpace,
    HolbrookFactorization,
    bhat_skeide,
    bhat_skeide_semigroup,
    evolution_semigroup,
    indicator_embedding,
    integration_functional,
    left_shift,
    leftzero_idempotents,
    lemerdy_semigroup,
    packel_nilpotent_compression,
    packel_nilpotent_lower_bound,
    packel_reflection,
    packel_semigroup,
    periodic_shift,
    riemann_liouville,
    riemann_liouville_semigroup,
    right_shift,
    schaeffer_compression,
    schaeffer_dilation,
    summing_basis,
    w_semigroup,
    wrap_coupling_weight,
    wrap_fill,
)
from .criteria import (
    BoundAudit,
    ConstantCurve,
    IsometryReport,
    SlopeReport,
    TrichotomyReport,
    average_renorm,
    average_renorm_factor_audit,
    classify,
    factorization_from_certificate,
    holbrook_bound_audit,
    liapunov_renorm,
    local_commutation_slope,
    nagy_isometry_test,
    post_widder,
    resolvent_constants,
    simconst_bound_audit,
    small_time_constants,
    sup_norm_on_interval,
)
from .control import (
    GramianReport,
    NabokoPoint,
    ObservedSystem,
    cesaro_orbit_mean,
    defect_observation,
    duality_check,
    finite_time_observability_test,
    infinite_gramian,
    naboko_integral,
    observability_gramian,
)

__version__ = "0.1.0"

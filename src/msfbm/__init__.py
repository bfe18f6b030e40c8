"""Simulation and verification toolkit for mixed sub-fractional Brownian motion."""

from .process import (
    IncrementBoundConstants,
    IncrementWindow,
    ProcessSpec,
)
from .kernels import (
    bound_constants,
    conditional_variance,
    fbm_cov,
    increment_bounds,
    increment_cov,
    increment_cov_component,
    increment_second_moment,
    kernel_scale,
    lag_cov_c,
    lag_cov_c_asymptotic,
    lag_cov_series,
    markov_residual,
    mfbm_cov,
    mfbm_lag_cov_r,
    msfbm_cov,
    msfbm_var,
    rescale_coeffs,
    sfbm_cov,
    stationarity_gap,
)
from .sampler import (
    Ensemble,
    FactorizationFailure,
    FactorResult,
    TimeGrid,
    gram_matrix,
    psd_factor,
    sample_ensemble,
)
from .analysis import (
    DimensionEstimate,
    GridMismatch,
    InsufficientReplicas,
    InsufficientResolution,
    LevelNotCrossed,
    VariationReport,
    empirical_cov,
    graph_box_dimension,
    holder_exponent_estimate,
    level_set_box_dimension,
    nondiff_probe,
    p_variation_stat,
    qv_scaling_exponent,
    range_dimension,
    srd_series,
)
from .classify import (
    Ordering,
    PreconditionViolated,
    PredictionContradicted,
    SemimartingaleReason,
    SemimartingaleVerdict,
    SignVerdict,
    dependence_compare,
    increment_sign_predict,
    markov_verdict,
    semimartingale_classify,
)

__version__ = "0.1.0"

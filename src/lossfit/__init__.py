"""Lognormal loss-severity estimation for policy-modified payment data.

Fits lognormal severity models to insurance payments shaped by
deductibles, policy limits, and coinsurance, via maximum likelihood and
trimmed moments, with asymptotic covariances, relative-efficiency
tables, a Monte Carlo study harness, and goodness-of-fit testing.
"""

__version__ = "0.1.0"

from .efficiency import AreRequest, AreTable, are_pair, are_table, finite_re
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateBandError,
    DomainError,
    EstimationError,
    LossfitError,
    NoMleError,
    NoSolutionError,
    SingularMatrixError,
    TrimValidationError,
)
from .gof import KsResult, ks_critical_value, ks_statistic
from .mle import (
    FisherComponents,
    FitResult,
    MomentSummary,
    confidence_intervals,
    cov_left_truncated,
    cov_mle_y,
    cov_mle_z,
    fisher_y,
    fisher_z,
    fit_left_truncated,
    fit_mle_y,
    fit_mle_z,
    loglik_y,
    loglik_z,
    truncated_moment_ratio,
)
from .mtm import (
    CoefficientSet,
    CoverageInfo,
    TrimSpec,
    TrimValidation,
    coeff_c_complete,
    coeff_c_y,
    cov_mtm_y,
    cov_mtm_z,
    fit_mtm_y,
    fit_mtm_y_plugin,
    fit_mtm_z,
    trimmed_sample_moments,
    validate_trim_y,
    validate_trim_z,
)
from .numerics import (
    SolverSpec,
    normal_hazard,
    solve_2d,
    solve_monotone_scalar,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_sf,
)
from .payments import (
    GroundUpLognormal,
    NormalThresholds,
    PaymentDistribution,
    PaymentKind,
    PaymentSample,
    PolicySpec,
    StandardizedThresholds,
    derive_thresholds,
    dist_y,
    dist_z,
    standardize,
    transform_to_normal,
)
from .simulation import (
    EstimatorSpec,
    StudyConfig,
    StudyResult,
    generate_sample,
    run_study,
)

"""Solver and Monte Carlo benchmarks for the CIR model driven by fBm (H > 1/2)."""

from .errors import (
    DomainError,
    FcirError,
    NumericalError,
    SingularityError,
    UnsupportedRegimeError,
)
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    InverseMomentCurve,
    MalliavinGapReport,
    SamplerCheck,
    check_fbm_samplers,
    estimate_inverse_moments,
    malliavin_gap_study,
    path_seed,
    regress_order,
    run_convergence_grid,
    run_convergence_uniform,
)
from .fbm import (
    FbmPath,
    GridSpec,
    HurstParameter,
    coarsen_path,
    covariance_density,
    fbm_covariance,
    fgn_autocovariance,
    holder_statistic,
    sample_fbm_cholesky,
    sample_fbm_circulant,
)
from .malliavin import (
    MalliavinProfile,
    malliavin_exponential_form,
    malliavin_interpolated,
    malliavin_profile,
    malliavin_terminal_forms,
)
from .model import (
    CirParams,
    ConditionReport,
    check_moment_condition,
    check_moment_conditions,
    drift,
    drift_derivative,
    drift_second_derivative,
    lamperti_forward,
    lamperti_inverse,
    max_stable_step,
    mean_reversion_rescale,
    sufficient_moment_condition,
    weighted_kernel_integral,
)
from .scheme import (
    SolutionPath,
    backward_euler_step,
    interpolate,
    interpolate_many,
    rate_interpolate,
    rate_path,
    residuals,
    simulate_batch,
    simulate_path,
)

__version__ = "0.1.0"

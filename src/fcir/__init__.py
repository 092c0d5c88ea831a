"""Solver and Monte Carlo benchmarks for the CIR model driven by fBm (H > 1/2)."""

from .errors import (
    DomainError,
    FcirError,
    NumericalError,
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
    regress_order,
    run_convergence,
    simulate_paths,
)
from .fbm import (
    GridSpec,
    HurstParameter,
    fbm_covariance,
    fgn_autocovariance,
    holder_statistic,
    sample_fbm_cholesky,
    sample_fbm_circulant,
)
from .malliavin import malliavin_terminal_forms
from .model import (
    CirParams,
    ConditionReport,
    check_moment_conditions,
    drift_derivative,
)
from .scheme import simulate_batch, step_constants

__version__ = "0.9.0"

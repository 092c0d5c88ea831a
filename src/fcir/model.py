"""CIR model parameters, the transformed drift, and inverse-moment conditions.

The solver works on the square-root transform X = sqrt(r) of the CIR rate,
whose drift is f(x) = kappa*theta/(2x) - kappa*x/2.  Bounded inverse moments
of the solution hold under an integral condition comparing kappa*theta
against a multiple of an exponentially weighted singular-kernel integral;
this module evaluates that condition by quadrature and also provides the
closed-form sufficient test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, NumericalError
from .fbm import HurstParameter, _as_hurst

__all__ = [
    "CirParams",
    "ConditionReport",
    "drift",
    "drift_derivative",
    "drift_second_derivative",
    "lamperti_forward",
    "lamperti_inverse",
    "mean_reversion_rescale",
    "weighted_kernel_integral",
    "check_moment_condition",
    "check_moment_conditions",
    "sufficient_moment_condition",
    "max_stable_step",
]


@dataclass(frozen=True)
class CirParams:
    """Constants of dr = kappa*(theta - r) dt + sigma*sqrt(r) dB.

    All four must be finite.  kappa*theta > 0 is required (kappa < 0 with
    theta < 0 is admissible), along with sigma > 0 and r0 > 0.
    """

    kappa: float
    theta: float
    sigma: float
    r0: float

    def __post_init__(self) -> None:
        for name in ("kappa", "theta", "sigma", "r0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.kappa * self.theta > 0.0:
            raise DomainError(
                f"kappa*theta must be positive, got kappa={self.kappa}, theta={self.theta}"
            )
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not self.r0 > 0.0:
            raise DomainError(f"r0 must be positive, got {self.r0}")

    @property
    def x0(self) -> float:
        """Initial value of the square-root transform, sqrt(r0)."""
        return math.sqrt(self.r0)


def _require_positive_level(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("the transformed level must be strictly positive")
    return x


def drift(x, params: CirParams):
    """Drift of the transformed equation: kappa*theta/(2x) - kappa*x/2."""
    x = _require_positive_level(x)
    out = 0.5 * params.kappa * params.theta / x - 0.5 * params.kappa * x
    return float(out) if out.ndim == 0 else out


def drift_derivative(x, params: CirParams):
    """First derivative of the drift: -kappa*theta/(2x^2) - kappa/2."""
    x = _require_positive_level(x)
    out = -0.5 * params.kappa * params.theta / (x * x) - 0.5 * params.kappa
    return float(out) if out.ndim == 0 else out


def drift_second_derivative(x, params: CirParams):
    """Second derivative of the drift: kappa*theta/x^3."""
    x = _require_positive_level(x)
    out = params.kappa * params.theta / (x * x * x)
    return float(out) if out.ndim == 0 else out


def lamperti_forward(r):
    """Map a rate to the transformed level: sqrt(r)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("rates must be nonnegative")
    out = np.sqrt(r)
    return float(out) if out.ndim == 0 else out


def lamperti_inverse(x):
    """Map a transformed level back to a rate: x^2."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("levels must be nonnegative")
    out = x * x
    return float(out) if out.ndim == 0 else out


def mean_reversion_rescale(x: float, t: float, params: CirParams) -> float:
    """Rescale a level by the mean-reversion growth factor exp(kappa*t/2).

    The rescaled process has a purely singular drift, which is what makes the
    inverse-moment argument work; exposed here because condition margins are
    stated in the rescaled frame.
    """
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    return math.exp(0.5 * params.kappa * t) * x


def weighted_kernel_integral(
    s: float, params: CirParams, hurst: HurstParameter | float
) -> float:
    """Integral of (sigma^2/2) e^(kappa*tau/2) H(2H-1) (s-tau)^(2H-2) over [0, s].

    The kernel exponent 2H-2 lies in (-1, 0): integrable, but fatal to naive
    panel quadrature at tau = s.  Substituting u = s - tau moves the
    singularity to u = 0, where the integral over [0, s/1000] is evaluated by
    expanding the exponential weight in a power series (each term integrates
    in closed form); the remainder is handled by adaptive Gauss-Kronrod
    quadrature.  Relative accuracy is well below 1e-8.
    """
    hurst = _as_hurst(hurst)
    if not hurst.long_memory:
        raise DomainError(f"kernel integral requires H > 1/2, got {hurst.value}")
    if s < 0.0:
        raise DomainError(f"s must be nonnegative, got {s}")
    if s == 0.0:
        return 0.0

    a = 2.0 * hurst.value - 2.0
    rate = 0.5 * params.kappa
    eps = s / 1000.0

    # integral of e^(-rate*u) u^a over [0, eps], term by term
    head = 0.0
    coeff = 1.0
    for k in range(80):
        term = coeff * eps ** (a + k + 1) / (a + k + 1)
        head += term
        if abs(term) <= 1e-17 * abs(head):
            break
        coeff *= -rate / (k + 1)
    else:
        raise NumericalError("series for the singular slice did not converge")

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            tail, _ = integrate.quad(
                lambda u: math.exp(-rate * u) * u**a,
                eps,
                s,
                epsabs=0.0,
                epsrel=1e-10,
                limit=200,
            )
        except integrate.IntegrationWarning as exc:
            raise NumericalError(f"kernel quadrature did not converge: {exc}") from exc

    prefactor = 0.5 * params.sigma**2 * hurst.alpha * math.exp(rate * s)
    return prefactor * (head + tail)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of an inverse-moment condition check.

    worst_margin is the minimum over s of LHS - RHS; the condition holds iff
    it is nonnegative.  method records whether the margin came from the
    quadrature evaluation or the closed-form sufficient bound.
    """

    holds: bool
    worst_margin: float
    worst_s: float
    multiplier: int
    method: str

    def __post_init__(self) -> None:
        if self.holds != (self.worst_margin >= 0.0):
            raise DomainError("holds must mirror the sign of worst_margin")
        if self.method not in ("quadrature", "sufficient-closed-form"):
            raise DomainError(f"unknown method {self.method!r}")


def _multipliers(p: int) -> tuple[int, int]:
    return p + 1, 3 * p + 1


def check_moment_condition(
    p: int,
    multiplier: int,
    params: CirParams,
    hurst: HurstParameter | float,
    horizon: float,
    s_grid_size: int = 1000,
) -> ConditionReport:
    """Evaluate the inverse-moment condition margin on a dense s-grid.

    margin(s) = kappa*theta*e^(kappa*s/2) - multiplier * weighted_kernel_integral(s).
    multiplier is p+1 (exact-solution moment bound) or 3p+1 (the variant used
    by the convergence analysis).  The margin is smooth in s, so a 1000-point
    grid bounds the discretization error far below the margins of interest.
    """
    if p < 1:
        raise DomainError(f"moment order p must be >= 1, got {p}")
    if multiplier not in _multipliers(p):
        raise DomainError(
            f"multiplier must be p+1 or 3p+1, one of {_multipliers(p)}, got {multiplier}"
        )
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    if s_grid_size < 2:
        raise DomainError("s_grid_size must be at least 2")
    hurst = _as_hurst(hurst)

    s_grid = np.linspace(0.0, horizon, s_grid_size)
    margins = np.array(
        [
            params.kappa * params.theta * math.exp(0.5 * params.kappa * s)
            - multiplier * weighted_kernel_integral(s, params, hurst)
            for s in s_grid
        ]
    )
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    return ConditionReport(
        holds=worst_margin >= 0.0,
        worst_margin=worst_margin,
        worst_s=float(s_grid[worst]),
        multiplier=multiplier,
        method="quadrature",
    )


def check_moment_conditions(
    p: int, params: CirParams, hurst: HurstParameter | float, horizon: float
) -> tuple[ConditionReport, ...]:
    """Both inverse-moment conditions, multiplier p+1 first, then 3p+1."""
    return tuple(
        check_moment_condition(p, multiplier, params, hurst, horizon)
        for multiplier in _multipliers(p)
    )


def sufficient_moment_condition(
    p: int,
    params: CirParams,
    hurst: HurstParameter | float,
    horizon: float,
    s_grid_size: int = 1000,
) -> bool:
    """Closed-form sufficient test for the p+1 inverse-moment condition.

    kappa > 0: T^(2H-1) <= 2*kappa*theta / (sigma^2 H (p+1)).
    kappa < 0: s^(2H-1) <= 2*kappa*theta*e^(kappa*s/2) / (sigma^2 H (p+1))
    for all s in [0, T], checked on a dense grid.  True implies the
    quadrature check with multiplier p+1 also holds; the converse can fail.
    """
    if p < 1:
        raise DomainError(f"moment order p must be >= 1, got {p}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    hurst = _as_hurst(hurst)
    if not hurst.long_memory:
        raise DomainError(f"sufficient condition requires H > 1/2, got {hurst.value}")

    exponent = 2.0 * hurst.value - 1.0
    scale = 2.0 * params.kappa * params.theta / (
        params.sigma**2 * hurst.value * (p + 1)
    )
    if params.kappa > 0.0:
        return horizon**exponent <= scale
    s_grid = np.linspace(0.0, horizon, s_grid_size)
    bound = scale * np.exp(0.5 * params.kappa * s_grid)
    return bool(np.all(s_grid**exponent <= bound))


def max_stable_step(params: CirParams, xi: float = 0.5) -> float:
    """Supremum of step sizes h with h*max(0, -kappa/2) < 1 - xi.

    Unbounded (inf) when kappa >= 0.  xi defaults to 0.5; it is a slack
    parameter of the convergence analysis with no canonical experimental
    value, so runs record which xi was used.
    """
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    if params.kappa >= 0.0:
        return math.inf
    return (1.0 - xi) / (-0.5 * params.kappa)

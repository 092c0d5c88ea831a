"""CIR model parameters, the transformed drift, and inverse-moment conditions.

The solver works on the square-root transform X = sqrt(r) of the CIR rate,
whose drift is f(x) = kappa*theta/(2x) - kappa*x/2; the Malliavin forms use
its derivative f'.  Bounded inverse moments of the solution hold under an
integral condition comparing kappa*theta against a multiple of an
exponentially weighted singular-kernel integral; this module evaluates that
condition exactly in the frame rescaled by e^(-kappa*s/2), through the closed
form of the integral (Kummer's function, or the incomplete gamma function for
kappa > 0), and also provides the closed-form sufficient test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, NumericalError
from .fbm import HurstParameter

__all__ = [
    "CirParams",
    "ConditionReport",
    "drift",
    "drift_derivative",
    "check_moment_conditions",
    "sufficient_moment_condition",
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
    """Drift of the transformed equation, kappa*theta/(2x) - kappa*x/2, in x's shape."""
    x = _require_positive_level(x)
    return 0.5 * params.kappa * params.theta / x - 0.5 * params.kappa * x


def drift_derivative(x, params: CirParams):
    """First derivative of the drift, -kappa*theta/(2x^2) - kappa/2, in x's shape."""
    x = _require_positive_level(x)
    return -0.5 * params.kappa * params.theta / (x * x) - 0.5 * params.kappa


def _rescaled_kernel_integral(s: float, params: CirParams, hurst: HurstParameter) -> float:
    """(sigma^2/2) H(2H-1) * I(s), where I(s) = integral of e^(-kappa*u/2) u^(2H-2) over [0, s].

    With a = 2H-1, I(s) = s^a/a * 1F1(a; a+1; -kappa*s/2) in Kummer's
    confluent hypergeometric function, or gamma(a, kappa*s/2)/(kappa/2)^a in
    the lower incomplete gamma function (DLMF 8.5.1, 13.2).  I is the kernel
    integral in the frame rescaled by e^(-kappa*s/2); it overflows to inf
    only for kappa < 0 with |kappa|*s/2 beyond about 709.

    For kappa < 0 and z = -kappa*s/2, 1F1(a; a+1; z) >= a(e^z - 1)/z, so
    I(s) >= s^a (e^z - 1)/z; where that bound exceeds the largest double,
    NumericalError is raised before scipy's hyp1f1, which does not return
    for z of about 1e50 and beyond.
    """
    if not hurst.long_memory:
        raise DomainError(f"kernel integral requires H > 1/2, got {hurst.value}")
    a = 2.0 * hurst.value - 1.0
    rate = 0.5 * params.kappa
    z = -rate * s
    if z > 0.0:
        # finite down to z = 5e-324; an overflowed z gives nan, which is refused
        log_bound = a * math.log(s) + z + math.log(-math.expm1(-z)) - math.log(z)
        if not log_bound <= math.log(np.finfo(float).max):
            raise NumericalError(
                f"inverse-moment margin overflows at horizon={s}, kappa={params.kappa}: "
                f"the kernel integral exceeds e^{log_bound:.6g}"
            )
    # imported here, not with the module, so that `import fcir` loads no scipy
    from scipy import special

    if rate > 0.0:
        # scipy's hyp1f1 at negative arguments is nan for small a and |z|
        # below about 1e-172 or above about 1e11, and takes up to seconds
        # near 1e10; the incomplete gamma function has neither defect.
        integral = special.gamma(a) * special.gammainc(a, rate * s) / rate**a
    else:
        integral = s**a / a * special.hyp1f1(a, a + 1.0, z)
    return 0.5 * (params.sigma * params.sigma) * hurst.alpha * float(integral)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of an inverse-moment condition check.

    worst_margin is the minimum over s in [0, T] of the margin in the frame
    rescaled by e^(-kappa*s/2), which keeps the sign of LHS - RHS; the
    condition holds iff it is nonnegative.  The margin is always evaluated
    exactly, through the closed form of the kernel integral.
    """

    worst_margin: float
    worst_s: float
    multiplier: int
    method: ClassVar[str] = "exact"

    @property
    def holds(self) -> bool:
        return self.worst_margin >= 0.0


def check_moment_conditions(
    p: int, params: CirParams, hurst: HurstParameter, horizon: float
) -> tuple[ConditionReport, ConditionReport]:
    """Both inverse-moment condition margins over s in [0, T], multiplier p+1 first, then 3p+1.

    In the frame rescaled by e^(-kappa*s/2) the margin is
    kappa*theta - multiplier * (sigma^2/2) H(2H-1) I(s), with I as in
    _rescaled_kernel_integral, which is evaluated once for both.  I grows
    strictly in s for either sign of kappa, so the worst margin is always at
    s = T.  The multiplier p+1 gives the exact-solution moment bound, 3p+1
    the variant used by the convergence analysis.  A margin that overflows
    raises NumericalError.
    """
    if p < 1:
        raise DomainError(f"moment order p must be >= 1, got {p}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    integral = _rescaled_kernel_integral(horizon, params, hurst)
    reports = []
    for multiplier in (p + 1, 3 * p + 1):
        margin = params.kappa * params.theta - multiplier * integral
        if not math.isfinite(margin):
            raise NumericalError(
                f"inverse-moment margin overflows at horizon={horizon}, kappa={params.kappa}"
            )
        reports.append(
            ConditionReport(worst_margin=margin, worst_s=float(horizon), multiplier=multiplier)
        )
    return tuple(reports)


def sufficient_moment_condition(
    p: int, params: CirParams, hurst: HurstParameter, horizon: float
) -> bool:
    """Closed-form sufficient test for the p+1 inverse-moment condition.

    s^(2H-1) <= 2*kappa*theta*e^(min(kappa, 0)*s/2) / (sigma^2 H (p+1)) for
    all s in [0, T]; the left side rises and the right side does not, so
    s = T decides.  True implies the exact check with multiplier p+1 also
    holds; the converse can fail.
    """
    if p < 1:
        raise DomainError(f"moment order p must be >= 1, got {p}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    if not hurst.long_memory:
        raise DomainError(f"sufficient condition requires H > 1/2, got {hurst.value}")

    scale = 2.0 * params.kappa * params.theta / (
        params.sigma * params.sigma * hurst.value * (p + 1)
    )
    bound = scale * math.exp(0.5 * min(params.kappa, 0.0) * horizon)
    return horizon ** (2.0 * hurst.value - 1.0) <= bound

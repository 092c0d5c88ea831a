"""CIR model parameters, the transformed drift's derivative, and inverse-moment conditions.

The solver works on the square-root transform X = sqrt(r) of the CIR rate,
whose drift is f(x) = kappa*theta/(2x) - kappa*x/2; the Malliavin forms use
its derivative f'.  Bounded inverse moments of the solution hold under an
integral condition comparing kappa*theta against a multiple of an
exponentially weighted singular-kernel integral; this module evaluates that
condition exactly in the frame rescaled by e^(-kappa*s/2), through the
incomplete gamma function (kappa > 0) or Kummer's function (kappa < 0) that
the integral equals, each summed to double precision with the `math` module
alone, and also provides the closed-form sufficient test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .errors import DomainError, NumericalError
from .fbm import HurstParameter

__all__ = [
    "CirParams",
    "ConditionReport",
    "drift_derivative",
    "check_moment_conditions",
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


def drift_derivative(x, params: CirParams):
    """First derivative of the drift, -kappa*theta/(2x^2) - kappa/2, in x's shape."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("the transformed level must be strictly positive")
    return -0.5 * params.kappa * params.theta / (x * x) - 0.5 * params.kappa


# ln of the largest double: a kernel integral beyond e^_LOG_MAX is refused
_LOG_MAX = math.log(sys.float_info.max)
# A sum or continued fraction stops at the first term or factor that moves it
# by at most a rounding unit, and raises if that takes more than _MAX_TERMS.
_EPS = sys.float_info.epsilon / 2.0
_TINY = sys.float_info.min
_MAX_TERMS = 1000


def _series(terms) -> float:
    """Sum of positive terms, up to the first that moves it by at most a rounding unit.

    Every caller hands it _MAX_TERMS terms at most; if none is small enough
    the sum has not converged.
    """
    total = 0.0
    for term in terms:
        total += term
        if term <= _EPS * total:
            return total
    raise NumericalError(f"a kernel-integral series did not converge in {_MAX_TERMS} terms")


def _legendre_fraction(x: float, a: float) -> float:
    """e^x x^(-a) Gamma(a, x) for x >= a+1, from its continued fraction by modified Lentz.

    The fraction is 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))), DLMF 8.9.2.
    """
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    fraction = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        fraction *= delta
        if abs(delta - 1.0) <= _EPS:
            return fraction
    raise NumericalError(
        f"the incomplete gamma fraction did not converge in {_MAX_TERMS} terms at x={x}"
    )


def _kernel_integral(s: float, kappa: float, a: float) -> float:
    """I(s), the integral of e^(-kappa*u/2) u^(a-1) over [0, s], for 0 < a < 1 and s >= 0.

    With x = kappa*s/2 and z = -x, I(s) = gamma(a, x)/(kappa/2)^a for
    kappa > 0, in the lower incomplete gamma function, and s^a/a *
    1F1(a; a+1; z) for kappa < 0, in Kummer's function (DLMF 8.2.1, 13.2.2).
    Each is summed where it converges fast:

    - 0 <= x < a+1: e^(-x) s^a sum x^k/(a(a+1)...(a+k)), DLMF 8.7.1;
    - x >= a+1: (Gamma(a) - Gamma(a, x))/(kappa/2)^a, with Gamma(a, x) from
      its Legendre continued fraction;
    - 0 < z <= 100: s^a sum z^k/(k!(a+k));
    - z > 100: e^z (s^a/z) sum (1-a)_k z^(-k), DLMF 13.7.2, whose other term
      is below e^(-z) times this one.  Where that product overflows it is
      formed in the log domain, and where I(s) exceeds the largest double
      NumericalError is raised.
    """
    x = 0.5 * kappa * s
    z = -x
    if 0.0 <= x < a + 1.0:
        terms = accumulate(range(1, _MAX_TERMS), lambda t, k: t * (x / (a + k)), initial=1.0 / a)
        return math.exp(-x) * s**a * _series(terms)
    if x >= a + 1.0:
        rate = 0.5 * kappa
        # Gamma(a, x)/rate^a; e^(-x) underflows to 0 beyond x of about 745
        upper = math.exp(-x) * s**a
        if upper > 0.0:
            upper *= _legendre_fraction(x, a)
        return math.gamma(a) / rate**a - upper
    if z <= 100.0:
        powers = accumulate(range(1, _MAX_TERMS), lambda p, k: p * (z / k), initial=1.0)
        return s**a * _series(p / (a + k) for k, p in enumerate(powers))
    total = _series(accumulate(range(1, _MAX_TERMS), lambda t, k: t * ((k - a) / z), initial=1.0))
    if z < _LOG_MAX:
        # e^z first, then the rest, so that the product overflows only with I(s)
        integral = math.exp(z) * (s**a / z) * total
        if integral < math.inf:
            return integral
    # finite down to s = 5e-324; an overflowed z gives nan, which is refused
    log_integral = z + a * math.log(s) - math.log(z) + math.log(total)
    if not log_integral <= _LOG_MAX:
        raise NumericalError(
            f"inverse-moment margin overflows at horizon={s}, kappa={kappa}: "
            f"the kernel integral exceeds e^{log_integral:.6g}"
        )
    return math.exp(log_integral)


def _rescaled_kernel_integral(s: float, params: CirParams, hurst: HurstParameter) -> float:
    """(sigma^2/2) H(2H-1) * I(s), where I(s) = integral of e^(-kappa*u/2) u^(2H-2) over [0, s].

    I is the kernel integral in the frame rescaled by e^(-kappa*s/2), summed
    by `_kernel_integral` with a = 2H-1; it exceeds the largest double only
    for kappa < 0 with |kappa|*s/2 beyond about 709, where NumericalError
    is raised.
    """
    hurst.require_long_memory()
    integral = _kernel_integral(s, params.kappa, 2.0 * hurst.value - 1.0)
    return 0.5 * (params.sigma * params.sigma) * hurst.alpha * integral


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of an inverse-moment condition check.

    worst_margin is the minimum over s in [0, T] of the margin in the frame
    rescaled by e^(-kappa*s/2), which keeps the sign of LHS - RHS; the
    condition holds iff it is nonnegative.  The margin is always evaluated
    exactly, through the closed form of the kernel integral.  sufficient is
    the closed-form sufficient test for the same multiplier m:
    s^(2H-1) <= 2*kappa*theta*e^(min(kappa, 0)*s/2) / (sigma^2 H m) for all
    s in [0, T]; the left side rises and the right side does not, so s = T
    decides.  True implies holds; the converse can fail.
    """

    worst_margin: float
    worst_s: float
    multiplier: int
    sufficient: bool
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
    raises NumericalError.  The sufficient test is compared as a product,
    with no quotient to overflow or divide by zero.
    """
    if p < 1:
        raise DomainError(f"moment order p must be >= 1, got {p}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    integral = _rescaled_kernel_integral(horizon, params, hurst)
    kappa_theta = params.kappa * params.theta
    bound = 2.0 * kappa_theta * math.exp(0.5 * min(params.kappa, 0.0) * horizon)
    growth = params.sigma * params.sigma * hurst.value * horizon ** (2.0 * hurst.value - 1.0)
    reports = []
    for multiplier in (p + 1, 3 * p + 1):
        margin = kappa_theta - multiplier * integral
        if not math.isfinite(margin):
            raise NumericalError(
                f"inverse-moment margin overflows at horizon={horizon}, kappa={params.kappa}"
            )
        reports.append(ConditionReport(
            worst_margin=margin, worst_s=float(horizon), multiplier=multiplier,
            sufficient=multiplier * growth <= bound,
        ))
    return tuple(reports)


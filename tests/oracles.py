"""Reference computations the tests judge the library against.

All but `terminal_sensitivity` share no code with `fcir`:

- `drift`, `residuals`: the transformed drift f(x) = kappa*theta/(2x) -
  kappa*x/2 and the implicit relation of a solved path;
- `bisect_implicit_step`: one implicit step solved by bisection;
- `backward_euler_step`: one implicit step in closed form on Python floats,
  with the rounding of `simulate_batch`, the batch solver's bit-identity oracle;
- `rk4_levels`: the Doss-Sussmann form of the equation, solved by classical
  Runge-Kutta, an independent reference for the order-one claim;
- `terminal_sensitivity`: the central difference of `simulate_batch`'s X_N
  in one noise increment, the derivative the Malliavin product form claims
  to be;
- `scipy_rescaled_kernel_integral`: the inverse-moment kernel integral in
  scipy's incomplete gamma and Kummer functions.
"""

import math

import numpy as np
from scipy import special

from fcir import CirParams, DomainError, HurstParameter, simulate_batch


def drift(x, params: CirParams):
    """Drift of the transformed equation, kappa*theta/(2x) - kappa*x/2, in x's shape."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("the transformed level must be strictly positive")
    return 0.5 * params.kappa * params.theta / x - 0.5 * params.kappa * x


def residuals(x: np.ndarray, noise: np.ndarray, step: float, params: CirParams) -> np.ndarray:
    """Entry n is x[n+1] - x[n] - f(x[n+1]) h - sigma*dB_{n+1}/2 along one path.

    x holds the levels x_0..x_N of one path and noise its driving fBm at the
    same nodes; the entries vanish to rounding for a backward Euler path.
    """
    if np.shape(x) != np.shape(noise):
        raise DomainError(
            f"noise and solution must share a grid, got shapes {np.shape(noise)} and "
            f"{np.shape(x)}"
        )
    x_next = x[1:]
    return x_next - x[:-1] - drift(x_next, params) * step - 0.5 * params.sigma * np.diff(noise)


def bisect_implicit_step(x_n, increment, step, params, tol=1e-14):
    """Solve x = x_n + f(x)*step + sigma*increment/2 by bisection."""

    def residual(x):
        return x - x_n - drift(x, params) * step - 0.5 * params.sigma * increment

    lo, hi = 1e-300, 1.0
    while residual(hi) < 0.0:
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def backward_euler_step(x_n: float, increment: float, step: float, params: CirParams) -> float:
    """Positive root of (2 + kappa*h) x^2 - 2 a x - kappa*theta*h = 0, a = x_n + sigma*dB/2.

    The operations and their order are those of `simulate_batch`, so a loop
    of this step over `np.diff` of a row gives that row's bits; s = |a| +
    sqrt(a^2 + c) serves both the a >= 0 root s/denom and its conjugate form
    c/s/denom, which avoids cancellation for a < 0.
    """
    a = float(x_n) + 0.5 * params.sigma * float(increment)
    denom = 2.0 + params.kappa * step
    c = params.kappa * step * params.theta * denom
    s = abs(a) + math.sqrt(a * a + c)
    return (s if a >= 0.0 else c / s) / denom


def rk4_levels(noise: np.ndarray, step: float, params: CirParams, substeps: int) -> np.ndarray:
    """Levels of dX = f(X) dt + (sigma/2) dB at the nodes, by RK4 on the Doss-Sussmann ODE.

    For additive noise, Y = X - (sigma/2) B solves Y' = f(Y + (sigma/2) B(t))
    path by path (Doss 1977; Sussmann 1978).  B is taken linear between the
    nodes of noise, shape (paths, N+1), and each panel of width step takes
    `substeps` classical Runge-Kutta steps, all paths at once.  The result
    is X = Y + (sigma/2) B at the nodes, shape (paths, N+1).
    """
    half_sigma = 0.5 * params.sigma
    half_kappa_theta, half_kappa = 0.5 * params.kappa * params.theta, 0.5 * params.kappa
    dt = step / substeps
    y = np.full(noise.shape[0], params.x0)
    levels = np.empty_like(noise)
    levels[:, 0] = params.x0
    for n in range(noise.shape[1] - 1):
        start, slope = half_sigma * noise[:, n], half_sigma * (noise[:, n + 1] - noise[:, n])

        def f(y, fraction):
            x = y + start + fraction * slope
            return half_kappa_theta / x - half_kappa * x

        for m in range(substeps):
            u = m / substeps
            k1 = f(y, u)
            k2 = f(y + 0.5 * dt * k1, u + 0.5 / substeps)
            k3 = f(y + 0.5 * dt * k2, u + 0.5 / substeps)
            k4 = f(y + dt * k3, u + 1.0 / substeps)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        levels[:, n + 1] = y + half_sigma * noise[:, n + 1]
    if not np.all(np.isfinite(levels) & (levels > 0.0)):
        raise DomainError("an RK4 level left (0, inf): the substeps are too coarse")
    return levels


def terminal_sensitivity(
    noise: np.ndarray, node: int, step: float, params: CirParams, eps: float = 1e-6
) -> np.ndarray:
    """Central difference of X_N per path when the fBm levels from node on move by +-eps.

    That moves only the increment of panel (t_{node-1}, t_node], so this is
    dX_N / dB-increment, the profile value the product form gives for s = t_node.
    """
    solutions = []
    for shift in (eps, -eps):
        shifted = noise.copy()
        shifted[:, node:] += shift
        solutions.append(simulate_batch(shifted, step, params)[:, -1])
    return (solutions[0] - solutions[1]) / (2.0 * eps)


def scipy_rescaled_kernel_integral(s: float, params: CirParams, hurst: HurstParameter) -> float:
    """(sigma^2/2) H(2H-1) I(s), I(s) = integral of e^(-kappa*u/2) u^(2H-2) over [0, s], in scipy.

    I(s) = gamma(a, kappa*s/2)/(kappa/2)^a for kappa > 0 and s^a/a *
    1F1(a; a+1; -kappa*s/2) for kappa < 0, with a = 2H-1.  It is inf where
    I(s) overflows, and also wherever hyp1f1 does, beyond |kappa|*s/2 of about
    716; it is wrong by up to 100% where kappa*s/2 is subnormal, and hyp1f1
    does not return for |kappa|*s/2 of about 1e50 and beyond.
    """
    a = 2.0 * hurst.value - 1.0
    rate = 0.5 * params.kappa
    with np.errstate(over="ignore"):
        if rate > 0.0:
            integral = special.gamma(a) * special.gammainc(a, rate * s) / rate**a
        else:
            integral = s**a / a * special.hyp1f1(a, a + 1.0, -rate * s)
    return 0.5 * (params.sigma * params.sigma) * hurst.alpha * float(integral)

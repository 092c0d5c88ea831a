"""Malliavin derivatives of the numerical solution and their continuous analogue.

For kappa > 0 the derivative of the node value X_n with respect to the
driving noise is piecewise constant in the perturbation time s: on
(t_{i-1}, t_i] it equals (sigma/2) * prod_{j=i..n} (1 - f'(X_j) h)^{-1}.
The continuous counterpart is (sigma/2) * exp(integral of f'(X) from s to t),
evaluated here by trapezoid quadrature along the node levels, for t = T and
s at every node.  Since each product factor is exp(f' h) to first order, the
two forms agree to O(h), which the harness verifies empirically.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UnsupportedRegimeError
from .model import CirParams, drift_derivative
from .scheme import step_constants

__all__ = ["malliavin_terminal_forms"]


def malliavin_terminal_forms(
    levels: np.ndarray, step: float, params: CirParams
) -> tuple[np.ndarray, np.ndarray]:
    """Product and exponential derivative forms of X_N for a batch of paths.

    `levels` holds node values X_0..X_N, shape (paths, N+1).  Column i-1 of
    each (paths, N) result belongs to s = t_i: the profile value on
    (t_{i-1}, t_i], and (sigma/2) * exp(trapezoid integral of f' over
    [t_i, t_N]).  Each row is bit-identical to a computation on it alone.
    The profile of an earlier node X_n is the product form of levels[:, :n+1];
    for kappa > 0 its values lie in (0, sigma/2] and are nondecreasing in i.
    """
    # The product formula is established only for kappa > 0, where every
    # factor 1 - f'(X_j) h exceeds 1; no claim is made for kappa < 0.
    if params.kappa <= 0.0:
        raise UnsupportedRegimeError(
            f"Malliavin derivative formulas require kappa > 0, got {params.kappa}"
        )
    step_constants(step, params)
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2 or levels.shape[1] < 2:
        raise DomainError(f"levels must have shape (paths, N+1) with N >= 1, got {levels.shape}")
    slopes = drift_derivative(levels, params)
    factors = 1.0 / (1.0 - slopes[:, 1:] * step)
    product = 0.5 * params.sigma * np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
    # trapezoid of f' over [t_i, t_N] for i = 1..N, via a reversed cumsum
    tail_sums = np.cumsum(slopes[:, ::-1], axis=1)[:, ::-1]
    trapezoids = step * (tail_sums[:, 1:] - 0.5 * (slopes[:, 1:] + slopes[:, -1:]))
    return product, 0.5 * params.sigma * np.exp(trapezoids)


"""Malliavin derivatives of the numerical solution and their continuous analogue.

For kappa > 0 the derivative of the node value X_n with respect to the
driving noise is piecewise constant in the perturbation time s: on
(t_{i-1}, t_i] it equals (sigma/2) * prod_{j=i..n} (1 - f'(X_j) h)^{-1}.
The continuous counterpart is (sigma/2) * exp(integral of f'(X) from s to t),
evaluated here by trapezoid quadrature along supplied path levels.  Since
each product factor is exp(f' h) to first order, the two forms agree to
O(h), which the harness verifies empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRegimeError
from .fbm import GridSpec
from .model import CirParams, drift_derivative
from .scheme import SolutionPath

__all__ = [
    "MalliavinProfile",
    "malliavin_profile",
    "malliavin_terminal_forms",
    "malliavin_interpolated",
    "malliavin_exponential_form",
]


def _require_positive_kappa(params: CirParams) -> None:
    # The product formula is established only for kappa > 0, where every
    # factor 1 - f'(X_j) h exceeds 1; no claim is made for kappa < 0.
    if params.kappa <= 0.0:
        raise UnsupportedRegimeError(
            f"Malliavin derivative formulas require kappa > 0, got {params.kappa}"
        )


@dataclass(frozen=True, eq=False)
class MalliavinProfile:
    """Derivative of node value X_n in the perturbation time s.

    values[i-1] applies on the interval (t_{i-1}, t_i], i = 1..n; the
    derivative vanishes for s > t_n.  For kappa > 0 every value lies in
    (0, sigma/2] and the sequence is nondecreasing in i.
    """

    path: SolutionPath
    node: int
    values: np.ndarray

    def value_at(self, s: float) -> float:
        grid = self.path.grid
        if s < 0.0 or s > grid.horizon:
            raise DomainError(f"s must lie in [0, {grid.horizon}]")
        if s > grid.node(self.node):
            return 0.0
        if s == 0.0:
            return float(self.values[0])
        interval = int(np.searchsorted(grid.nodes(), s, side="left"))
        return float(self.values[interval - 1])


def malliavin_terminal_forms(
    levels: np.ndarray, step: float, params: CirParams
) -> tuple[np.ndarray, np.ndarray]:
    """Product and exponential derivative forms of X_N for a batch of paths.

    `levels` holds node values X_0..X_N, shape (paths, N+1).  Column i-1 of
    each (paths, N) result belongs to s = t_i: the profile value on
    (t_{i-1}, t_i], and (sigma/2) * exp(trapezoid integral of f' over
    [t_i, t_N]).  Each row is bit-identical to a computation on it alone.
    """
    _require_positive_kappa(params)
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


def malliavin_profile(path: SolutionPath, node: int) -> MalliavinProfile:
    """Piecewise-constant derivative profile of X_n, by one backward sweep."""
    if not 1 <= node <= path.grid.steps:
        raise DomainError(f"node must lie in 1..{path.grid.steps}, got {node}")
    product, _ = malliavin_terminal_forms(path.x[None, : node + 1], path.grid.step, path.params)
    return MalliavinProfile(path=path, node=node, values=product[0])


def malliavin_interpolated(path: SolutionPath, t: float, s: float) -> float:
    """Derivative of the interpolated solution at time t in direction s.

    Convex combination of the profiles at the two panel endpoints:
    (t_{n+1} - t)/h * G_n(s) on [0, t_n] plus (t - t_n)/h * G_{n+1}(s) on
    [0, t_{n+1}], zero beyond.
    """
    _require_positive_kappa(path.params)
    grid = path.grid
    if t < 0.0 or t > grid.horizon:
        raise DomainError(f"t must lie in [0, {grid.horizon}]")
    if s < 0.0 or s > grid.horizon:
        raise DomainError(f"s must lie in [0, {grid.horizon}]")
    if t == 0.0:
        return 0.0
    nodes = grid.nodes()
    n = int(np.searchsorted(nodes, t, side="left")) - 1
    h = grid.step
    weight_next = (t - nodes[n]) / h
    weight_prev = (nodes[n + 1] - t) / h
    # X_0 is deterministic, so the n = 0 profile is identically zero.
    prev = malliavin_profile(path, n).value_at(s) if n >= 1 else 0.0
    nxt = malliavin_profile(path, n + 1).value_at(s)
    return weight_prev * prev + weight_next * nxt


def malliavin_exponential_form(
    levels: np.ndarray,
    grid: GridSpec,
    s: float,
    t: float,
    params: CirParams,
) -> float:
    """(sigma/2) * exp(integral of f'(level) from s to t), trapezoid rule.

    `levels` are strictly positive values on the grid nodes; levels at s and
    t themselves are filled in by linear interpolation.  Returns 0 for s > t
    and sigma/2 for s == t.  For kappa > 0 the result lies in [0, sigma/2]:
    the exp of a trapezoid integral below about -745 underflows to 0.
    """
    if s > t:
        return 0.0
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.shape[0] != grid.steps + 1:
        raise DomainError(
            f"levels must hold {grid.steps + 1} node values, got shape {levels.shape}"
        )
    if np.any(levels <= 0.0):
        raise DomainError("levels must be strictly positive")
    for name, value in (("s", s), ("t", t)):
        if value < 0.0 or value > grid.horizon:
            raise DomainError(f"{name} must lie in [0, {grid.horizon}]")
    if s == t:
        return 0.5 * params.sigma

    nodes = grid.nodes()
    inside = nodes[(nodes > s) & (nodes < t)]
    times = np.concatenate([[s], inside, [t]])
    values = np.interp(times, nodes, levels)
    slopes = drift_derivative(values, params)
    integral = np.sum(np.diff(times) * (slopes[1:] + slopes[:-1]) / 2.0)
    return 0.5 * params.sigma * float(np.exp(integral))

"""Backward Euler scheme for the square-root-transformed CIR equation.

Each implicit step X_{n+1} = X_n + f(X_{n+1}) h + sigma*dB/2 reduces to a
quadratic with a unique positive root whenever h*max(0, -kappa/2) < 1, so
the scheme is explicit in practice and every node stays strictly positive.
The rate process is recovered at the nodes by squaring.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedRegimeError
from .fbm import GridSpec, HurstParameter, sample_fbm_circulant
from .model import CirParams, drift

__all__ = [
    "max_stable_step",
    "backward_euler_step",
    "simulate_path",
    "simulate_batch",
    "residuals",
]


def max_stable_step(params: CirParams) -> float:
    """Smallest double h with h*max(0, -kappa/2) >= 1 in floating point.

    The implicit step admits exactly the steps below it, as `_root_constants`
    checks them, bit for bit.  inf when no double reaches 1 (kappa >= 0).  The
    convergence analysis asks for h*max(0, -kappa/2) < 1 - xi with some xi in
    (0, 1); every admitted step meets that with xi = 1 - h*max(0, -kappa/2) > 0.
    """
    rate = max(0.0, -0.5 * params.kappa)
    if rate == 0.0:
        return math.inf
    # 1/rate is within a double or two of the answer; the rounded product is
    # monotone in h, so step to the first double at which it reaches 1
    limit = 1.0 / rate
    while limit * rate < 1.0:
        limit = math.nextafter(limit, math.inf)
    while math.nextafter(limit, 0.0) * rate >= 1.0:
        limit = math.nextafter(limit, 0.0)
    return limit


def _root_constants(step: float, params: CirParams) -> tuple[float, float]:
    """Checked constants (c, denom) of the quadratic each implicit step solves."""
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")
    if step * max(0.0, -0.5 * params.kappa) >= 1.0:
        raise DomainError(
            f"step {step} violates h*max(0, -kappa/2) < 1 for kappa={params.kappa}"
        )
    denom = 2.0 + params.kappa * step
    c = params.kappa * step * params.theta * denom
    if not 0.0 < c < math.inf:  # positive in exact arithmetic: kappa*theta > 0, denom > 0
        raise NumericalError(
            f"kappa*h*theta*(2 + kappa*h) = {c} for kappa={params.kappa}, theta={params.theta}, "
            f"h={step}: the product under- or overflows double precision"
        )
    return c, denom


def _positive_root(a, c: float, denom: float):
    """Positive root of (2 + kappa*h) X^2 - 2 a X - kappa*theta*h = 0.

    c = kappa*h*theta*(2 + kappa*h) > 0 and denom = 2 + kappa*h > 0 under the
    step constraint.  For a < 0 the textbook form (a + sqrt(a^2 + c)) / denom
    cancels catastrophically, so the conjugate form c / (sqrt(a^2 + c) - a)
    is used there instead.  Both branches share s = |a| + sqrt(a^2 + c) >=
    sqrt(c) > 0, bit for bit, so the unused branch never divides by zero.
    """
    s = np.abs(a) + np.sqrt(a * a + c)
    return np.where(a >= 0.0, s, c / s) / denom


def backward_euler_step(
    x_n: float, increment: float, step: float, params: CirParams
) -> float:
    """One implicit step from x_n > 0 driven by a noise increment.

    Returns the unique positive solution of
    x = x_n + (kappa*theta/(2x) - kappa*x/2) * step + sigma*increment/2.
    """
    if x_n <= 0.0:
        raise DomainError(f"x_n must be strictly positive, got {x_n}")
    c, denom = _root_constants(step, params)
    a = x_n + 0.5 * params.sigma * increment
    return float(_positive_root(a, c, denom))


# Steps per chunk of `simulate_batch`: three (chunk, paths) buffers stay in
# cache, and the chunk is the unit of the a < 0 re-solve.
_CHUNK_STEPS = 64


def simulate_batch(noise: np.ndarray, step: float, params: CirParams) -> np.ndarray:
    """Overwrite each row of fBm levels with the backward Euler levels it drives.

    noise is a 2-D float64 array, shape (paths, N+1), of each path's driving
    fBm at the grid nodes, in any memory layout; each row is replaced by the
    path's levels, x0 first, and noise is returned.  Each path gets the bits of a
    scalar `backward_euler_step` loop over `np.diff` of its row, so batching
    (and any chunking of a batch across workers) never changes results.

    The steps run in chunks of `_CHUNK_STEPS`.  A chunk's noise columns are
    copied into a step-major (chunk, paths) buffer, so every step reads and
    writes contiguous rows, and differenced as `np.diff` does into a second
    one, scaled by sigma/2; the column before the chunk, which the previous
    chunk's write-back overwrote, is carried in a vector.  Each step takes the
    a >= 0 branch of `_positive_root` in place, as six ufunc calls with
    positional outputs on row views made once per call: at a few hundred
    paths a step costs as much in call overhead as in arithmetic.  A chunk
    in which some a < 0 is solved again from its start level with
    `_positive_root` itself.  A level that is not finite and positive (a*a
    overflows for |a| > ~1.3e154) raises NumericalError, with the chunks
    before it written back.  Working memory beyond the noise is three
    (chunk, paths) buffers, whatever N is.
    """
    if not isinstance(noise, np.ndarray):
        raise DomainError(f"noise must be a 2-D float64 array of fBm levels, got {type(noise)}")
    if noise.ndim != 2 or noise.dtype != np.float64 or noise.shape[1] < 1:
        raise DomainError(
            "noise must be a 2-D float64 array of fBm levels, shape (paths, N+1), got "
            f"{noise.dtype} of shape {noise.shape}"
        )
    c, denom = _root_constants(step, params)
    half_sigma = 0.5 * params.sigma

    width, n_steps = noise.shape[0], noise.shape[1] - 1
    carry = noise[:, 0].copy()
    noise[:, 0] = params.x0
    buffers = np.empty((3, _CHUNK_STEPS, width))
    rows = [list(buffer) for buffer in buffers]
    disc = np.empty(width)
    start = np.full(width, params.x0)
    add, multiply, sqrt, divide = np.add, np.multiply, np.sqrt, np.divide
    # a ufunc converts a Python float operand on every call, a 0-d array not
    c_array, denom_array = np.array(c), np.array(denom)
    for first in range(0, n_steps, _CHUNK_STEPS):
        size = min(_CHUNK_STEPS, n_steps - first)
        scaled, a, levels = buffers[:, :size]
        levels[:] = noise[:, first + 1 : first + size + 1].T
        np.subtract(levels[0], carry, out=scaled[0])
        np.subtract(levels[1:], levels[:-1], out=scaled[1:])
        carry[:] = levels[-1]
        scaled *= half_sigma
        scaled_rows, a_rows, level_rows = (chunk_rows[:size] for chunk_rows in rows)
        level = start
        for scaled_k, a_k, next_level in zip(scaled_rows, a_rows, level_rows):
            add(scaled_k, level, a_k)
            multiply(a_k, a_k, disc)
            add(disc, c_array, disc)
            sqrt(disc, disc)
            add(disc, a_k, disc)
            divide(disc, denom_array, next_level)
            level = next_level
        if (a < 0.0).any():
            level = start
            for scaled_k, next_level in zip(scaled_rows, level_rows):
                next_level[:] = _positive_root(level + scaled_k, c, denom)
                level = next_level
        valid = (levels > 0.0) & (levels < math.inf)
        if not valid.all():
            k, path = np.argwhere(~valid)[0]
            raise NumericalError(
                f"backward Euler level {levels[k, path]} at step {first + k + 1} of path "
                f"{path} is not finite and positive: the implicit step overflows"
            )
        noise[:, first + 1 : first + size + 1] = levels.T
        start[:] = levels[-1]
    return noise


def simulate_path(
    grid: GridSpec, hurst: HurstParameter, params: CirParams, seed: int
) -> np.ndarray:
    """Levels x_0..x_N of one path on grid, driven by circulant fBm from seed; needs H > 1/2.

    The analysis behind the scheme treats the equation pathwise via
    Riemann-Stieltjes integration, which needs H > 1/2; rougher noise is
    refused outright, before any draw, rather than warned about.  The path
    is row 0 of `simulate_batch` over `sample_fbm_circulant(grid, hurst,
    [seed])`.
    """
    if not hurst.long_memory:
        raise UnsupportedRegimeError(
            f"the solver requires driving noise with H > 1/2, got H={hurst.value}"
        )
    return simulate_batch(sample_fbm_circulant(grid, hurst, [seed]), grid.step, params)[0]


def residuals(x: np.ndarray, noise: np.ndarray, step: float, params: CirParams) -> np.ndarray:
    """Implicit-relation residual at every step, for verification.

    x holds the levels x_0..x_N of one path and noise its driving fBm at the
    same nodes.  Entry n is x[n+1] - x[n] - f(x[n+1]) h - sigma*dB_{n+1}/2,
    which should vanish to rounding for paths produced by this scheme.
    """
    if np.shape(x) != np.shape(noise):
        raise DomainError(
            f"noise and solution must share a grid, got shapes {np.shape(noise)} and "
            f"{np.shape(x)}"
        )
    x_next = x[1:]
    return x_next - x[:-1] - drift(x_next, params) * step - 0.5 * params.sigma * np.diff(noise)

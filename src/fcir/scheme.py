"""Backward Euler scheme for the square-root-transformed CIR equation.

Each implicit step X_{n+1} = X_n + f(X_{n+1}) h + sigma*dB/2 reduces to a
quadratic with a unique positive root whenever h*max(0, -kappa/2) < 1, so
the scheme is explicit in practice and every node stays strictly positive.
The rate process is recovered at the nodes by squaring.  The noise comes
from the caller (the studies in `experiments`): this module draws none.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError
from .model import CirParams

# `step_constants` and `step_margin` are public too, and `fcir` re-exports
# `step_constants`; they are left out of `__all__` because the benchmark
# tracer times every listed function as a layer of its own, while each is a
# part of the function that calls it.
__all__ = ["simulate_batch"]


def step_margin(step: float, params: CirParams) -> float:
    """The step margin xi = 1 - step*max(0, -kappa/2) of one step.

    A step is admitted when xi > 0 (see `step_constants`).  For kappa < 0
    each implicit step amplifies its input by 2/(2 + kappa*step) = 1/xi,
    which grows without bound as xi goes to 0; for kappa > 0, xi = 1.
    """
    return 1.0 - step * max(0.0, -0.5 * params.kappa)


def step_constants(step: float, params: CirParams) -> tuple[float, float]:
    """Checked constants (c, denom) of the quadratic each implicit step solves.

    The scheme's one statement of its step rule: it admits a finite step > 0
    with step*max(0, -kappa/2) < 1 in floating point and raises DomainError
    otherwise.  denom = 2 + kappa*step is then positive, and so is c =
    kappa*step*theta*denom in exact arithmetic; a c that under- or overflows
    raises NumericalError.  The solver, the studies' config and the Malliavin
    forms all call it, so they refuse the same steps.  The convergence
    analysis asks for step*max(0, -kappa/2) <= 1 - xi with some fixed xi in
    (0, 1], which an admitted step meets with its `step_margin` as xi.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")
    if step_margin(step, params) <= 0.0:
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


# Steps per chunk of `simulate_batch`: three (chunk, paths) buffers stay in
# cache, and the chunk is the unit of the a < 0 re-solve.
_CHUNK_STEPS = 64


def simulate_batch(noise: np.ndarray, step: float, params: CirParams) -> np.ndarray:
    """Overwrite each row of fBm levels with the backward Euler levels it drives.

    noise is a 2-D float64 array, shape (paths, N+1), of each path's driving
    fBm at the grid nodes, in any memory layout; each row is replaced by the
    path's levels, x0 first, and noise is returned.  Each path gets the bits of
    a scalar loop of `_positive_root` over `np.diff` of its row, so batching
    (and any chunking of a batch across workers) never changes results.

    The steps run in chunks of `_CHUNK_STEPS`.  A chunk's noise columns are
    copied into a step-major (chunk, paths) buffer, so every step reads and
    writes contiguous rows, and differenced as `np.diff` does into a second
    one, scaled by sigma/2; the column before the chunk, which the previous
    chunk's write-back overwrote, is carried in a vector.  Each step takes the
    a >= 0 branch of `_positive_root` in place, as six ufunc calls with
    positional outputs on row views made once per call: at a few hundred
    paths a step costs as much in call overhead as in arithmetic.  A single
    path takes the root through two buffers instead, as numpy runs an
    in-place ufunc on one element twice as slowly.  A chunk
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
    c, denom = step_constants(step, params)
    half_sigma = 0.5 * params.sigma

    width, n_steps = noise.shape[0], noise.shape[1] - 1
    carry = noise[:, 0].copy()
    noise[:, 0] = params.x0
    buffers = np.empty((3, _CHUNK_STEPS, width))
    rows = [list(buffer) for buffer in buffers]
    disc = np.empty(width)
    # numpy runs a ufunc that writes over its own input twice as slowly on a
    # one-element array (about 1.0 against 0.45 us a call), so one path
    # alternates between two buffers; wider batches work in place
    s = disc if width > 1 else np.empty(1)
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
            add(disc, c_array, s)
            sqrt(s, disc)
            add(disc, a_k, s)
            divide(s, denom_array, next_level)
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


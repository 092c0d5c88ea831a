"""Exact sampling of fractional Brownian motion (fBm) on uniform grids.

One exact path sampler is provided: circulant embedding (Davies & Harte
1987; Dietrich & Newsam 1997), O(N log N) a path, builds the N+1 bins of a
Hermitian Gaussian spectrum over the 2N embedding, takes its first N
increments from one real-output FFT (`np.fft.irfft`) and recovers the
levels by prefix sums.  It works on the covariance of the
fractional-Gaussian-noise (fGn) increments rather than that of the levels:
it is Toeplitz and far better conditioned.  The terminal value B(T) alone
has the law N(0, T^2H) whatever the grid, so its exact draw is T^H times
one normal a path, which serves the cross-check of the path sampler.

Randomness is frozen to NumPy's PCG64 bit generator with its ziggurat
``standard_normal``.  A given (grid, H, seed) triple therefore reproduces
the same path bit-for-bit on a given platform, which the Monte Carlo
harness relies on for matched-path experiments.  Each path's generator is
seeded from numpy's SeedSequence hash of its seed (mod 2^64), computed for
a whole block of seeds at once, so its state equals that of `PCG64(seed)`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedRegimeError

__all__ = [
    "HurstParameter",
    "GridSpec",
    "fbm_covariance",
    "fgn_autocovariance",
    "sample_fbm_terminals",
    "sample_fbm_circulant",
    "holder_statistic",
]

# Relative tolerance on negative embedding eigenvalues: anything in
# [-EMBEDDING_EIG_TOL * lambda_max, 0) is rounding noise and is clamped; a
# lower eigenvalue means the embedding cannot give an exact sample.
EMBEDDING_EIG_TOL = 1e-8

# The Hoelder statistic measures (H - HOLDER_EPSILON)-Hoelder quotients, so it
# is defined for H > HOLDER_EPSILON only.
HOLDER_EPSILON = 0.1

# Largest step count whose steps + 1 float64 nodes numpy can size.
_MAX_STEPS = np.iinfo(np.intp).max // 8 - 1


@dataclass(frozen=True)
class HurstParameter:
    """Hurst index H of the driving noise, constrained to (0, 1).

    Every function of fcir takes H as this type; it is frozen.
    """

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < float(self.value) < 1.0:
            raise DomainError(f"Hurst parameter must lie in (0, 1), got {self.value}")
        object.__setattr__(self, "value", float(self.value))

    @property
    def alpha(self) -> float:
        """H(2H - 1), the prefactor of the covariance density; positive iff H > 1/2."""
        return self.value * (2.0 * self.value - 1.0)

    def require_long_memory(self) -> None:
        """Refuse H <= 1/2, which the scheme's pathwise analysis does not cover."""
        if not self.value > 0.5:
            raise UnsupportedRegimeError(
                f"the solver requires driving noise with H > 1/2, got H={self.value}"
            )

    def holder_exponent(self) -> float:
        """H - HOLDER_EPSILON, the exponent of the Hoelder statistic; refused unless positive."""
        exponent = self.value - HOLDER_EPSILON
        if not exponent > 0.0:
            raise DomainError(
                f"the Hoelder statistic needs H > {HOLDER_EPSILON}, got H = {self.value}: "
                f"it measures (H - {HOLDER_EPSILON})-Hoelder quotients"
            )
        return exponent


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid t_n = n * step on [0, horizon] with `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not float(self.horizon) > 0.0 or not np.isfinite(self.horizon):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise DomainError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "steps", int(self.steps))
        if self.steps > _MAX_STEPS:
            raise DomainError(
                f"{self.steps} steps are too many: numpy cannot size an array of "
                f"{self.steps + 1} float64 nodes"
            )

    @classmethod
    def dyadic(cls, horizon: float, exponent: int) -> GridSpec:
        """Grid with 2^exponent steps; the exponent is checked before 2^exponent is formed."""
        if exponent < 0:
            raise DomainError(f"2^{exponent} steps: a grid exponent must be at least 0")
        if exponent >= _MAX_STEPS.bit_length():
            raise DomainError(
                f"2^{exponent} steps are too many: numpy cannot size an array of "
                f"2^{exponent} + 1 float64 nodes"
            )
        return cls(horizon, 2**exponent)

    @property
    def step(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return self.step * np.arange(self.steps + 1)


def fbm_covariance(t, s, hurst: HurstParameter):
    """Covariance of fBm at times (t, s): (t^2H + s^2H - |t-s|^2H) / 2.

    Takes scalars or broadcastable arrays and returns numpy values of their
    broadcast shape (an np.float64 for two scalars); symmetric in (t, s).
    """
    H2 = 2.0 * hurst.value
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(s < 0.0):
        raise DomainError("fbm_covariance requires nonnegative times")
    return 0.5 * (t**H2 + s**H2 - np.abs(t - s) ** H2)


def fgn_autocovariance(lag, step: float, hurst: HurstParameter):
    """Autocovariance of unit-grid fBm increments at the given lag(s), in their shape.

    Equals (step^2H / 2) * (|k+1|^2H - 2|k|^2H + |k-1|^2H), the covariance of
    increments over [n*step, (n+1)*step] and [(n+k)*step, (n+k+1)*step].
    """
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")
    H2 = 2.0 * hurst.value
    k = np.asarray(lag, dtype=float)
    if np.any(k < 0):
        raise DomainError("lag must be nonnegative")
    try:
        scale = 0.5 * step**H2
    except OverflowError:
        raise NumericalError(
            f"fGn covariance scale step^(2H) overflows double precision at step "
            f"{step:g} (horizon / steps) and H = {H2 / 2.0}: use a smaller horizon"
        ) from None
    return scale * ((k + 1.0) ** H2 - 2.0 * k**H2 + np.abs(k - 1.0) ** H2)


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).  Each
# `hashmix` call XORs its word with the hash constant and multiplies it by the
# next one, so the constant sequences are fixed: _HASH_A for the mixing of the
# 4-word pool, _HASH_B for the output words.
_HASH_A = np.array([0x43B0D7E5 * 0x931E8875**k % 2**32 for k in range(17)], dtype=np.uint32)
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**k % 2**32 for k in range(9)], dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, k: int) -> np.ndarray:
    """SeedSequence's `hashmix` of row i of words with constant k + i of _HASH_A."""
    out = words ^ _HASH_A[k : k + len(words), None]
    out *= _HASH_A[k + 1 : k + 1 + len(words), None]
    out ^= out >> 16
    return out


def _seed_words(seeds) -> np.ndarray:
    """The four uint64 words `SeedSequence(seed % 2**64).generate_state(4, uint64)` per seed.

    Returns shape (len(seeds), 4).  A seed below 2^64 has the entropy words
    [low, high] (one word below 2^32); padding them with zeros to the pool
    size of 4 hashes them the same.  SeedSequence's steps run over all seeds
    at once: `mix_entropy` hashes the pool, then hashes each pool word in
    turn and mixes it into the three others; `generate_state` hashes 8
    uint32 words out of the pool, two per uint64.
    """
    wrapped = np.fromiter((int(seed) % 2**64 for seed in seeds), np.uint64, len(seeds))
    pool = np.zeros((4, len(wrapped)), dtype=np.uint32)
    pool[0] = wrapped & np.uint64(0xFFFFFFFF)
    pool[1] = wrapped >> np.uint64(32)
    pool = _hashmix(pool, 0)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        mixed = pool[others] * _MIX_L - _hashmix(pool[[src] * 3], 4 + 3 * src) * _MIX_R
        mixed ^= mixed >> 16
        pool[others] = mixed
    words = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8, None]
    words *= _HASH_B[1:, None]
    words ^= words >> 16
    words = words.astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


@lru_cache(maxsize=1)
def _fixed_seed_sequence() -> type:
    # numpy.random is imported here, not at module level, so `import fcir`
    # does not pay for it
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedSequence(ISeedSequence):
        """Hands PCG64 the four uint64 words it asks for, computed by `_seed_words`."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedSeedSequence


def _generators(seeds) -> Iterator[np.random.Generator]:
    """One frozen variate source per seed, made as it is drawn: PCG64 + ziggurat standard_normal.

    Generator i has the state of `Generator(PCG64(seeds[i] % 2**64))`; this is
    where the seed rule's 64-bit wrap is applied.  The seed words of the whole
    block are hashed at once, before the iterator is returned, so a seed that
    `int` refuses fails at the call; each generator is then made only
    when the iterator reaches it, so a sampler holds the generators of one
    tile, not of every seed.  Changing this silently changes every seeded
    path, so treat it as part of the contract.
    """
    from numpy.random import PCG64, Generator

    seed_sequence = _fixed_seed_sequence()
    words = _seed_words(seeds)
    return (Generator(PCG64(seed_sequence(row))) for row in words)


# The budget of `sample_fbm_circulant`'s tiles: a tile holds `_TILE_NODES`
# embedding nodes, 2N a row, or one row (sizes measured in ROADMAP.md,
# "Sampler tiles").
_TILE_NODES = 2**16


def sample_fbm_terminals(grid: GridSpec, hurst: HurstParameter, seeds) -> np.ndarray:
    """Exact fBm terminal values B(T), one per seed: T^H times the seed's first normal.

    Returns shape (paths,); any integer seed is taken mod 2^64.  B(T) has the
    law N(0, T^2H) on any grid, so each value is the first `standard_normal`
    of its seed's generator times T^H, a Python float taken once a call: one
    rounding a value, which therefore has the bits of a single draw whatever
    the other seeds are.  No path, covariance or factor is made.
    """
    scale = grid.horizon**hurst.value
    return np.fromiter((scale * rng.standard_normal() for rng in _generators(seeds)),
                       float, len(seeds))


def _embedding_coefficients(steps: int, step: float, hurst: HurstParameter) -> np.ndarray:
    """Each half-spectrum bin's normal scale, bins 0..N; NumericalError if the embedding is invalid.

    An fGn variance step^(2H) that underflows to 0 is refused first: the
    scale of the increments, step^H, is a double, so all-zero noise would be
    wrong, not rounded.  The 2N embedding's eigenvalues lambda are real and
    even: bins N+1..2N-1 mirror N-1..1.  Bins 0 and N take sqrt(lambda / 2N),
    and bins 1..N-1, a real and an imaginary normal each, that times
    sqrt(0.5).
    """
    gamma = fgn_autocovariance(np.arange(steps + 1), step, hurst)
    if gamma[0] == 0.0:
        raise NumericalError(
            f"fGn variance step^(2H) underflows to 0 at step {step:g} (horizon / steps) and "
            f"H = {hurst.value}: use a larger horizon"
        )
    eigenvalues = np.fft.rfft(np.concatenate([gamma, gamma[1:-1][::-1]])).real
    lam_min, lam_max = eigenvalues.min(), eigenvalues.max()
    if lam_min < -EMBEDDING_EIG_TOL * lam_max:
        raise NumericalError(
            f"circulant embedding of fGn for N={steps}, H={hurst.value} is not nonnegative "
            f"definite: min/max eigenvalue ratio {lam_min / lam_max:.3g} is below the "
            f"tolerance -{EMBEDDING_EIG_TOL:g}; use fewer steps or a smaller H"
        )
    scales = np.clip(eigenvalues, 0.0, None)
    np.sqrt(np.divide(scales, 2.0 * steps, out=scales), out=scales)
    scales[1:steps] *= np.sqrt(0.5)
    return scales


def sample_fbm_circulant(grid: GridSpec, hurst: HurstParameter, seeds) -> np.ndarray:
    """Exact fBm levels for every seed via circulant embedding of the fGn covariance.

    Returns one row per seed, shape (paths, N+1), each starting at 0, with
    any integer seed taken mod 2^64: the exact fBm law in O(N log N) per
    path.  Each path's Gaussian spectrum is Hermitian, so only its N+1 bins
    are built and one real-output FFT of length 2N turns them into the
    path's increments (its first N outputs).  A tile of a few rows
    is transformed at a time with the arithmetic of a single path, so each
    row has the same bits whatever the other seeds are.  Every call makes the
    embedding, at about the cost of one path's draw (0.9 ms at 2^14 steps),
    which a study pays once a block and a loop of one-path calls every call;
    an eigenvalue below -EMBEDDING_EIG_TOL * lambda_max raises NumericalError
    before the output is allocated.  A path holds 6 arrays of N doubles: the
    scales, the output, N+1 complex bins, and its 2N normals or FFT outputs.
    """
    n = grid.steps
    scales = _embedding_coefficients(n, grid.step, hurst)
    out = np.empty((len(seeds), n + 1))
    tile = max(1, min(len(seeds), _TILE_NODES // (2 * n)))
    # the imaginary parts of the DC and Nyquist bins stay 0
    spectrum = np.zeros((tile, n + 1), dtype=complex)
    out[:, 0] = 0.0
    generators = _generators(seeds)
    for first in range(0, len(seeds), tile):
        st = spectrum[: min(tile, len(seeds) - first)]
        z = np.empty((len(st), 2 * n))
        for i, rng in enumerate(islice(generators, len(st))):
            rng.standard_normal(out=z[i])
        # The conjugate of a Hermitian complex Gaussian spectrum, with a frozen
        # layout: z[0] -> DC, z[1] -> Nyquist, then all real parts, then all
        # imaginary parts (negated).  Its inverse real FFT is the forward
        # complex FFT of the full spectrum.  z * -b and -(z * b) are the same
        # double, so the imaginary parts are negated in place.
        np.multiply(z[:, 0], scales[0], out=st.real[:, 0])
        np.multiply(z[:, 1], scales[n], out=st.real[:, n])
        np.multiply(z[:, 2 : n + 1], scales[1:n], out=st.real[:, 1:n])
        np.multiply(z[:, n + 1 :], scales[1:n], out=st.imag[:, 1:n])
        np.negative(st.imag[:, 1:n], out=st.imag[:, 1:n])
        # the normals are freed before the transform's output is made, and
        # that unnamed output before the next tile's normals: a tile holds two
        # of its three arrays at once
        del z
        np.cumsum(np.fft.irfft(st, 2 * n, axis=1, norm="forward")[:, :n], axis=1,
                  out=out[first : first + len(st), 1:])
    return out


def holder_statistic(levels: np.ndarray, grid: GridSpec, hurst: HurstParameter) -> np.ndarray:
    """Empirical (H - HOLDER_EPSILON)-Hoelder quotient of each row of fBm levels.

    levels has shape (paths, N+1).  Entry i is the max over lags k in {1, 2,
    4, ...} and nodes n of |B(t_{n+k}) - B(t_n)| / (k h)^(H - HOLDER_EPSILON)
    along row i.  Finite per path; its distribution stabilizes as the grid is
    refined because the trajectories are (H - HOLDER_EPSILON)-Hoelder
    continuous.  The running maximum skips nan as Python's `max` does, so
    every row has the bits of a path-by-path loop.
    """
    if np.ndim(levels) != 2 or np.shape(levels)[1] != grid.steps + 1:
        raise DomainError(
            f"levels must have shape (paths, {grid.steps + 1}) on a grid of {grid.steps} "
            f"steps, got {np.shape(levels)}"
        )
    exponent = hurst.holder_exponent()
    best = np.zeros(len(levels))
    gaps = np.empty((len(levels), grid.steps))
    k = 1
    while k <= grid.steps:
        gap = gaps[:, : grid.steps + 1 - k]
        np.subtract(levels[:, k:], levels[:, :-k], out=gap)
        np.abs(gap, out=gap)
        np.fmax(best, gap.max(axis=1) / (k * grid.step) ** exponent, out=best)
        k *= 2
    return best

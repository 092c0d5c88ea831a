"""Monte Carlo harness: seeded paths, matched-path convergence studies, moment curves.

All experiments share a common design: path i of a batch is driven by seed
base_seed + i (which the samplers take mod 2^64), the "exact" solution is the
same scheme run at a fine reference resolution, and coarse solutions are
driven by the same noise restricted to coarser grids.  The solver overwrites
the noise it is handed, so a block solves each coarse grid over a copy of its
restriction and the reference grid over the noise itself.  Paths run in
blocks whose size follows from the reference grid, and per-path results are
always reduced in ascending path index, so reports are bit-identical for any
block split and any number of workers.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FcirError, NumericalError, UnsupportedRegimeError
from .fbm import (
    GridSpec,
    HurstParameter,
    fbm_covariance,
    holder_statistic,
    sample_fbm_circulant,
    sample_fbm_terminals,
)
from .malliavin import malliavin_terminal_forms
from .model import CirParams, ConditionReport, check_moment_conditions
from .scheme import simulate_batch, step_constants

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "InverseMomentCurve",
    "MalliavinGapReport",
    "SamplerCheck",
    "check_fbm_samplers",
    "run_convergence",
    "simulate_paths",
    "estimate_inverse_moments",
    "malliavin_gap_study",
    "regress_order",
]

class SamplerCheck(NamedTuple):
    """One statistical check of the fBm samplers and whether it passed."""

    name: str
    statistic: float
    threshold: float
    passed: bool


def _ks_pvalue_equal_sizes(x: np.ndarray, y: np.ndarray) -> float:
    """Exact two-sided two-sample Kolmogorov-Smirnov p-value for samples of one size n.

    With h = max_t |#{x <= t} - #{y <= t}| over the pooled sample, it is
    P(D >= h/n) = 2 sum_{k>=1} (-1)^(k+1) C(2n, n-kh) / C(2n, n), summed in
    Horner form with the Python float operations, in the same order, of the
    exact method of scipy.stats.ks_2samp, and clipped to [0, 1] (at h = 1 the
    sum rounds above 1).  h = 0 gives 1.0 and a nan in either sample nan.
    """
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    gaps = np.searchsorted(x, pooled, side="right") - np.searchsorted(y, pooled, side="right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 1.0
    n = len(x)
    tail = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        tail = term * (1.0 - tail)
    return min(max(2 * tail, 0.0), 1.0)


# Nodes per row slice where a loop forms a few row-sized arrays at a time:
# `check_fbm_samplers`' covariance z-scores (about five arrays) and the gap
# kernel's derivative forms (about eight), 128 KB each.
_ROW_NODES = 2**14


def _row_slices(rows: int, nodes: int):
    """Consecutive slices of `rows` rows of `nodes` nodes, each within `_ROW_NODES` (or one row)."""
    step = max(1, _ROW_NODES // nodes)
    return (slice(first, first + step) for first in range(0, rows, step))


def _covariance_max_z(batch: np.ndarray, grid: GridSpec, hurst: HurstParameter) -> float:
    """Largest |empirical - exact| / spread over the nodes' covariance matrix of batch's rows.

    The empirical covariance is one matrix product; the exact covariance,
    the scale spread = sqrt((C_ii C_jj + C_ij^2) / m) and the z-scores are
    formed a `_row_slices` slice at a time, each row with the bits of the
    whole-matrix form.  A spread that is not finite anywhere is refused
    first, naming the largest spread (nan if any is), then a z-score that is
    not finite.
    """
    m = len(batch)
    nodes = grid.nodes()
    variances = fbm_covariance(nodes, nodes, hurst)
    empirical = batch.T @ batch
    empirical /= m
    spread_peaks, z_peaks, z_finite = [], [], True
    for block in _row_slices(len(nodes), len(nodes)):
        exact = fbm_covariance(nodes[block, None], nodes[None, :], hurst)
        spread = np.sqrt((np.outer(variances[block], variances) + exact**2) / m)
        diff = np.abs(empirical[block] - exact)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(spread > 0.0, diff / spread, np.where(diff > 0.0, np.inf, 0.0))
        spread_peaks.append(spread.max())
        z_peaks.append(z.max())
        z_finite = z_finite and bool(np.isfinite(z).all())
    # the max of the block maxima is the max of the matrix, nan if any entry is
    spread_max = np.max(spread_peaks)
    if not np.isfinite(spread_max):
        raise NumericalError(
            f"covariance z-score scale reads {spread_max} at horizon {grid.horizon}: the "
            "squared covariances overflow, so every z-score would read 0 and the sampler "
            "covariance cannot be checked"
        )
    if not z_finite:
        raise NumericalError(
            f"covariance z-scores are not finite at horizon {grid.horizon}: the squared "
            "covariances under- or overflow, so the sampler covariance cannot be checked"
        )
    return float(np.max(z_peaks))


def check_fbm_samplers(
    grid: GridSpec, hurst: HurstParameter, samples: int, base_seed: int
) -> tuple[SamplerCheck, ...]:
    """Statistical validation of the circulant sampler on a grid, against exact draws.

    Paths i < samples are exact draws of B(T) (`sample_fbm_terminals`, T^H
    times one normal) and the next `samples` circulant paths (seed
    base_seed + i), so the batches are independent.  Checks: terminal
    variance z-scores, the largest covariance z-score, a two-sample KS test
    of the circulant terminal values against the exact draws, and the
    99th-percentile Hoelder statistic under refinement.  The last needs H >
    HOLDER_EPSILON, which `HurstParameter.holder_exponent` checks before any
    draw.  The KS p-value of the terminal values is exact for every sample
    size (see `_ks_pvalue_equal_sizes`; no asymptotic form above 10 000
    samples), and a nan terminal value makes it nan, so that check fails.
    The covariance z-scores are formed in `_ROW_NODES` row slices
    (`_covariance_max_z`) with the bits of the unsliced form.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    hurst.holder_exponent()
    m = samples
    try:
        terminal_var = grid.horizon ** (2.0 * hurst.value)
    except OverflowError:
        raise NumericalError(
            f"terminal variance horizon^(2H) overflows double precision at horizon "
            f"{grid.horizon:g} and H = {hurst.value}: use a smaller horizon"
        ) from None
    # The circulant batch is drawn first: its embedding refuses an fGn variance
    # step^(2H) that underflows to 0 before any draw, and with it every
    # horizon^(2H) that does, as step <= horizon.
    circ = sample_fbm_circulant(grid, hurst, range(base_seed + m, base_seed + 2 * m))
    exact_terminal = sample_fbm_terminals(grid, hurst, range(base_seed, base_seed + m))
    checks = []
    se_var = terminal_var * np.sqrt(2.0 / m)
    for name, terminal in (("exact", exact_terminal), ("circulant", circ[:, -1])):
        z = float(abs(float(np.mean(terminal**2)) - terminal_var) / se_var)
        checks.append(SamplerCheck(f"{name}_terminal_variance_z", z, 5.0, z <= 5.0))

    max_z = _covariance_max_z(circ, grid, hurst)
    checks.append(SamplerCheck("covariance_max_z", max_z, 5.0, max_z <= 5.0))

    pvalue = _ks_pvalue_equal_sizes(exact_terminal, circ[:, -1])
    checks.append(SamplerCheck("cross_sampler_ks_pvalue", pvalue, 0.01, pvalue >= 0.01))

    quotients = []
    seeds = range(base_seed + 2 * m, base_seed + 2 * m + 100)
    for steps in (grid.steps, 2 * grid.steps):
        fine = GridSpec(grid.horizon, steps)
        # no name holds a batch, so it is freed before the next one is drawn
        statistic = holder_statistic(sample_fbm_circulant(fine, hurst, seeds), fine, hurst)
        quotients.append(float(np.percentile(statistic, 99)))
    ratio = max(quotients) / min(quotients)
    checks.append(SamplerCheck("holder_p99_stability", ratio, 2.0, ratio <= 2.0))
    return tuple(checks)


# Reference-grid noise values per block of paths, the bound on working memory.
# Counted in nodes, not paths, because each block repeats the per-step loop of
# `simulate_batch`.  A block holds one noise-sized array plus the coarse levels
# solved from it: `simulate_batch` overwrites the fBm levels it is handed, so
# the convergence kernel and `_solve_block` solve the reference grid over the
# noise itself, and the gap kernel solves only copies of its restrictions to
# the coarse grids.  2^22 nodes (32 MB of noise) hold 255 paths of 2^14 + 1
# nodes, so the 400-path study at 2^14 steps runs as 2 blocks of 200 paths.
_BLOCK_NODES = 2**22


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the Monte Carlo experiments.

    The reference grid has 2^reference_exponent steps over the horizon; each
    coarse grid has 2^e steps and must embed in the reference grid (e <=
    reference_exponent; equality is the degenerate identical-grid case).  The
    reference step and every coarse step must pass `step_constants`, and H
    must exceed 1/2 (the scheme's pathwise Riemann-Stieltjes analysis needs
    it), so a config the solver would refuse is refused, with the solver's
    error, before any draw.
    """

    params: CirParams
    hurst: HurstParameter
    horizon: float
    reference_exponent: int
    coarse_exponents: tuple[int, ...]
    samples: int
    base_seed: int
    p: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "coarse_exponents", tuple(self.coarse_exponents))
        self.hurst.require_long_memory()
        reference = self.reference_grid  # GridSpec.dyadic checks the exponent
        if any(e < 0 or e > self.reference_exponent for e in self.coarse_exponents):
            raise DomainError(
                "coarse exponents must lie in [0, reference_exponent] so the "
                "coarse grids embed in the reference grid"
            )
        if len(set(self.coarse_exponents)) < len(self.coarse_exponents):
            raise DomainError(f"coarse exponents must be distinct, got {self.coarse_exponents}")
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if self.p < 1:
            raise DomainError(f"moment order p must be >= 1, got {self.p}")
        for step in (reference.step, *self.step_sizes()):
            step_constants(step, self.params)

    @property
    def reference_grid(self) -> GridSpec:
        return GridSpec.dyadic(self.horizon, self.reference_exponent)

    def coarse_grid(self, exponent: int) -> GridSpec:
        return GridSpec.dyadic(self.horizon, exponent)

    def step_sizes(self) -> tuple[float, ...]:
        return tuple(self.coarse_grid(e).step for e in self.coarse_exponents)

    def block_rows(self, workers: int) -> tuple[int, ...]:
        """Paths per block of the studies' paths, in path order.

        A block holds at most `_BLOCK_NODES` reference noise values (at least
        one path) and at most samples / workers paths, so every worker gets a
        block.  The paths go in the fewest blocks within both bounds, each of
        ceil(samples / blocks) paths but the last, which holds the rest: the
        largest block, which sets the peak memory, is as small as that block
        count allows.
        """
        per_path = self.reference_grid.steps + 1
        most = max(1, min(_BLOCK_NODES // per_path, -(-self.samples // max(1, workers))))
        blocks = -(-self.samples // most)
        rows = -(-self.samples // blocks)
        return tuple(min(rows, self.samples - start) for start in range(0, self.samples, rows))

    def processes(self, workers: int) -> int:
        """Processes that solve the blocks of `block_rows(workers)`: one a block, at most workers."""
        return min(max(1, workers), len(self.block_rows(workers)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step-size errors of a matched-path study plus the fitted orders.

    Four error families, keyed as in `_ERROR_FAMILIES`: sup over shared grid
    nodes and sup over all reference nodes (through the interpolant), each for
    the level process x and for the rate process r = x^2.  `rms` holds each
    family's (E[sup^p])^(1/p) per step size, and `fits` its log2-log2
    (slope, intercept), or None where no order can be fitted.
    """

    step_sizes: tuple[float, ...]
    rms: dict[str, tuple[float, ...]]
    fits: dict[str, tuple[float, float] | None]
    samples: int
    condition_checks: tuple[ConditionReport, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class InverseMomentCurve:
    """Estimates of E[x_n^(-p)]^(1/p) at every node of one grid.

    `condition_checks` holds the inverse-moment conditions of order p, and
    `warnings` a note for each that fails.
    """

    times: np.ndarray
    values: np.ndarray
    condition_checks: tuple[ConditionReport, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class MalliavinGapReport:
    """Mean absolute gap between the product and exponential derivative forms.

    One entry per step size; ratios[j] = mean_abs_gaps[j-1] / mean_abs_gaps[j]
    (nan for the first row).  profile_min/profile_max track the range of the
    product-form values across all paths and intervals at each step size.
    """

    step_sizes: tuple[float, ...]
    mean_abs_gaps: tuple[float, ...]
    ratios: tuple[float, ...]
    profile_min: tuple[float, ...]
    profile_max: tuple[float, ...]


def regress_order(step_sizes, errors) -> tuple[float, float]:
    """Least-squares fit of log2(error) against log2(step size), all finite and positive."""
    step_sizes = np.asarray(step_sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if step_sizes.shape != errors.shape or step_sizes.ndim != 1:
        raise DomainError("step sizes and errors must be 1-d arrays of equal length")
    for name, values in (("step sizes", step_sizes), ("errors", errors)):
        if not np.all((values > 0.0) & (values < math.inf)):  # nan fails both
            raise DomainError(f"order regression needs finite, positive {name}, got {values}")
    if np.unique(step_sizes).size < 2:
        raise DomainError(
            f"order regression needs at least two distinct step sizes, got {step_sizes}"
        )
    slope, intercept = np.polyfit(np.log2(step_sizes), np.log2(errors), 1)
    return float(slope), float(intercept)


def _map_blocks(block_fn, config: ExperimentConfig, workers: int):
    """Yield block_fn(config, noise) for the blocks of `config.block_rows`, in path order.

    The noise holds each path's levels at the reference nodes.  block_fn owns
    the noise array it is handed and may overwrite it; it returns a tuple of
    per-path arrays.  With one worker the blocks are computed as they are
    consumed; a pool worker that dies, as the OOM killer ends one, raises FcirError.
    Pool workers ignore Ctrl-C: the parent alone is interrupted, drops the
    queued blocks and waits for the running ones to finish.
    """
    rows = config.block_rows(workers)
    starts = range(0, config.samples, rows[0])
    task = partial(_sample_block, block_fn, config)
    workers = config.processes(workers)
    if workers == 1:
        yield from map(task, starts, rows)
    else:
        # imported here, not with the module, so that `import fcir` loads no
        # multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            yield from pool.map(task, starts, rows)
        except BrokenProcessPool as exc:
            raise FcirError(f"a worker of the {workers}-process pool ended abruptly, most likely "
                            "killed for lack of memory; run with fewer --workers") from exc
        finally:
            pool.shutdown(cancel_futures=True)


def _concatenated(blocks) -> list:
    """Each per-path output of the blocks joined over all paths in path order."""
    return [np.concatenate(parts, axis=0) for parts in zip(*blocks)]


def _sample_block(block_fn, config: ExperimentConfig, start: int, rows: int):
    """block_fn on the reference noise levels of paths start..start+rows-1."""
    seeds = range(config.base_seed + start, config.base_seed + start + rows)
    return block_fn(config, sample_fbm_circulant(config.reference_grid, config.hurst, seeds))


def _coarse_levels(config: ExperimentConfig, noise: np.ndarray):
    """Yield (grid, restriction factor, solved levels) per coarse exponent; noise is kept.

    The factor restricts the reference noise to the coarse grid's nodes.
    """
    for exponent in config.coarse_exponents:
        grid = config.coarse_grid(exponent)
        factor = (noise.shape[1] - 1) // grid.steps
        levels = simulate_batch(noise[:, ::factor].copy(), grid.step, config.params)
        yield grid, factor, levels


_ERROR_FAMILIES = ("level_grid", "level_uniform", "rate_grid", "rate_uniform")


def _convergence_block(config: ExperimentConfig, noise: np.ndarray) -> tuple:
    """Per-path sup errors, one array of shape (paths, coarse grids) per family.

    The coarse grids are solved first; the noise is then overwritten by the
    reference solution.  Paths run outside and coarse grids inside, so each
    reference row is squared once; each grid's offsets, widths and slope row
    are made once per block.  Beyond the coarse levels no array with a paths
    axis is made: the work is three N-sized buffers and the offsets.
    """
    ref_grid = config.reference_grid
    coarse = list(_coarse_levels(config, noise))
    x_ref = simulate_batch(noise, ref_grid.step, config.params)
    ref_nodes = ref_grid.nodes()
    ref_squared = np.empty(ref_grid.steps + 1)
    # Row 0 holds the interpolant, then the level distance; row 1 the rate
    # distance.  Both are made absolute in place, so one reduction over axis 1
    # takes the sup of both.
    work = np.empty((2, ref_grid.steps + 1))
    interpolated, squared = work
    # The interpolant panel by panel in np.interp's arithmetic, x_i + slope_i *
    # (t - t_i).  Nested dyadic nodes coincide bit for bit, so the offsets
    # t - t_i are exactly 0 at coarse nodes and the interpolant is exact there
    # (the last node is copied): every `factor`-th entry of a uniform distance
    # is the grid distance at a coarse node.
    panels = []
    for grid, factor, x in coarse:
        coarse_nodes = grid.nodes()
        offsets = ref_nodes[:-1].reshape(grid.steps, factor) - coarse_nodes[:-1, None]
        slope = np.empty(grid.steps)
        panel = interpolated[:-1].reshape(grid.steps, factor)
        at_nodes = work[:, factor::factor]
        panels.append((x, at_nodes, offsets, np.diff(coarse_nodes), slope, slope[:, None], panel))

    # per (path, coarse grid): [level, rate] sups at the grid nodes and uniformly
    grid_sups, uniform_sups = (np.empty((len(noise), len(panels), 2)) for _ in range(2))
    subtract, multiply, divide, add, square, absolute = (
        np.subtract, np.multiply, np.divide, np.add, np.square, np.absolute
    )
    maximum = np.maximum.reduce
    for row, x_row in enumerate(x_ref):
        square(x_row, ref_squared)
        row_grid, row_uniform = grid_sups[row], uniform_sups[row]
        for j, (x, at_nodes, offsets, widths, slope, slope_column, panel) in enumerate(panels):
            levels = x[row]
            subtract(levels[1:], levels[:-1], slope)
            divide(slope, widths, slope)
            multiply(slope_column, offsets, panel)
            add(panel, levels[:-1, None], panel)
            interpolated[-1] = levels[-1]
            square(interpolated, squared)
            subtract(squared, ref_squared, squared)
            subtract(interpolated, x_row, interpolated)
            absolute(work, work)
            maximum(at_nodes, 1, None, row_grid[j])
            maximum(work, 1, None, row_uniform[j])
    return grid_sups[..., 0], uniform_sups[..., 0], grid_sups[..., 1], uniform_sups[..., 1]


def _condition_notes(checks: tuple[ConditionReport, ...], guarantee: str) -> list[str]:
    """A note per failing inverse-moment condition: the study runs without `guarantee`."""
    return [
        f"inverse-moment condition with multiplier {report.multiplier} fails "
        f"(worst margin {report.worst_margin:.3g} at s={report.worst_s:.3g}); "
        f"the scheme still runs, but the {guarantee} is not covered"
        for report in checks
        if not report.holds
    ]


def _aggregate_moment(per_path: np.ndarray, p: int) -> np.ndarray:
    """(E[sup-error^p])^(1/p) along axis 0 in path-index order; raises if e^p under/overflows."""
    moments = np.mean(per_path**p, axis=0) ** (1.0 / p)
    lost = ~np.isfinite(moments) | ((moments == 0.0) & per_path.any(axis=0))
    if lost.any():
        raise NumericalError(
            f"(E[sup-error^{p}])^(1/{p}) reads {moments[lost][0]} where per-path errors reach "
            f"{per_path.max(axis=0)[lost][0]:.3g}: e^{p} under- or overflows; use a smaller p"
        )
    return moments


def run_convergence(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    """Matched-path strong errors of every family, and the order fitted on each.

    Per sample: one reference noise path, the reference solution, and for each
    coarse step size the solution driven by the restricted noise.  The grid
    error is the sup over coarse nodes n >= 1 of |x_ref(t_n) - x_n|, the
    uniform one the sup over all reference nodes of |x_ref(t) - x^h(t)| with
    x^h the piecewise linear interpolant; the rate families square both sides.
    """
    if not config.coarse_exponents:
        raise DomainError("a convergence study needs at least one coarse exponent")
    checks = check_moment_conditions(config.p, config.params, config.hurst, config.horizon)
    per_path = _concatenated(_map_blocks(_convergence_block, config, workers))
    rms = {
        name: _aggregate_moment(errors, config.p)
        for name, errors in zip(_ERROR_FAMILIES, per_path)
    }

    notes = _condition_notes(checks, "order guarantee")

    step_sizes = np.asarray(config.step_sizes())
    fits = {
        name: regress_order(step_sizes, errors)
        if step_sizes.size >= 2 and np.all(errors > 0.0)
        else None
        for name, errors in rms.items()
    }
    unfitted = [name for name, fit in fits.items() if fit is None]
    if unfitted:
        notes.append(
            f"order fit skipped for {', '.join(unfitted)}: "
            "need >= 2 step sizes with positive errors"
        )

    return ConvergenceReport(
        step_sizes=tuple(float(h) for h in step_sizes),
        rms={name: tuple(map(float, errors)) for name, errors in rms.items()},
        fits=fits,
        samples=config.samples,
        condition_checks=checks,
        warnings=tuple(notes),
    )


def _solve_block(config: ExperimentConfig, noise: np.ndarray) -> tuple:
    """Per-path levels at every reference node, shape (paths, N+1), in the noise array."""
    return (simulate_batch(noise, config.reference_grid.step, config.params),)


def simulate_paths(config: ExperimentConfig, workers: int = 1) -> np.ndarray:
    """Reference-grid levels of every path, shape (samples, N+1); row i is seed base_seed + i."""
    return _concatenated(_map_blocks(_solve_block, config, workers))[0]


def estimate_inverse_moments(config: ExperimentConfig, workers: int = 1) -> InverseMomentCurve:
    """Sample estimate of E[x_n^(-p)]^(1/p) at every reference-grid node.

    Each block's levels are raised to -p in place and added into one running
    sum in path order, which is divided by the sample count: the operations
    of `np.mean(axis=0)` over all paths, with one block of paths held at a
    time.  A value of 0 or not finite (x^(-p) or the sum under- or overflows;
    every level is positive) raises NumericalError.  The inverse-moment
    conditions of order p are checked before any draw, and each that fails
    adds a note: the curve is still estimated, but its bound is not covered.
    """
    checks = check_moment_conditions(config.p, config.params, config.hurst, config.horizon)
    total = np.zeros(config.reference_grid.steps + 1)
    for (powers,) in _map_blocks(_solve_block, config, workers):
        powers **= -float(config.p)
        for row in powers:
            total += row
        del powers, row  # free this block before the next one is computed
    values = (total / config.samples) ** (1.0 / config.p)
    times = config.reference_grid.nodes()
    lost = ~np.isfinite(values) | (values == 0.0)
    if lost.any():
        node = int(np.argmax(lost))
        raise NumericalError(
            f"E[x^(-{config.p})]^(1/{config.p}) reads {values[node]} at node {node} "
            f"(t={times[node]:.6g}): x^(-{config.p}) or its sum over paths under- or overflows"
        )
    return InverseMomentCurve(times=times, values=values, condition_checks=checks,
                              warnings=tuple(_condition_notes(checks, "inverse-moment bound")))


def _malliavin_block(config: ExperimentConfig, noise: np.ndarray) -> tuple:
    """Per-path mean |product form - exponential form| at the final node.

    Both forms use the same numerical levels at the matched perturbation
    times s = t_i, so the gap isolates the formula difference, which is O(h).
    Each coarse grid is solved over the whole block; the forms, bit-identical
    per row, are then taken over the row slices of `_row_slices`.
    Returns the gaps and the product-form minima and maxima, each of shape
    (paths, coarse grids).
    """
    shape = (len(noise), len(config.coarse_exponents))
    gaps, lows, highs = np.empty(shape), np.empty(shape), np.empty(shape)
    for j, (grid, _, levels) in enumerate(_coarse_levels(config, noise)):
        for chunk in _row_slices(len(levels), grid.steps + 1):
            product, exponential = malliavin_terminal_forms(
                levels[chunk], grid.step, config.params
            )
            gaps[chunk, j] = np.abs(product - exponential).mean(axis=1)
            lows[chunk, j] = product.min(axis=1)
            highs[chunk, j] = product.max(axis=1)
    return gaps, lows, highs


def malliavin_gap_study(config: ExperimentConfig, workers: int = 1) -> MalliavinGapReport:
    """Compare the two Malliavin derivative forms across step sizes.

    Noise is generated once per sample on the reference grid and restricted to
    each coarse grid, so successive rows are shared-noise pairs and the gap
    ratio between a step size and its half is close to 2.  Paths go in the
    blocks of the other studies, and each block solves every coarse grid once
    over all of its paths.  A mean gap that is zero or not finite leaves no
    order to report and raises NumericalError.
    """
    if not config.coarse_exponents:
        raise DomainError("a gap study needs at least one coarse exponent")
    if config.params.kappa <= 0.0:
        raise UnsupportedRegimeError("the derivative comparison is defined only for kappa > 0")
    gaps, lows, highs = _concatenated(_map_blocks(_malliavin_block, config, workers))
    gaps, lows, highs = gaps.mean(axis=0), lows.min(axis=0), highs.max(axis=0)
    lost = ~np.isfinite(gaps) | (gaps == 0.0)
    if lost.any():
        j = int(np.argmax(lost))
        raise NumericalError(
            f"mean |product - exponential| gap reads {gaps[j]} at h={config.step_sizes()[j]}: "
            "the forms agree to rounding, or under- or overflow, so no gap ratio can be formed"
        )
    ratios = np.full_like(gaps, np.nan)
    ratios[1:] = gaps[:-1] / gaps[1:]
    return MalliavinGapReport(
        step_sizes=config.step_sizes(),
        mean_abs_gaps=tuple(map(float, gaps)),
        ratios=tuple(map(float, ratios)),
        profile_min=tuple(map(float, lows)),
        profile_max=tuple(map(float, highs)),
    )

"""Tests for the backward Euler scheme and the rate process."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcir import (
    CirParams,
    DomainError,
    ExperimentConfig,
    GridSpec,
    HurstParameter,
    NumericalError,
    UnsupportedRegimeError,
    backward_euler_step,
    drift,
    max_stable_step,
    residuals,
    sample_fbm_circulant,
    simulate_batch,
    simulate_path,
)
from fcir import scheme
from fcir.io import write_solution_path


def bisect_implicit_step(x_n, increment, step, params, tol=1e-14):
    """Oracle: solve x = x_n + f(x)*step + sigma*increment/2 by bisection."""

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


H07 = HurstParameter(0.7)


def solve_zero_noise(steps: int, params: CirParams, horizon: float = 1.0) -> np.ndarray:
    """Levels of one path driven by fBm levels that are 0 at every node."""
    return simulate_batch(np.zeros((1, steps + 1)), horizon / steps, params)[0]


class TestBackwardEulerStep:
    def test_drift_fixed_point(self, bench_params):
        root_theta = math.sqrt(bench_params.theta)
        for h in (0.01, 0.1, 0.5, 2.0):
            assert backward_euler_step(root_theta, 0.0, h, bench_params) == pytest.approx(
                root_theta, abs=1e-14
            )

    def test_against_bisection_oracle(self, bench_params):
        value = backward_euler_step(1.0, 0.0, 0.1, bench_params)
        oracle = bisect_implicit_step(1.0, 0.0, 0.1, bench_params)
        print(f"step: impl={value:.12g} bisection={oracle:.12g}")
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(0.95661, abs=1e-5)

    def test_random_steps_match_oracle(self, bench_params):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x_n = rng.uniform(0.05, 3.0)
            increment = rng.normal(scale=0.5)
            h = rng.uniform(0.001, 0.5)
            value = backward_euler_step(x_n, increment, h, bench_params)
            oracle = bisect_implicit_step(x_n, increment, h, bench_params)
            assert value == pytest.approx(oracle, rel=1e-11)

    def test_positive_under_extreme_noise(self, bench_params):
        # sigma*dB/2 = -10 wipes out the linear part; the root stays positive
        increment = -20.0 / bench_params.sigma
        value = backward_euler_step(1.0, increment, 0.1, bench_params)
        assert value > 0.0

    def test_domain_errors(self, bench_params):
        with pytest.raises(DomainError):
            backward_euler_step(0.0, 0.0, 0.1, bench_params)
        negative_kappa = CirParams(kappa=-2.0, theta=-0.5, sigma=0.5, r0=1.0)
        with pytest.raises(DomainError):
            backward_euler_step(1.0, 0.0, 1.1, negative_kappa)
        # h*max(0,-kappa/2) = 0.55 < 1
        assert backward_euler_step(1.0, 0.0, 0.55, negative_kappa) > 0.0

    @pytest.mark.parametrize("kappa, theta, c", [(1e-160, 1e-163, "0.0"), (1e300, 0.5, "inf")])
    def test_root_constant_out_of_range(self, kappa, theta, c):
        # c = kappa*h*theta*(2 + kappa*h) underflows to 0 or overflows to inf
        params = CirParams(kappa=kappa, theta=theta, sigma=0.5, r0=1.0)
        with pytest.raises(NumericalError, match=f"= {c} for kappa"):
            backward_euler_step(1.0, 0.0, 0.0625, params)
        with pytest.raises(NumericalError, match=f"= {c} for kappa"):
            simulate_batch(np.zeros((2, 16)), 0.0625, params)


class TestMaxStableStep:
    def test_values(self, bench_params):
        assert max_stable_step(bench_params) == math.inf
        negative = CirParams(kappa=-2.0, theta=-0.5, sigma=0.5, r0=1.0)
        assert max_stable_step(negative) == 1.0
        strong = CirParams(kappa=-4.0, theta=-0.5, sigma=0.5, r0=1.0)
        assert max_stable_step(strong) == 0.5

    def test_is_the_solver_bound(self):
        # at kappa = -2 the bound is exactly 1.0: the largest double below it
        # is a step the solver takes, 1.0 itself is refused
        params = CirParams(kappa=-2.0, theta=-0.5, sigma=0.5, r0=1.0)
        below = np.nextafter(max_stable_step(params), 0.0)
        levels = simulate_batch(np.array([[0.0, 0.1, -0.2]]), below, params)
        assert np.isfinite(levels).all() and (levels > 0.0).all()
        with pytest.raises(DomainError, match="violates"):
            simulate_batch(np.zeros((1, 3)), max_stable_step(params), params)


    @settings(max_examples=200, deadline=None)
    @given(kappa=st.floats(-10.0, -0.1))
    @example(kappa=-6.379805312987237)  # 1/(-kappa/2) rounds to a step the solver takes
    def test_solver_and_config_share_the_bound(self, kappa):
        params = CirParams(kappa=kappa, theta=-0.5, sigma=0.5, r0=1.0)
        limit = max_stable_step(params)
        for step in (math.nextafter(limit, 0.0), limit, math.nextafter(limit, math.inf)):
            try:
                simulate_batch(np.zeros((1, 2)), step, params)
                solver_accepts = True
            except DomainError:
                solver_accepts = False
            try:
                # the coarse grid 2^0 steps over the horizon has step = horizon
                ExperimentConfig(
                    params=params, hurst=HurstParameter(0.7), horizon=step, reference_exponent=2,
                    coarse_exponents=(0,), samples=1, base_seed=0,
                )
                config_accepts = True
            except DomainError:
                config_accepts = False
            assert solver_accepts == config_accepts == (step < limit), step


class TestSimulatePath:
    def test_zero_noise_decreasing_to_fixed_point(self, bench_params):
        # deterministic recursion oracle over 64 steps
        path = solve_zero_noise(64, bench_params)
        root_theta = math.sqrt(bench_params.theta)
        assert np.all(np.diff(path) < 0.0)
        assert np.all(path >= root_theta)
        x = bench_params.x0
        for n in range(64):
            x = bisect_implicit_step(x, 0.0, 1.0 / 64, bench_params)
            assert path[n + 1] == pytest.approx(x, rel=1e-12)

    def test_fixed_point_stays_put(self):
        params = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=0.5)
        path = solve_zero_noise(256, params)
        assert np.abs(path - math.sqrt(0.5)).max() <= 1e-12

    def test_single_step_composition(self, bench_params):
        grid = GridSpec(0.25, 1)
        (noise,) = sample_fbm_circulant(grid, H07, [11])
        path = simulate_path(grid, H07, bench_params, 11)
        expected = backward_euler_step(bench_params.x0, noise[1], 0.25, bench_params)
        assert path.shape == (2,)
        assert path[0] == bench_params.x0
        assert path[1] == expected

    def test_implicit_residual(self, bench_params):
        grid = GridSpec(1.0, 512)
        for seed in range(5):
            (noise,) = sample_fbm_circulant(grid, H07, [seed])
            path = simulate_path(grid, H07, bench_params, seed)
            bound = 1e-12 * (1.0 + np.abs(path[1:]))
            assert np.all(np.abs(residuals(path, noise, grid.step, bench_params)) <= bound)
        with pytest.raises(DomainError, match="share a grid"):
            residuals(path, noise[::2], grid.step, bench_params)

    def test_positivity_random_paths(self, bench_params):
        grid = GridSpec(1.0, 256)
        for seed in range(100):
            assert np.all(simulate_path(grid, H07, bench_params, seed) > 0.0)

    def test_refuses_rough_noise(self, bench_params, monkeypatch):
        # refused before any draw, with the message the CLI reports
        def no_draws(*args):
            raise AssertionError("sampled noise for rough H")

        monkeypatch.setattr(scheme, "sample_fbm_circulant", no_draws)
        for hurst in (0.5, 0.2):
            with pytest.raises(
                UnsupportedRegimeError,
                match=rf"^the solver requires driving noise with H > 1/2, got H={hurst}$",
            ):
                simulate_path(GridSpec(1.0, 16), HurstParameter(hurst), bench_params, 1)

    def test_batch_matches_scalar_loop(self, bench_params):
        grid = GridSpec(1.0, 64)
        (noise,) = sample_fbm_circulant(grid, H07, [99])
        path = simulate_path(grid, H07, bench_params, 99)
        batch = simulate_batch(np.stack([noise] * 2), grid.step, bench_params)
        assert np.array_equal(batch[0], path)
        assert np.array_equal(batch[1], path)
        x = bench_params.x0
        for n, increment in enumerate(np.diff(noise)):
            x = backward_euler_step(x, increment, grid.step, bench_params)
            assert x == path[n + 1]

    @pytest.mark.parametrize("increment, level", [(5.6e154, "inf"), (-5.6e154, "0.0")])
    def test_overflowing_step_raises(self, bench_params, increment, level):
        # a = x_1 + sigma*dB/2 is about +-1.4e154, so a*a overflows: a > 0 gave
        # an inf level, a < 0 gave c / inf = 0 through the conjugate form
        noise = np.array([[0.0, 0.1, 0.3, 0.6], [0.0, 0.1, 0.1 + increment, 0.4 + increment]])
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=f"level {level} at step 2 of path 1 is not finite and positive"
        ):
            simulate_batch(noise, 0.1, bench_params)

    def test_tiny_levels_never_divide_by_zero(self):
        # With theta = r0 = 1e-300, c is negligible next to a^2, so the unused
        # conjugate form c / (sqrt(a^2 + c) - a) of an a > 0 step would divide
        # by exactly zero; no step may evaluate it.
        params = CirParams(kappa=2.0, theta=1e-300, sigma=0.5, r0=1e-300)
        grid = GridSpec(10.0, 64)
        noise = sample_fbm_circulant(grid, H07, [1])
        increments = np.diff(noise[0])
        with np.errstate(divide="raise", invalid="raise"):
            (batch,) = simulate_batch(noise, grid.step, params)
            x = params.x0
            for n, increment in enumerate(increments):
                x = backward_euler_step(x, increment, grid.step, params)
                assert x == batch[n + 1]
        assert np.all(batch > 0.0)

    def test_refinement_consistency(self, bench_params):
        # matched-noise solutions at steps h and 2h differ by O(h): halving h
        # roughly halves the gap, averaged over 100 paths
        fine_grid = GridSpec(1.0, 2**10)
        gaps = {9: [], 10: []}
        for noise in sample_fbm_circulant(fine_grid, H07, range(3000, 3100)):
            solutions = {}
            for exponent in (10, 9, 8):
                coarse = noise[None, :: 2 ** (10 - exponent)].copy()
                solutions[exponent] = simulate_batch(coarse, 2.0**-exponent, bench_params)[0]
            gaps[10].append(np.abs(solutions[10][::2][1:] - solutions[9][1:]).max())
            gaps[9].append(np.abs(solutions[9][::2][1:] - solutions[8][1:]).max())
        ratio = np.mean(gaps[9]) / np.mean(gaps[10])
        print(f"refinement gap ratio (2h vs h): {ratio:.3f}")
        assert 1.6 <= ratio <= 2.4


class TestRateProcess:
    def test_nodes_and_origin(self, bench_params, tmp_path):
        # the rate column the solution writer emits is X^2, r0 at t = 0
        grid = GridSpec(1.0, 32)
        path = simulate_path(grid, H07, bench_params, 8)
        write_solution_path(tmp_path / "path.csv", grid, path)
        table = np.loadtxt(tmp_path / "path.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], grid.nodes())
        assert np.array_equal(table[:, 1], path)
        assert np.array_equal(table[:, 2], path**2)
        assert table[0, 2] == bench_params.r0

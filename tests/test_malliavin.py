"""Tests for the Malliavin derivative profiles and the exponential form."""

import dataclasses
import math

import numpy as np
import pytest

from fcir import (
    CirParams,
    DomainError,
    ExperimentConfig,
    GridSpec,
    HurstParameter,
    MalliavinGapReport,
    UnsupportedRegimeError,
    drift_derivative,
    malliavin_gap_study,
    malliavin_terminal_forms,
    sample_fbm_circulant,
    simulate_batch,
    simulate_paths,
)
from oracles import terminal_sensitivity

GRID = GridSpec(1.0, 32)
FIXED_POINT = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=0.5)


def trapezoid_oracle(levels, grid, s, params):
    """(sigma/2) * exp(integral of f'(level) over [s, T]), trapezoid rule on s and later nodes."""
    nodes = grid.nodes()
    times = np.concatenate([[s], nodes[nodes > s]])
    slopes = drift_derivative(np.interp(times, nodes, levels), params)
    integral = np.sum(np.diff(times) * (slopes[1:] + slopes[:-1]) / 2.0)
    return 0.5 * params.sigma * float(np.exp(integral))


def profile(levels, node, params):
    """Derivative profile of X_node on GRID: the product form of levels 0..node."""
    product, _ = malliavin_terminal_forms(levels[None, : node + 1], GRID.step, params)
    return product[0]


@pytest.fixture
def path(bench_params):
    """Levels of one path on GRID."""
    noise = sample_fbm_circulant(GRID, HurstParameter(0.7), [77])
    return simulate_batch(noise, GRID.step, bench_params)[0]


@pytest.fixture
def fixed_point_path():
    """Levels of one path on GRID that starts at sqrt(theta) and is driven by no noise."""
    return simulate_batch(np.zeros((1, GRID.steps + 1)), GRID.step, FIXED_POINT)[0]


class TestProfile:
    def test_last_interval_single_factor(self, path, bench_params):
        n = 20
        values = profile(path, n, bench_params)
        h = GRID.step
        expected = (
            0.5
            * bench_params.sigma
            / (1.0 - drift_derivative(path[n], bench_params) * h)
        )
        assert values[-1] == pytest.approx(expected, rel=1e-14)

    def test_bounded_and_nondecreasing(self, path, bench_params):
        # each factor lies in (0, 1) for kappa > 0, so suffix products grow
        # as factors drop off and everything stays within (0, sigma/2]
        for n in (1, 7, 32):
            values = profile(path, n, bench_params)
            assert values.shape == (n,)
            assert np.all(values > 0.0)
            assert np.all(values <= 0.5 * bench_params.sigma)
            assert np.all(np.diff(values) >= 0.0)

    def test_fixed_point_closed_form(self, fixed_point_path):
        # X_j == sqrt(theta) makes f'(X_j) = -kappa, so the value on interval i
        # is (sigma/2) * (1 + kappa*h)^-(n-i+1)
        params = FIXED_POINT
        h = GRID.step
        n = 12
        values = profile(fixed_point_path, n, params)
        exponents = n - np.arange(1, n + 1) + 1
        closed = 0.5 * params.sigma * (1.0 + params.kappa * h) ** -exponents
        assert np.allclose(values, closed, rtol=1e-12)

    def test_regime_and_domain(self, path, bench_params):
        negative = CirParams(kappa=-1.0, theta=-0.5, sigma=0.5, r0=1.0)
        neg_path = simulate_batch(np.zeros((1, 9)), 0.125, negative)[0]
        with pytest.raises(UnsupportedRegimeError):
            profile(neg_path, 4, negative)
        # node 0 has no interval (0, t_n] to perturb on
        with pytest.raises(DomainError):
            profile(path, 0, bench_params)
        assert profile(path, GRID.steps, bench_params).shape == (GRID.steps,)

    @pytest.mark.parametrize(
        "params",
        [CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0),
         CirParams(kappa=5.0, theta=0.2, sigma=0.8, r0=0.3)],
        ids=["bench", "strong-reversion"],
    )
    def test_product_form_is_the_derivative_in_each_increment(self, params):
        # column i-1 of the product form is dX_N / d(increment i): a central
        # difference that moves the fBm levels from node i on says the same.
        # Its own error is rounding of X_N over eps, up to ~2e-7 relative
        # where the derivative is ~5e-4 (early nodes at kappa = 5).
        grid = GridSpec(1.0, 2**8)
        noise = sample_fbm_circulant(grid, HurstParameter(0.7), range(1234, 1244))
        product, _ = malliavin_terminal_forms(simulate_batch(noise.copy(), grid.step, params),
                                              grid.step, params)
        worst = 0.0
        for node in (1, 2, 64, 200, 256):
            difference = terminal_sensitivity(noise, node, grid.step, params)
            gap = np.abs(difference / product[:, node - 1] - 1.0).max()
            worst = max(worst, float(gap))
        print(f"largest relative gap to the central difference: {worst:.2e}")
        assert worst <= 1e-6

class TestExponentialForm:
    # the exponential column of malliavin_terminal_forms, s = t_i and t = T

    def test_point_mass(self, path, bench_params):
        # at s = T the trapezoid is over an empty interval
        _, exponential = malliavin_terminal_forms(path[None, :], GRID.step, bench_params)
        assert exponential[0, -1] == 0.5 * bench_params.sigma

    def test_constant_levels_closed_form(self):
        # X == sqrt(theta) makes f' = -kappa, so the form at s = t_i is
        # (sigma/2) * exp(-kappa * (T - t_i))
        params = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=0.5)
        grid = GridSpec(1.0, 64)
        levels = np.full((1, 65), math.sqrt(0.5))
        _, exponential = malliavin_terminal_forms(levels, grid.step, params)
        closed = 0.5 * params.sigma * np.exp(-params.kappa * (1.0 - grid.nodes()[1:]))
        assert exponential[0] == pytest.approx(closed, rel=1e-12)

    def test_domain(self, path, bench_params):
        with pytest.raises(DomainError):
            malliavin_terminal_forms(
                np.zeros((1, GRID.steps + 1)), GRID.step, bench_params
            )


class TestTerminalForms:
    def test_exponential_matches_quadrature_oracle(self, path, bench_params):
        # column i-1 is the form at s = t_i, t = T
        _, exponential = malliavin_terminal_forms(path[None, :], GRID.step, bench_params)
        oracle = [
            trapezoid_oracle(path, GRID, s, bench_params) for s in GRID.nodes()[1:]
        ]
        assert exponential[0] == pytest.approx(oracle, rel=1e-12)

    def test_regime_and_shape(self, path, bench_params):
        negative = CirParams(kappa=-1.0, theta=-0.5, sigma=0.5, r0=1.0)
        with pytest.raises(UnsupportedRegimeError):
            malliavin_terminal_forms(path[None, :], GRID.step, negative)
        with pytest.raises(DomainError):
            malliavin_terminal_forms(path, GRID.step, bench_params)
        with pytest.raises(DomainError):
            malliavin_terminal_forms(path[None, :1], GRID.step, bench_params)

    @pytest.mark.parametrize("step", [math.nan, -1.0, 0.0, math.inf])
    def test_step_follows_the_solver_rule(self, path, bench_params, step):
        # a nan step gave all-nan forms and step = -1 finite ones, both silently
        with pytest.raises(DomainError, match=rf"^step must be positive and finite, got {step}$"):
            malliavin_terminal_forms(path[None, :], step, bench_params)


class TestGapStudy:
    def test_order_one_consistency(self, bench_params, hurst07):
        config = ExperimentConfig(
            params=bench_params,
            hurst=hurst07,
            horizon=1.0,
            reference_exponent=7,
            coarse_exponents=(6, 7),
            samples=30,
            base_seed=42,
        )
        report = malliavin_gap_study(config)
        assert math.isnan(report.ratios[0])
        print(f"gap ratio at h={report.step_sizes[0]}: {report.ratios[1]:.3f}")
        assert 1.6 <= report.ratios[1] <= 2.4
        assert min(report.profile_min) > 0.0
        assert max(report.profile_max) <= 0.5 * bench_params.sigma

    def test_profile_matches_module_formula(self, bench_params, hurst07):
        # the study's product rows and the kernel's rows are the profiles of X_N
        config = ExperimentConfig(
            params=bench_params,
            hurst=hurst07,
            horizon=1.0,
            reference_exponent=6,
            coarse_exponents=(6,),
            samples=3,
            base_seed=9,
        )
        report = malliavin_gap_study(config)
        grid = GridSpec(1.0, 64)
        paths = simulate_paths(config)
        product, _ = malliavin_terminal_forms(paths, grid.step, bench_params)
        profiles = [
            malliavin_terminal_forms(path[None], grid.step, bench_params)[0][0] for path in paths
        ]
        for row, values in zip(product, profiles):
            assert np.array_equal(row, values)
        assert report.profile_min[0] == min(values.min() for values in profiles)
        assert report.profile_max[0] == max(values.max() for values in profiles)

    def test_worker_count_invariance(self, bench_params, hurst07):
        # 40 paths span two blocks with one worker and split across chunks with three
        config = ExperimentConfig(
            params=bench_params,
            hurst=hurst07,
            horizon=1.0,
            reference_exponent=6,
            coarse_exponents=(4, 5, 6),
            samples=40,
            base_seed=5,
        )
        one = malliavin_gap_study(config, workers=1)
        three = malliavin_gap_study(config, workers=3)
        for field in dataclasses.fields(MalliavinGapReport):
            assert np.array_equal(
                getattr(one, field.name), getattr(three, field.name), equal_nan=True
            ), field.name

    def test_requires_positive_kappa(self, hurst07):
        negative = CirParams(kappa=-1.0, theta=-0.5, sigma=0.5, r0=1.0)
        config = ExperimentConfig(
            params=negative,
            hurst=hurst07,
            horizon=0.5,
            reference_exponent=5,
            coarse_exponents=(4,),
            samples=2,
            base_seed=1,
        )
        with pytest.raises(UnsupportedRegimeError):
            malliavin_gap_study(config)

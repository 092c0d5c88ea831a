"""Tests for model parameters, the transformed drift, and condition checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fcir import (
    CirParams,
    DomainError,
    HurstParameter,
    NumericalError,
    check_moment_conditions,
    drift_derivative,
    sufficient_moment_condition,
)
from fcir import model
from fcir.model import _rescaled_kernel_integral
from oracles import drift

# Frozen value of the brute-force oracle below at
# (s=1, kappa=2, sigma=0.5, H=0.7) with 1e6 panels.
BRUTE_FORCE_REFERENCE = 0.18582217643643076

H07 = HurstParameter(0.7)


def brute_force_weighted_integral(
    s: float, kappa: float, sigma: float, hvalue: float, panels: int = 1_000_000
) -> float:
    """Independent quadrature oracle: analytic tail plus log-spaced midpoints.

    After substituting u = s - tau the integrand is
    e^(kappa*(s-u)/2) * H(2H-1) * u^(2H-2).  On [0, s*1e-9] the weight is
    constant to ~1e-9 relative and the power integrates in closed form; the
    rest uses midpoint panels that are uniform in log u, where the integrand
    varies slowly.
    """
    alpha = hvalue * (2 * hvalue - 1)
    a = 2 * hvalue - 2
    delta = s * 1e-9
    tail = math.exp(kappa * s / 2.0) * delta ** (a + 1) / (a + 1)
    edges = delta * (s / delta) ** (np.arange(panels + 1) / panels)
    mids = np.sqrt(edges[:-1] * edges[1:])
    values = np.exp(kappa * (s - mids) / 2.0) * mids**a
    return (sigma**2 / 2.0) * alpha * (np.sum(values * np.diff(edges)) + tail)


def quadrature_rescaled_integral(s: float, kappa: float, hvalue: float) -> float:
    """Series-plus-quadrature oracle for I(s) = int_0^s e^(-kappa*u/2) u^(2H-2) du.

    On [0, s/1000] the exponential is expanded in a power series whose terms
    integrate in closed form; the rest uses adaptive Gauss-Kronrod quadrature.
    Relative accuracy is well below 1e-8.
    """
    if s == 0.0:
        return 0.0
    a = 2.0 * hvalue - 2.0
    rate = 0.5 * kappa
    eps = s / 1000.0
    head = 0.0
    coeff = 1.0
    for k in range(80):
        term = coeff * eps ** (a + k + 1) / (a + k + 1)
        head += term
        if abs(term) <= 1e-17 * abs(head):
            break
        coeff *= -rate / (k + 1)
    else:
        raise AssertionError("oracle series did not converge")
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        tail, _ = integrate.quad(
            lambda u: math.exp(-rate * u) * u**a, eps, s, epsabs=0.0, epsrel=1e-10, limit=200
        )
    return head + tail


def rescaled_margin(s: float, multiplier: int, params: CirParams, hvalue: float) -> float:
    """Condition margin divided by e^(kappa*s/2), evaluated with the oracle."""
    prefactor = 0.5 * params.sigma**2 * hvalue * (2.0 * hvalue - 1.0)
    integral = quadrature_rescaled_integral(s, params.kappa, hvalue)
    return params.kappa * params.theta - multiplier * prefactor * integral


class TestCirParams:
    def test_valid_and_derived(self):
        params = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0)
        assert params.x0 == 1.0
        negative = CirParams(kappa=-2.0, theta=-0.5, sigma=0.5, r0=0.25)
        assert negative.x0 == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=2.0, theta=-0.5, sigma=0.5, r0=1.0),
            dict(kappa=0.0, theta=0.5, sigma=0.5, r0=1.0),
            dict(kappa=2.0, theta=0.5, sigma=0.0, r0=1.0),
            dict(kappa=2.0, theta=0.5, sigma=0.5, r0=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            CirParams(**kwargs)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["kappa", "theta", "sigma", "r0", "horizon"])
def test_non_finite_inputs_rejected(field, value, bench_params):
    if field == "horizon":
        with pytest.raises(DomainError, match="finite"):
            check_moment_conditions(2, bench_params, H07, value)
        with pytest.raises(DomainError, match="finite"):
            sufficient_moment_condition(2, bench_params, H07, value)
    else:
        settings = {**dict(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0), field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            CirParams(**settings)


class TestDrift:
    def test_values(self, bench_params):
        assert drift(math.sqrt(0.5), bench_params) == pytest.approx(0.0, abs=1e-15)
        assert drift(1.0, bench_params) == pytest.approx(-0.5)
        assert drift(0.5, bench_params) == pytest.approx(0.5)
        assert drift_derivative(1.0, bench_params) == pytest.approx(-1.5)

    def test_domain(self, bench_params):
        for func in (drift, drift_derivative):
            with pytest.raises(DomainError):
                func(0.0, bench_params)
            with pytest.raises(DomainError):
                func(-1.0, bench_params)

    def test_dissipativity_sign(self, bench_params):
        # f'(x) + kappa/2 = -kappa*theta/(2x^2) < 0 whenever kappa*theta > 0
        x = np.linspace(0.01, 10.0, 200)
        assert np.all(drift_derivative(x, bench_params) + bench_params.kappa / 2 < 0)

    def test_fixed_point_for_admissible_params(self):
        # sqrt(theta) is the drift's zero for every admissible parameter set
        # (defined only for theta > 0, i.e. the kappa > 0 branch)
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = CirParams(
                kappa=rng.uniform(0.05, 5.0),
                theta=rng.uniform(0.01, 4.0),
                sigma=rng.uniform(0.05, 2.0),
                r0=rng.uniform(0.1, 4.0),
            )
            root = math.sqrt(params.theta)
            assert abs(drift(root, params)) <= 1e-13 * max(1.0, params.kappa)


def kernel_integral(s: float, params: CirParams, hvalue: float) -> float:
    """`_rescaled_kernel_integral` at a float H."""
    return _rescaled_kernel_integral(s, params, HurstParameter(hvalue))


class TestWeightedKernelIntegral:
    # The integral (sigma^2/2) H(2H-1) int_0^s e^(-kappa*u/2) u^(2H-2) du that
    # the condition margin holds, in the frame rescaled by e^(-kappa*s/2).

    def test_empty_interval(self, bench_params):
        assert kernel_integral(0.0, bench_params, 0.7) == 0.0

    def test_vanishing_kappa_closed_form(self):
        # With the exponential weight forced to 1 the integral is
        # (sigma^2/2) * H * s^(2H-1); kappa = 1e-12 gets within 1e-9 of that.
        params = CirParams(kappa=1e-12, theta=1.0, sigma=0.5, r0=1.0)
        for s, H in ((1.0, 0.7), (2.5, 0.6), (0.3, 0.9)):
            closed = 0.5 * params.sigma**2 * H * s ** (2 * H - 1)
            value = kernel_integral(s, params, H)
            assert value == pytest.approx(closed, rel=1e-9)

    def test_against_brute_force_oracle(self, bench_params):
        oracle = brute_force_weighted_integral(1.0, 2.0, 0.5, 0.7)
        assert oracle == pytest.approx(BRUTE_FORCE_REFERENCE, rel=1e-9)
        # the oracle is in the original frame: divide out e^(kappa*s/2) = e,
        # and the absolute bound 1e-6 with it
        value = kernel_integral(1.0, bench_params, 0.7)
        print(f"kernel integral: impl={value:.12g} oracle={oracle / math.e:.12g}")
        assert abs(value - oracle / math.e) <= 1e-6 / math.e

    @pytest.mark.parametrize("kappa,sigma,H,s", [(-1.5, 0.8, 0.6, 2.0), (3.0, 0.3, 0.85, 0.7)])
    def test_oracle_other_parameters(self, kappa, sigma, H, s):
        params = CirParams(kappa=kappa, theta=0.5 if kappa > 0 else -0.5, sigma=sigma, r0=1.0)
        oracle = brute_force_weighted_integral(s, kappa, sigma, H) / math.exp(0.5 * kappa * s)
        assert kernel_integral(s, params, H) == pytest.approx(oracle, rel=1e-8)

    def test_domain(self, bench_params):
        with pytest.raises(DomainError):
            kernel_integral(1.0, bench_params, 0.5)

    @pytest.mark.parametrize("H", [0.51, 0.53, 0.55, 0.7])
    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-100])
    def test_tiny_interval_is_finite(self, bench_params, H, s):
        # scipy's hyp1f1(a, a+1, z) is nan or inf for a <= 0.1 and tiny |z|;
        # here e^(-kappa*u/2) = 1 to double precision, so I(s) = s^(2H-1)/(2H-1)
        closed = 0.5 * bench_params.sigma**2 * H * s ** (2 * H - 1)
        assert kernel_integral(s, bench_params, H) == pytest.approx(closed, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(-3.0, 3.0).filter(lambda k: abs(k) >= 1e-3),
    hvalue=st.floats(0.51, 0.99),
    # from 1e-300: at subnormal s the oracle's split point s/1000 underflows to 0
    s=st.floats(1e-300, 5.0),
    sigma=st.floats(0.05, 2.0),
)
def test_closed_form_matches_quadrature_oracle(kappa, hvalue, s, sigma):
    params = CirParams(kappa=kappa, theta=math.copysign(0.5, kappa), sigma=sigma, r0=1.0)
    prefactor = 0.5 * sigma**2 * hvalue * (2.0 * hvalue - 1.0)
    oracle = prefactor * quadrature_rescaled_integral(s, kappa, hvalue)
    assert kernel_integral(s, params, hvalue) == pytest.approx(oracle, rel=1e-9)


class TestConditionChecks:
    @pytest.mark.parametrize("H", [0.6, 0.7, 0.8])
    def test_benchmark_holds_for_p6(self, bench_params, H):
        report = check_moment_conditions(6, bench_params, HurstParameter(H), 1.0)[0]
        assert report.holds
        assert report.method == "exact"
        assert report.multiplier == 7

    def test_large_sigma_fails(self):
        params = CirParams(kappa=2.0, theta=0.5, sigma=100.0, r0=1.0)
        report = check_moment_conditions(6, params, H07, 1.0)[0]
        assert not report.holds
        assert report.worst_margin < 0.0

    def test_short_horizon_holds(self, bench_params):
        report = check_moment_conditions(6, bench_params, H07, 1e-6)[0]
        assert report.holds

    def test_worst_margin_is_grid_minimum(self, bench_params):
        # the margin in the rescaled frame falls in s, so its minimum over a
        # dense oracle grid is the closed-form value at s = T
        report = check_moment_conditions(2, bench_params, H07, 1.0)[0]
        assert report.worst_s == 1.0
        margins = [
            rescaled_margin(s, 3, bench_params, 0.7) for s in np.linspace(0.0, 1.0, 1001)
        ]
        assert report.worst_margin == pytest.approx(min(margins), rel=1e-12)
        assert all(report.worst_margin <= m + 1e-15 for m in margins)

    def test_condition_pair(self, bench_params):
        low, high = check_moment_conditions(6, bench_params, H07, 1.0)
        integral = kernel_integral(1.0, bench_params, 0.7)
        for report, multiplier in ((low, 7), (high, 19)):
            assert report.multiplier == multiplier and report.worst_s == 1.0
            kappa_theta = bench_params.kappa * bench_params.theta
            assert report.worst_margin == kappa_theta - multiplier * integral

    def test_pair_evaluates_the_kernel_integral_once(self, bench_params, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _rescaled_kernel_integral(*args)

        monkeypatch.setattr(model, "_rescaled_kernel_integral", counted)
        check_moment_conditions(6, bench_params, H07, 1.0)
        assert calls == [(1.0, bench_params, H07)]

    def test_multiplier_validation(self, bench_params):
        with pytest.raises(DomainError):
            check_moment_conditions(0, bench_params, H07, 1.0)

    @pytest.mark.parametrize("kappa", [2.0, -1.5])
    def test_worst_margin_holds_sign_of_original_frame(self, kappa):
        # dividing by e^(kappa*s/2) > 0 keeps the sign of LHS - RHS at every s
        params = CirParams(kappa=kappa, theta=math.copysign(0.5, kappa), sigma=0.9, r0=1.0)
        for horizon in (0.25, 1.0, 3.0):
            report = check_moment_conditions(2, params, H07, horizon)[1]
            growth = math.exp(0.5 * kappa * horizon)
            original = params.kappa * params.theta * growth - 7 * (
                growth * kernel_integral(horizon, params, 0.7)
            )
            assert report.worst_margin * math.exp(0.5 * kappa * horizon) == pytest.approx(
                original, rel=1e-12, abs=1e-14
            )
            assert report.holds == (original >= 0.0)

    @pytest.mark.parametrize("H", [0.51, 0.7])
    def test_long_horizon_margin_is_finite(self, bench_params, H):
        # for kappa*T/2 >> 1, I(T) = Gamma(2H-1) / (kappa/2)^(2H-1) in double
        # precision; kappa/2 = 1 here
        report = check_moment_conditions(1, bench_params, HurstParameter(H), 1e11)[0]
        limit = 0.5 * bench_params.sigma**2 * H * (2 * H - 1) * math.gamma(2 * H - 1)
        assert report.worst_margin == pytest.approx(1.0 - 2 * limit, rel=1e-12)

    def test_overflowing_margin_is_numerical_error(self):
        params = CirParams(kappa=-50.0, theta=-0.5, sigma=0.5, r0=1.0)
        with pytest.raises(NumericalError, match="overflows"):
            check_moment_conditions(6, params, H07, 30.0)

    def test_overflowing_sigma_squared_is_numerical_error(self, bench_params):
        # sigma^2 overflows a double: the margin is -inf, never an OverflowError
        params = dataclasses.replace(bench_params, sigma=2e155)
        with pytest.raises(NumericalError, match="margin overflows"):
            check_moment_conditions(6, params, H07, 1.0)


class TestSufficientCondition:
    def test_benchmark_case(self, bench_params):
        # closed-form bound 2*kappa*theta/(sigma^2 H (p+1)) = 2/1.05 ~ 1.90 >= 1
        assert sufficient_moment_condition(6, bench_params, HurstParameter(0.6), 1.0)

    def test_fails_for_long_horizon(self, bench_params):
        assert not sufficient_moment_condition(6, bench_params, HurstParameter(0.6), 100.0)

    def test_overflowing_sigma_squared_fails(self, bench_params):
        params = dataclasses.replace(bench_params, sigma=2e155)
        assert not sufficient_moment_condition(6, params, HurstParameter(0.6), 1.0)

    def test_implies_quadrature_check(self):
        # one-directional implication over a random admissible parameter sweep
        rng = np.random.default_rng(20240817)
        hits = 0
        for _ in range(100):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            params = CirParams(
                kappa=sign * rng.uniform(0.1, 3.0),
                theta=sign * rng.uniform(0.05, 2.0),
                sigma=rng.uniform(0.05, 1.5),
                r0=rng.uniform(0.1, 4.0),
            )
            hurst = HurstParameter(rng.uniform(0.55, 0.95))
            horizon = rng.uniform(0.25, 4.0)
            p = int(rng.integers(1, 9))
            if sufficient_moment_condition(p, params, hurst, horizon):
                hits += 1
                report = check_moment_conditions(p, params, hurst, horizon)[0]
                assert report.holds, (
                    f"sufficient condition held but exact check failed for "
                    f"{params}, H={hurst.value}, T={horizon}, p={p}"
                )
        print(f"sufficient condition held in {hits}/100 sampled parameter sets")
        assert hits >= 10

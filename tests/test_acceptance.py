"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] ... PASS/FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them as they go).
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from fcir import (
    CirParams,
    ExperimentConfig,
    GridSpec,
    HurstParameter,
    check_moment_conditions,
    estimate_inverse_moments,
    fbm_covariance,
    malliavin_gap_study,
    run_convergence,
    sample_fbm_circulant,
    simulate_batch,
)
from oracles import residuals, sample_fbm_cholesky

BENCH = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0)
BASE_SEED = 1234


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def convergence_config(hurst_value: float) -> ExperimentConfig:
    return ExperimentConfig(
        params=BENCH,
        hurst=HurstParameter(hurst_value),
        horizon=1.0,
        reference_exponent=12,
        coarse_exponents=(4, 5, 6, 7, 8, 9),
        samples=200,
        base_seed=BASE_SEED,
    )


@pytest.fixture(scope="module")
def convergence_h07():
    return run_convergence(convergence_config(0.7))


@pytest.fixture(scope="module")
def uniform_reports(convergence_h07):
    reports = {hv: run_convergence(convergence_config(hv)) for hv in (0.6, 0.8)}
    reports[0.7] = convergence_h07
    slopes = {hv: reports[hv].fits["level_uniform"][0] for hv in (0.6, 0.7, 0.8)}
    uniform_at_h8 = {hv: reports[hv].rms["level_uniform"][4] for hv in (0.6, 0.7, 0.8)}
    return slopes, uniform_at_h8


def test_criterion_01_strong_order_at_grid_points(convergence_h07):
    slope, _ = convergence_h07.fits["level_grid"]
    report(
        1,
        "strong order at grid points",
        0.85 <= slope <= 1.15,
        f"slope={slope:.4f}, window=[0.85, 1.15]",
    )


def test_criterion_02_interpolation_order(uniform_reports):
    slopes, uniform_at_h8 = uniform_reports
    in_window = {
        hv: hv - 0.12 <= slopes[hv] <= hv + 0.18 for hv in (0.6, 0.7, 0.8)
    }
    decreasing = uniform_at_h8[0.6] > uniform_at_h8[0.7] > uniform_at_h8[0.8]
    detail = (
        ", ".join(f"H={hv}: slope={slopes[hv]:.4f}" for hv in (0.6, 0.7, 0.8))
        + f"; errors at h=2^-8: {[f'{uniform_at_h8[hv]:.3e}' for hv in (0.6, 0.7, 0.8)]}"
    )
    report(2, "interpolation order", all(in_window.values()) and decreasing, detail)


def test_criterion_03_rate_process_order(convergence_h07):
    slope, _ = convergence_h07.fits["rate_grid"]
    report(
        3,
        "rate-process order at grid points",
        0.85 <= slope <= 1.15,
        f"slope={slope:.4f}, window=[0.85, 1.15]",
    )


def test_criterion_04_positivity():
    grid = GridSpec(1.0, 2**10)
    hurst = HurstParameter(0.7)
    noise = sample_fbm_circulant(grid, hurst, range(2024, 2024 + 10_000))
    levels = simulate_batch(noise, grid.step, BENCH)
    nonpositive = int(np.count_nonzero(levels <= 0.0))
    report(4, "positivity over 1e4 paths", nonpositive == 0, f"nonpositive nodes={nonpositive}")


def test_criterion_05_fixed_point_exactness():
    params = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=0.5)
    levels = simulate_batch(np.zeros((1, 1001)), GridSpec(1.0, 1000).step, params)
    drift_from_root = np.abs(levels - math.sqrt(0.5)).max()
    report(
        5,
        "fixed-point exactness over 1e3 steps",
        drift_from_root <= 1e-12,
        f"max drift={drift_from_root:.2e}",
    )


def test_criterion_06_implicit_residual():
    grid = GridSpec(1.0, 512)
    hurst = HurstParameter(0.7)
    worst = 0.0
    for seed in range(100):
        (noise,) = sample_fbm_circulant(grid, hurst, [seed])
        (path,) = simulate_batch(noise[None].copy(), grid.step, BENCH)
        scaled = np.abs(residuals(path, noise, grid.step, BENCH)) / (1.0 + np.abs(path[1:]))
        worst = max(worst, float(scaled.max()))
    report(6, "implicit residual on 100 paths", worst <= 1e-12, f"max residual={worst:.2e}")


def test_criterion_07_fbm_sampler_correctness():
    grid = GridSpec(1.0, 256)
    nodes = grid.nodes()
    m = 5000
    worst_excess = -np.inf
    ks_pvalues = []
    for hv in (0.6, 0.8):
        hurst = HurstParameter(hv)
        chol = sample_fbm_cholesky(grid, hurst, range(m))
        circ = sample_fbm_circulant(grid, hurst, range(m, 2 * m))
        exact = fbm_covariance(nodes[:, None], nodes[None, :], hurst)
        spread = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / m)
        for batch in (chol, circ):
            empirical = batch.T @ batch / m
            excess = float((np.abs(empirical - exact) - 5.0 * spread).max())
            worst_excess = max(worst_excess, excess)
        ks_pvalues.append(float(stats.ks_2samp(chol[:, -1], circ[:, -1]).pvalue))
    passed = worst_excess <= 0.0 and min(ks_pvalues) >= 0.01
    report(
        7,
        "fBm sampler correctness",
        passed,
        f"worst |emp-exact|-5se={worst_excess:.2e}, KS p-values={ks_pvalues}",
    )


def test_criterion_08_condition_checker():
    holds = {
        hv: check_moment_conditions(6, BENCH, HurstParameter(hv), 1.0)[0].holds
        for hv in (0.6, 0.7, 0.8)
    }
    rng = np.random.default_rng(2024)
    sufficient_count = 0
    implication_ok = True
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
        condition = check_moment_conditions(p, params, hurst, horizon)[0]
        if condition.sufficient:
            sufficient_count += 1
            if not condition.holds:
                implication_ok = False
    passed = all(holds.values()) and implication_ok and sufficient_count >= 10
    report(
        8,
        "condition checker",
        passed,
        f"p=6 holds per H: {holds}; implication verified on "
        f"{sufficient_count}/100 sufficient cases",
    )


def test_criterion_09_inverse_moments():
    config = ExperimentConfig(
        params=BENCH,
        hurst=HurstParameter(0.7),
        horizon=10.0,
        reference_exponent=12,
        coarse_exponents=(),
        samples=100,
        base_seed=BASE_SEED,
    )
    curve = estimate_inverse_moments(config)
    bound = 1.2 * np.exp(0.5 * BENCH.kappa * curve.times) / BENCH.x0
    bounded = bool(np.all(curve.values <= bound))
    second_half = curve.values[curve.times >= 5.0]
    flatness = float(second_half.max() / second_half.min())
    report(
        9,
        "inverse moments bounded",
        bounded and flatness < 2.0,
        f"bounded={bounded}, second-half max/min={flatness:.3f}",
    )


def test_criterion_10_malliavin_consistency():
    config = ExperimentConfig(
        params=BENCH,
        hurst=HurstParameter(0.7),
        horizon=1.0,
        reference_exponent=7,
        coarse_exponents=(6, 7),
        samples=100,
        base_seed=BASE_SEED,
    )
    study = malliavin_gap_study(config)
    ratio = study.ratios[1]
    in_range = 1.6 <= ratio <= 2.4
    profile_ok = min(study.profile_min) > 0.0 and max(study.profile_max) <= 0.5 * BENCH.sigma
    report(
        10,
        "Malliavin derivative consistency",
        in_range and profile_ok,
        f"gap ratio={ratio:.3f}, profile range=({min(study.profile_min):.3g}, "
        f"{max(study.profile_max):.3g}], sigma/2={0.5 * BENCH.sigma}",
    )


def test_criterion_11_cli_reproducibility(tmp_path):
    runs = {}
    for tag in ("first", "second"):
        for name, args in {
            "converge-grid": [
                "converge-grid", "--ref-exp", "8", "--coarse-exps", "4,5",
                "--samples", "5", "--seed", "7",
            ],
            "simulate": ["simulate", "--steps-exp", "8", "--seed", "3"],
        }.items():
            out = tmp_path / tag / name
            completed = subprocess.run(
                [sys.executable, "-m", "fcir", *args, "--workers", "1", "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert completed.returncode == 0, completed.stderr
            (run_dir,) = list(out.iterdir())
            runs[(tag, name)] = (run_dir / "data.csv").read_bytes()
    identical = all(
        runs[("first", name)] == runs[("second", name)]
        for name in ("converge-grid", "simulate")
    )
    report(11, "CLI byte reproducibility", identical, "two runs, one worker, same flags")

"""Tests for the Monte Carlo harness: matched paths, reductions, regressions."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from fcir import (
    DomainError,
    ExperimentConfig,
    GridSpec,
    HurstParameter,
    NumericalError,
    UnsupportedRegimeError,
    check_fbm_samplers,
    estimate_inverse_moments,
    malliavin_gap_study,
    regress_order,
    run_convergence,
    sample_fbm_circulant,
    simulate_batch,
    simulate_paths,
)
from fcir import cli, experiments, fbm, io


def small_config(bench_params, hurst07, **overrides):
    settings = dict(
        params=bench_params,
        hurst=hurst07,
        horizon=1.0,
        reference_exponent=9,
        coarse_exponents=(4, 5, 6),
        samples=20,
        base_seed=314,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestConfig:
    def test_validation(self, bench_params, hurst07):
        with pytest.raises(DomainError):
            small_config(bench_params, hurst07, coarse_exponents=(4, 10))
        with pytest.raises(DomainError, match="distinct"):
            small_config(bench_params, hurst07, coarse_exponents=(4, 5, 4))
        with pytest.raises(DomainError):
            small_config(bench_params, hurst07, samples=0)
        with pytest.raises(DomainError, match=r"^moment order p must be >= 1, got 0$"):
            small_config(bench_params, hurst07, p=0)
        # GridSpec.dyadic names a negative exponent, before the coarse range is checked
        with pytest.raises(DomainError, match=r"^2\^-1 steps: a grid exponent must be at least"):
            small_config(bench_params, hurst07, reference_exponent=-1)
        for horizon in (0.0, math.nan):
            with pytest.raises(DomainError):
                small_config(bench_params, hurst07, horizon=horizon)
        with pytest.raises(UnsupportedRegimeError):
            small_config(bench_params, HurstParameter(0.5))

    @pytest.mark.parametrize(
        "study, name",
        [(run_convergence, "a convergence study"), (malliavin_gap_study, "a gap study")],
    )
    def test_study_needs_a_coarse_exponent(self, bench_params, hurst07, monkeypatch, study, name):
        # a config without coarse grids is valid, and is refused by the two
        # studies that compare coarse grids, before any draw
        def no_paths(*args):
            raise AssertionError("paths were simulated before the coarse grids were checked")

        monkeypatch.setattr(experiments, "_map_blocks", no_paths)
        config = small_config(bench_params, hurst07, coarse_exponents=())
        with pytest.raises(DomainError, match=rf"^{name} needs at least one coarse exponent$"):
            study(config)

    def test_step_sizes(self, bench_params, hurst07):
        config = small_config(bench_params, hurst07)
        assert config.step_sizes() == (2.0**-4, 2.0**-5, 2.0**-6)
        assert config.reference_grid.steps == 512

    def test_negative_kappa_step_constraint(self, hurst07):
        from fcir import CirParams

        params = CirParams(kappa=-2.0, theta=-0.5, sigma=0.5, r0=1.0)
        # the solver admits h*max(0, -kappa/2) < 1, so h < 1: the coarse step
        # 2^0 = 1 is refused and 2^-1 accepted
        settings = dict(
            params=params, hurst=hurst07, horizon=1.0, reference_exponent=6, samples=1,
            base_seed=0,
        )
        with pytest.raises(
            DomainError, match=r"^step 1\.0 violates h\*max\(0, -kappa/2\) < 1 for kappa=-2\.0$"
        ):
            ExperimentConfig(coarse_exponents=(0, 1), **settings)
        ExperimentConfig(coarse_exponents=(1,), **settings)


class TestRegressOrder:
    def test_exact_power_laws(self):
        h = 2.0 ** -np.arange(4, 10)
        for exponent in (1.0, 0.7, 0.0):
            slope, intercept = regress_order(h, 3.7 * h**exponent)
            assert slope == pytest.approx(exponent, abs=1e-12)
            assert intercept == pytest.approx(np.log2(3.7), abs=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("argument", ["step_sizes", "errors"])
    def test_non_finite_input_refused(self, argument, value):
        # without the check nan or inf errors gave (nan, nan), and a nan step
        # size raised LinAlgError from LAPACK
        inputs = {"step_sizes": [0.5, 0.25, 0.125], "errors": [0.1, 0.05, 0.025]}
        inputs[argument][1] = value
        with pytest.raises(DomainError, match=f"finite, positive {argument.replace('_', ' ')}"):
            regress_order(**inputs)

    @pytest.mark.parametrize(
        "step_sizes, errors", [([0.5, 0.5], [0.1, 0.2]), ([0.25] * 3, [0.1] * 3)]
    )
    def test_repeated_step_size_refused(self, step_sizes, errors):
        # np.polyfit fits a single step size with only a RankWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at least two distinct step sizes"):
                regress_order(step_sizes, errors)

    def test_domain(self):
        with pytest.raises(DomainError):
            regress_order([0.5], [0.1])
        with pytest.raises(DomainError):
            regress_order([0.5, 0.25], [0.1, 0.0])
        with pytest.raises(DomainError):
            regress_order([0.5, -0.25], [0.1, 0.05])
        with pytest.raises(DomainError):
            regress_order([0.5, 0.25], [0.1, 0.05, 0.01])


class TestMatchedPathDesign:
    def test_coarse_increments_sum_fine(self, hurst07):
        # shared-noise restriction: coarse increments are panel sums of fine
        (path,) = sample_fbm_circulant(GridSpec(1.0, 256), hurst07, [123])
        for factor in (2, 8, 64):
            sums = np.add.reduceat(np.diff(path), np.arange(0, 256, factor))
            assert np.abs(np.diff(path[::factor]) - sums).max() <= 1e-12

    def test_report_matches_public_operations(self, bench_params, hurst07):
        # with one sample the aggregated error is the per-path sup, which must
        # reproduce a manual reconstruction through the public path operations
        config = small_config(
            bench_params, hurst07, reference_exponent=7, coarse_exponents=(4,), samples=1
        )
        report = run_convergence(config)
        ref_grid, coarse_grid = config.reference_grid, GridSpec(1.0, 2**4)
        seed = config.base_seed
        noise = sample_fbm_circulant(ref_grid, hurst07, [seed])
        coarse = simulate_batch(noise[:, ::8].copy(), coarse_grid.step, bench_params)[0]
        reference = simulate_batch(noise, ref_grid.step, bench_params)[0]
        grid_error = np.abs(reference[::8][1:] - coarse[1:]).max()
        interpolated = np.interp(ref_grid.nodes(), coarse_grid.nodes(), coarse)
        uniform_error = np.abs(reference[1:] - interpolated[1:]).max()
        rate_error = np.abs(reference[1:] ** 2 - interpolated[1:] ** 2).max()
        assert report.rms["level_grid"][0] == pytest.approx(grid_error, rel=1e-15)
        assert report.rms["level_uniform"][0] == pytest.approx(uniform_error, rel=1e-15)
        assert report.rms["rate_uniform"][0] == pytest.approx(rate_error, rel=1e-15)

    def test_identical_grid_gives_zero_error(self, bench_params, hurst07):
        config = small_config(
            bench_params, hurst07, reference_exponent=6, coarse_exponents=(6,), samples=3
        )
        report = run_convergence(config)
        assert report.rms["level_grid"] == (0.0,)
        assert report.rms["level_uniform"] == (0.0,)
        assert report.fits == dict.fromkeys(experiments._ERROR_FAMILIES)
        skipped = [note for note in report.warnings if "order fit skipped" in note]
        assert len(skipped) == 1
        assert all(family in skipped[0] for family in experiments._ERROR_FAMILIES)


def grid_errors(config, noise):
    """Oracle: the level and rate errors at shared nodes, one (paths, 2^e) array per grid."""
    x_ref = simulate_batch(noise.copy(), config.reference_grid.step, config.params)
    shape = (len(noise), len(config.coarse_exponents))
    level, rate = np.empty(shape), np.empty(shape)
    for j, exponent in enumerate(config.coarse_exponents):
        grid = config.coarse_grid(exponent)
        factor = 2 ** (config.reference_exponent - exponent)
        x = simulate_batch(noise[:, ::factor].copy(), grid.step, config.params)
        shared_ref = x_ref[:, ::factor]
        level[:, j] = np.abs(shared_ref[:, 1:] - x[:, 1:]).max(axis=1)
        rate[:, j] = np.abs(shared_ref[:, 1:] ** 2 - x[:, 1:] ** 2).max(axis=1)
    return level, rate


def interp_uniform_errors(config, noise):
    """Oracle: the uniform-norm level and rate errors through np.interp, path by path."""
    ref_grid = config.reference_grid
    x_ref = simulate_batch(noise.copy(), ref_grid.step, config.params)
    shape = (len(noise), len(config.coarse_exponents))
    level, rate = np.empty(shape), np.empty(shape)
    for j, exponent in enumerate(config.coarse_exponents):
        grid = config.coarse_grid(exponent)
        factor = 2 ** (config.reference_exponent - exponent)
        x = simulate_batch(noise[:, ::factor].copy(), grid.step, config.params)
        for row in range(len(noise)):
            interpolated = np.interp(ref_grid.nodes(), grid.nodes(), x[row])
            level[row, j] = np.abs(x_ref[row, 1:] - interpolated[1:]).max()
            rate[row, j] = np.abs(x_ref[row, 1:] ** 2 - interpolated[1:] ** 2).max()
    return level, rate


class TestUniformReduction:
    # coarse exponent 0 is one panel over the horizon, 8 is the reference grid
    # itself (factor 1); horizons 0.3 and 10 have nodes that are not dyadic
    @pytest.mark.parametrize("horizon", [1.0, 0.3, 10.0])
    def test_matches_interp_oracle(self, bench_params, hurst07, horizon):
        config = small_config(
            bench_params, hurst07, horizon=horizon, reference_exponent=8,
            coarse_exponents=(0, 1, 3, 6, 8), samples=5,
        )
        seeds = [config.base_seed + i for i in range(config.samples)]
        noise = sample_fbm_circulant(config.reference_grid, hurst07, seeds)
        # the block overwrites the noise it is handed, and the oracles reuse it
        level_grid, level, rate_grid, rate = experiments._convergence_block(config, noise.copy())
        oracle_level, oracle_rate = interp_uniform_errors(config, noise)
        assert np.array_equal(level, oracle_level)
        assert np.array_equal(rate, oracle_rate)
        assert np.all(level[:, -1] == 0.0) and np.all(rate[:, -1] == 0.0)
        # the grid families are read off the same pass at the coarse nodes
        oracle_level_grid, oracle_rate_grid = grid_errors(config, noise)
        assert np.array_equal(level_grid, oracle_level_grid)
        assert np.array_equal(rate_grid, oracle_rate_grid)

    def test_overflowing_coarse_level_raises(self, bench_params, hurst07):
        # The coarse step sees a = 1.4e154, whose square overflows, so its
        # first level would be inf while the reference levels stay finite.
        config = small_config(
            bench_params, hurst07, reference_exponent=2, coarse_exponents=(1,), samples=1
        )
        noise = np.array([[0.0, 2.8e154, 5.6e154, 5.6e154, 5.6e154]])
        message = "level inf at step 1 of path 0 is not finite and positive"
        with np.errstate(over="ignore"):
            x_ref = simulate_batch(noise.copy(), 0.25, config.params)
            assert np.all(np.isfinite(x_ref))
            with pytest.raises(NumericalError, match=message):
                simulate_batch(noise[:, ::2].copy(), 0.5, config.params)
            with pytest.raises(NumericalError, match=message):
                experiments._convergence_block(config, noise)


class TestAggregateMoment:
    # exactly-zero errors stay legal: see test_identical_grid_gives_zero_error
    @pytest.mark.parametrize("largest, moment", [(0.02, "0.0"), (1e3, "inf")])
    def test_lost_moment_raises(self, largest, moment):
        # 0.02^400 underflows to 0 and 1000^400 overflows to inf
        per_path = np.array([[0.0, 0.01], [0.0, largest]])
        with np.errstate(over="ignore", under="ignore"), pytest.raises(
            NumericalError, match=rf"\(1/400\) reads {moment} where"
        ):
            experiments._aggregate_moment(per_path, 400)


class TestConvergenceReports:
    def test_deterministic_for_fixed_seed(self, bench_params, hurst07):
        config = small_config(bench_params, hurst07, samples=1)
        assert run_convergence(config) == run_convergence(config)

    def test_worker_count_invariance(self, bench_params, hurst07):
        config = small_config(bench_params, hurst07, samples=8)
        assert run_convergence(config, workers=1) == run_convergence(config, workers=3)

    def test_error_families_and_fit(self, bench_params, hurst07):
        config = small_config(bench_params, hurst07, samples=50)
        report = run_convergence(config)
        assert list(report.rms) == list(report.fits) == list(experiments._ERROR_FAMILIES)
        assert len(report.rms["level_grid"]) == 3
        # uniform sup dominates the grid sup: it ranges over a superset
        for grid_error, uniform_error in zip(
            report.rms["level_grid"], report.rms["level_uniform"]
        ):
            assert uniform_error >= grid_error
        # errors shrink under refinement, with a 10% Monte Carlo allowance
        for family, errors in report.rms.items():
            assert all(e > 0.0 for e in errors)
            for coarser, finer in zip(errors, errors[1:]):
                assert finer <= 1.1 * coarser, f"{family} error grew: {errors}"
        # every family is fitted, each by regress_order on its own errors
        for family, fit in report.fits.items():
            assert fit is not None, family
            assert fit == regress_order(report.step_sizes, report.rms[family]), family

    def test_condition_checks_attached(self, bench_params, hurst07):
        config = small_config(bench_params, hurst07, samples=2)
        report = run_convergence(config)
        multipliers = sorted(check.multiplier for check in report.condition_checks)
        assert multipliers == [config.p + 1, 3 * config.p + 1]
        assert all(check.holds for check in report.condition_checks)
        assert report.warnings == ()

    def test_failed_condition_is_warning_not_abort(self, hurst07):
        from fcir import CirParams

        wild = CirParams(kappa=2.0, theta=0.5, sigma=50.0, r0=1.0)
        config = small_config(wild, hurst07, reference_exponent=8, samples=2)
        report = run_convergence(config)
        assert any(not check.holds for check in report.condition_checks)
        assert any("condition" in note for note in report.warnings)
        assert all(e > 0.0 for e in report.rms["level_grid"])

    def test_overflowing_condition_raises_before_any_path(
        self, bench_params, hurst07, monkeypatch
    ):
        def no_paths(*args):
            raise AssertionError("paths were simulated before the condition check")

        monkeypatch.setattr(experiments, "_map_blocks", no_paths)
        wild = dataclasses.replace(bench_params, sigma=2e155)
        config = small_config(wild, hurst07, horizon=1e-6, p=1)
        with pytest.raises(NumericalError, match="margin overflows"):
            run_convergence(config)


class TestInverseMoments:
    def test_initial_node_is_deterministic(self, bench_params, hurst07):
        config = small_config(
            bench_params, hurst07, coarse_exponents=(), reference_exponent=7, samples=25
        )
        curve = estimate_inverse_moments(config)
        assert curve.values[0] == 1.0 / np.sqrt(bench_params.r0)
        assert curve.times.shape == curve.values.shape == (129,)
        assert np.all(curve.values > 0.0)

    def test_doubling_samples_is_stable(self, bench_params, hurst07):
        # estimates move by less than 3 delta-method standard errors when the
        # sample count doubles (first half of the seeds is shared)
        base = small_config(
            bench_params, hurst07, coarse_exponents=(), reference_exponent=7, samples=60
        )
        doubled = small_config(
            bench_params, hurst07, coarse_exponents=(), reference_exponent=7, samples=120
        )
        p = base.p
        est_small = estimate_inverse_moments(base)
        est_big = estimate_inverse_moments(doubled)

        grid = base.reference_grid
        powers = np.stack(
            [
                simulate_powers(bench_params, hurst07, grid, base.base_seed + i, p)
                for i in range(base.samples)
            ]
        )
        se_mean = powers.std(axis=0, ddof=1) / np.sqrt(2 * base.samples)
        mean_big = est_big.values**p
        se_estimate = se_mean / (p * mean_big ** (1.0 - 1.0 / p))
        gap = np.abs(est_small.values - est_big.values)
        assert np.all(gap <= 3.0 * se_estimate + 1e-15)

    @pytest.mark.parametrize("nodes", [None, 2 * 129])
    def test_equals_mean_of_path_powers(self, bench_params, hurst07, monkeypatch, nodes):
        # the running sum over blocks of 2 paths (or one block) is np.mean(axis=0)
        if nodes is not None:
            monkeypatch.setattr(experiments, "_BLOCK_NODES", nodes)
        config = small_config(
            bench_params, hurst07, coarse_exponents=(), reference_exponent=7, samples=7
        )
        grid = config.reference_grid
        powers = np.stack(
            [
                simulate_powers(bench_params, hurst07, grid, config.base_seed + i, 2)
                for i in range(config.samples)
            ]
        )
        curve = estimate_inverse_moments(config)
        assert np.array_equal(curve.values, np.mean(powers, axis=0) ** 0.5)

    def test_worker_invariance(self, bench_params, hurst07):
        config = small_config(
            bench_params, hurst07, coarse_exponents=(), reference_exponent=6, samples=9
        )
        one = estimate_inverse_moments(config, workers=1)
        three = estimate_inverse_moments(config, workers=3)
        assert np.array_equal(one.values, three.values)


class TestSimulatePaths:
    def test_rows_are_single_seed_solves(self, bench_params, hurst07):
        # row i is the path of seed base_seed + i solved alone
        config = small_config(bench_params, hurst07, reference_exponent=6, samples=5)
        grid = config.reference_grid
        levels = simulate_paths(config)
        assert levels.shape == (5, grid.steps + 1)
        for i, row in enumerate(levels):
            noise = sample_fbm_circulant(grid, hurst07, [config.base_seed + i])
            assert np.array_equal(row, simulate_batch(noise, grid.step, bench_params)[0])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nodes", [3 * 65, 64])
    def test_independent_of_block_split(self, bench_params, hurst07, monkeypatch, nodes, workers):
        config = small_config(bench_params, hurst07, reference_exponent=6, samples=10)
        one_block = simulate_paths(config)
        monkeypatch.setattr(experiments, "_BLOCK_NODES", nodes)
        assert np.array_equal(simulate_paths(config, workers=workers), one_block)


class TestBlockDriver:
    # 10 paths of 2^6 + 1 = 65 reference nodes: a 195-node budget gives blocks
    # of 3 paths with a partial last block, a 64-node budget is below one path
    # and gives blocks of 1; unpatched, every study runs as one block
    SPLITS = {3 * 65: [3, 3, 3, 1], 64: [1] * 10}
    STUDIES = (run_convergence, estimate_inverse_moments, malliavin_gap_study)

    @pytest.fixture
    def config(self, bench_params, hurst07):
        return small_config(
            bench_params, hurst07, reference_exponent=6, coarse_exponents=(3, 4, 5), samples=10
        )

    def patch_budgets(self, monkeypatch, nodes):
        monkeypatch.setattr(experiments, "_BLOCK_NODES", nodes)

    @pytest.mark.parametrize("nodes", SPLITS)
    def test_block_sizes(self, config, monkeypatch, nodes):
        seen = []
        for name in ("_convergence_block", "_solve_block", "_malliavin_block"):
            kernel = getattr(experiments, name)

            def recording(config, noise, kernel=kernel):
                seen.append(len(noise))
                return kernel(config, noise)

            monkeypatch.setattr(experiments, name, recording)
        for study in self.STUDIES:
            study(config)
        assert seen == [10] * 3
        seen.clear()
        self.patch_budgets(monkeypatch, nodes)
        for study in self.STUDIES:
            study(config)
        assert seen == self.SPLITS[nodes] * 3
        assert list(config.block_rows(1)) == self.SPLITS[nodes]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_benchmark_study_runs_in_two_equal_blocks(self, workers):
        # 400 paths of 2^14 + 1 nodes: 255 fit in a block, so the fewest blocks
        # are 2, of 200 paths each, not 255 + 145; two workers give the same
        args = cli.build_parser().parse_args(
            "converge-uniform --ref-exp 14 --coarse-exps 4,5,6,7,8,9,10,11 --samples 400".split()
        )
        assert cli._experiment_config(args).block_rows(workers) == (200, 200)

    @pytest.mark.parametrize("command", ["simulate", "converge-grid", "converge-uniform",
                                         "inverse-moments", "malliavin-check"])
    def test_default_studies_run_in_one_block(self, command):
        # each study at its default flags, and the gap study at 200 paths of
        # 2^11 steps, fits in one block at one worker
        argv = [command]
        if command == "malliavin-check":
            argv += "--ref-exp 11 --coarse-exps 7,8,9,10 --samples 200".split()
        config = cli._experiment_config(cli.build_parser().parse_args(argv))
        assert config.block_rows(1) == (config.samples,)

    def test_fewest_equal_blocks_within_the_budget(self, bench_params, hurst07, monkeypatch):
        for samples in (1, 2, 7, 10, 64, 400):
            config = small_config(
                bench_params, hurst07, reference_exponent=6, coarse_exponents=(3,),
                samples=samples,
            )
            for nodes in (1, 64, 65, 3 * 65, 7 * 65 + 1, 2**22):
                self.patch_budgets(monkeypatch, nodes)
                for workers in (1, 2, 3, 64):
                    rows = config.block_rows(workers)
                    most = max(1, min(nodes // 65, -(-samples // workers)))
                    case = (samples, nodes, workers, rows)
                    assert sum(rows) == samples, case
                    # within the budget (one path where none fits), in the fewest
                    # such blocks, all of one size but a smaller last one
                    assert max(rows) <= most, case
                    assert len(rows) == -(-samples // most), case
                    assert rows[0] == -(-samples // len(rows)), case
                    assert set(rows[:-1]) <= {rows[0]} and rows[-1] <= rows[0], case

    def test_equal_blocks_lower_the_traced_peak(self, bench_params, hurst07, monkeypatch):
        # 80 paths of 2^12 + 1 nodes with a budget of 60 paths: blocks of 60 +
        # 20 hold 60 noise rows at once, blocks of 40 + 40 only 40.  Traced,
        # with the sampler's tiles (24 rows) and the kernels' buffers, the
        # peaks read 94 and 75 noise rows.
        config = small_config(
            bench_params, hurst07, reference_exponent=12, coarse_exponents=(4, 5, 6, 7),
            samples=80,
        )
        row_bytes = (config.reference_grid.steps + 1) * 8
        self.patch_budgets(monkeypatch, 60 * (config.reference_grid.steps + 1))
        assert config.block_rows(1) == (40, 40)
        run_convergence(config)  # the modules a run imports are loaded before tracing
        tracemalloc.start()
        try:
            run_convergence(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 85 * row_bytes, peak / row_bytes

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nodes", SPLITS)
    def test_reports_independent_of_block_split(self, config, monkeypatch, nodes, workers):
        one_block = [study(config) for study in self.STUDIES]
        self.patch_budgets(monkeypatch, nodes)
        for study, expected in zip(self.STUDIES, one_block):
            split = study(config, workers=workers)
            for field in dataclasses.fields(expected):
                np.testing.assert_equal(
                    getattr(split, field.name), getattr(expected, field.name), err_msg=field.name
                )

    # The coarse grids have 9, 17 and 33 nodes: one row per chunk; chunks of
    # 7 + 3, 4 + 4 + 2 and 2 x 5 rows; one chunk just over the whole block.
    @pytest.mark.parametrize("rows_nodes", [1, 4 * 17, 10 * 33 + 1])
    def test_gap_report_independent_of_row_chunks(self, config, monkeypatch, rows_nodes):
        expected = malliavin_gap_study(config)
        monkeypatch.setattr(experiments, "_ROW_NODES", rows_nodes)
        chunked = malliavin_gap_study(config)
        for field in dataclasses.fields(expected):
            np.testing.assert_equal(
                getattr(chunked, field.name), getattr(expected, field.name), err_msg=field.name
            )

    @pytest.mark.parametrize("nodes", [None, *SPLITS])
    def test_gap_block_solves_each_coarse_grid_once(self, config, monkeypatch, nodes):
        widths = []

        def recording(noise, *args, **kwargs):
            widths.append(len(noise))
            return simulate_batch(noise, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_batch", recording)
        if nodes is not None:
            self.patch_budgets(monkeypatch, nodes)
        malliavin_gap_study(config)
        blocks = self.SPLITS.get(nodes, [config.samples])
        coarse = len(config.coarse_exponents)
        assert widths == [rows for rows in blocks for _ in range(coarse)]

    @pytest.mark.parametrize(
        "block", ["_convergence_block", "_solve_block", "_malliavin_block"]
    )
    def test_block_holds_one_noise_sized_array(self, bench_params, hurst07, block):
        # Beyond the noise it is handed, a block holds the coarse levels and
        # buffers of one path, one 64-step chunk or one row chunk of the
        # derivative forms.  A block that keeps the increments and the
        # reference levels beside the noise reaches about 3x the noise; a gap
        # block that forms the derivative forms over all paths at once holds
        # about 8 copies of the finest coarse levels.
        config = small_config(
            bench_params, hurst07, reference_exponent=12, coarse_exponents=(4, 5, 6, 7, 8, 9),
            samples=64,
        )
        seeds = [config.base_seed + i for i in range(config.samples)]
        noise = sample_fbm_circulant(config.reference_grid, hurst07, seeds)
        noise_bytes = noise.nbytes
        coarse_bytes = sum(config.samples * (2**e + 1) * 8 for e in config.coarse_exponents)
        tracemalloc.start()
        try:
            getattr(experiments, block)(config, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = noise_bytes + peak
        assert held < 1.5 * noise_bytes + coarse_bytes, (held, noise_bytes, coarse_bytes)


class TestSamplerChecks:
    def test_records_without_the_cli(self, hurst07, tmp_path):
        checks = check_fbm_samplers(GridSpec(1.0, 32), hurst07, 400, 3)
        assert [c.name for c in checks] == [
            "exact_terminal_variance_z",
            "circulant_terminal_variance_z",
            "covariance_max_z",
            "cross_sampler_ks_pvalue",
            "holder_p99_stability",
        ]
        assert all(c.passed for c in checks), checks
        assert all(math.isfinite(c.statistic) for c in checks)
        assert checks == check_fbm_samplers(GridSpec(1.0, 32), hurst07, 400, 3)

        # fbm-check's table of the same checks
        args = cli.build_parser().parse_args(
            ["fbm-check", "--steps-exp", "5", "--samples", "400", "--seed", "3", "--workers", "1"]
        )
        tables, _, _ = cli.SUBCOMMANDS["fbm-check"].run(args)
        io.write_table(tmp_path / "data.csv", tables["data.csv"])
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[0] == "check,statistic,threshold,passed"
        assert lines[4].startswith("cross_sampler_ks_pvalue,")
        assert lines[4].endswith(",0.01,true")

    def test_samples_validated(self, hurst07):
        with pytest.raises(DomainError):
            check_fbm_samplers(GridSpec(1.0, 8), hurst07, 0, 3)

    @pytest.mark.parametrize("nodes", [1, 100, 33 * 5])
    def test_statistics_do_not_depend_on_the_row_blocks(self, monkeypatch, hurst07, nodes):
        # circulant tiles of 1, 1 and 2 rows of 64 embedding nodes, and
        # covariance slices of 1, 3 and 5 rows of 33 nodes, which split the 33
        # covariance rows unevenly
        expected = check_fbm_samplers(GridSpec(1.0, 32), hurst07, 400, 3)
        monkeypatch.setattr(fbm, "_TILE_NODES", nodes)
        monkeypatch.setattr(experiments, "_ROW_NODES", nodes)
        assert check_fbm_samplers(GridSpec(1.0, 32), hurst07, 400, 3) == expected

    def test_holds_the_batch_and_the_empirical_covariance(self, hurst07):
        # Beyond the circulant batch and the exact terminal draws it holds the
        # empirical covariance and row slices of 2^14 nodes: about 1.1 (N+1)^2
        # doubles here.  Forming the exact covariance, the spread, the
        # differences and the z-scores over the whole matrix holds about 8.6.
        grid, samples = GridSpec.dyadic(1.0, 10), 200
        square_bytes = (grid.steps + 1) ** 2 * 8
        batch_bytes = samples * (grid.steps + 1) * 8
        tracemalloc.start()
        try:
            check_fbm_samplers(grid, hurst07, samples, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * square_bytes + batch_bytes, peak / square_bytes

    def test_first_holder_batch_is_freed_before_the_second_draw(self, monkeypatch, hurst07):
        # The Hoelder check draws 100 paths at N steps, then 100 at 2N.  A
        # first batch still held at the second draw is 100 (N+1) doubles,
        # 820 KB here.
        grid = GridSpec.dyadic(1.0, 10)
        traced_at_entry = {}

        def traced_draw(draw_grid, hurst, seeds):
            if len(seeds) == 100:
                traced_at_entry[draw_grid.steps] = tracemalloc.get_traced_memory()[0]
            return sample_fbm_circulant(draw_grid, hurst, seeds)

        monkeypatch.setattr(experiments, "sample_fbm_circulant", traced_draw)
        tracemalloc.start()
        try:
            check_fbm_samplers(grid, hurst07, 50, 3)
        finally:
            tracemalloc.stop()
        grown = traced_at_entry[2 * grid.steps] - traced_at_entry[grid.steps]
        assert grown < 100_000, grown

    @pytest.mark.parametrize("steps", [1, 8])
    def test_underflowing_variance_refused_before_any_draw(self, monkeypatch, hurst07, steps):
        # horizon^(2H) underflows to 0, and with it step^(2H): the circulant
        # embedding refuses it before the exact terminal values are drawn
        def no_draws(*args):
            raise AssertionError("drew exact terminal values of zero variance")

        monkeypatch.setattr(experiments, "sample_fbm_terminals", no_draws)
        with pytest.raises(NumericalError, match=r"^fGn variance step\^\(2H\) underflows to 0"):
            check_fbm_samplers(GridSpec(1e-300, steps), hurst07, 5, 3)

    @pytest.mark.parametrize("hurst", [0.05, 0.1])
    def test_holder_exponent_refused_before_any_draw(self, monkeypatch, hurst):
        def no_draws(*args):
            raise AssertionError("sampled noise for H <= 0.1")

        for name in ("sample_fbm_terminals", "sample_fbm_circulant"):
            monkeypatch.setattr(experiments, name, no_draws)
        with pytest.raises(DomainError, match=rf"needs H > 0\.1, got H = {hurst}:"):
            check_fbm_samplers(GridSpec(1.0, 8), HurstParameter(hurst), 4, 3)


def ks_cases():
    """Derandomized pairs of equal-size samples: independent, shifted, tied, identical."""
    rng = np.random.default_rng(2024)
    for n in (*range(1, 61), 200, 257, 2000, 10000):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        yield n, "independent", x, y
        yield n, "shifted", x, y + 0.5
        yield n, "tied", np.round(x, 1), np.round(y, 1)
        yield n, "identical", x, x.copy()


class TestKsPvalue:
    def test_equals_scipy_where_scipy_is_exact(self):
        compared = 0
        for n, kind, x, y in ks_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    expected = float(stats.ks_2samp(x, y).pvalue)
                except RuntimeWarning:
                    continue  # scipy fell back to its asymptotic form
            assert experiments._ks_pvalue_equal_sizes(x, y) == expected, (n, kind)
            compared += 1
        assert compared >= 250

    def test_one_step_gap_is_certain(self):
        # every pair of samples has h >= 1, so P(D >= 1/n) = 1; the series rounds
        # above 1 at n = 7, where scipy falls back to its asymptotic 0.99996
        x = np.arange(7.0)
        assert experiments._ks_pvalue_equal_sizes(x, x + 0.5) == 1.0

    def test_exact_above_ten_thousand_samples(self):
        # scipy's default switches to the asymptotic form above 10 000 samples
        rng = np.random.default_rng(10001)
        x, y = rng.standard_normal(10001), rng.standard_normal(10001)
        exact = float(stats.ks_2samp(x, y, method="exact").pvalue)
        assert experiments._ks_pvalue_equal_sizes(x, y) == exact
        assert exact != float(stats.ks_2samp(x, y).pvalue)

    def test_nan_propagates(self):
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.5, np.nan, 1.5])
        assert math.isnan(experiments._ks_pvalue_equal_sizes(x, y))
        assert math.isnan(experiments._ks_pvalue_equal_sizes(y, x))


def simulate_powers(params, hurst, grid, seed, p):
    (levels,) = simulate_batch(sample_fbm_circulant(grid, hurst, [seed]), grid.step, params)
    return levels ** (-float(p))

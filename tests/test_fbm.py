"""Tests for the fBm types, covariance functions, and exact samplers."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fcir import (
    CirParams,
    DomainError,
    ExperimentConfig,
    GridSpec,
    HurstParameter,
    NumericalError,
    fbm_covariance,
    fgn_autocovariance,
    holder_statistic,
    malliavin_terminal_forms,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    simulate_batch,
)
from fcir import experiments
from fcir import fbm as fbm_module
from fcir.fbm import _cholesky_factor, _embedding_coefficients, _generators

H06, H07 = HurstParameter(0.6), HurstParameter(0.7)


def reference_rng(seed):
    """numpy's own seeding of the path's PCG64 generator, independent of fcir."""
    return np.random.Generator(np.random.PCG64(int(seed) % 2**64))


def circulant_oracle(grid, hurst, seed):
    """One-path half-spectrum sampler with the frozen spectrum layout, step by step."""
    n = grid.steps
    coefficients = _embedding_coefficients(n, grid.step, hurst)
    z = reference_rng(seed).standard_normal(2 * n)
    scale = coefficients[1:n] * np.sqrt(0.5)
    real = np.concatenate([[z[0] * coefficients[0]], z[2 : n + 1] * scale, [z[1] * coefficients[n]]])
    imag = np.concatenate([[0.0], z[n + 1 :] * scale, [0.0]])
    spectrum = np.conj(real + 1j * imag)
    increments = np.fft.irfft(spectrum, 2 * n, norm="forward")[:n]
    return np.concatenate([[0.0], np.cumsum(increments)])


def cholesky_oracle(grid, hurst, seed):
    """One Cholesky draw: the factor times the path's normals, then prefix sums."""
    factor = _cholesky_factor(grid.steps, grid.step, hurst)
    increments = factor @ reference_rng(seed).standard_normal(grid.steps)
    return np.concatenate([[0.0], np.cumsum(increments)])


def holder_oracle(values, step, exponent):
    """The Hoelder quotient of one path, lag by lag with Python's max."""
    best, k = 0.0, 1
    while k < len(values):
        best = max(best, np.abs(values[k:] - values[:-k]).max() / (k * step) ** exponent)
        k *= 2
    return best


def complex_fft_oracle(grid, hurst, seed):
    """The same path through the full 2N complex FFT of the mirrored spectrum."""
    n = grid.steps
    gamma = fgn_autocovariance(np.arange(n + 1), grid.step, hurst)
    eigenvalues = np.fft.fft(np.concatenate([gamma, gamma[1:-1][::-1]])).real
    coefficients = np.sqrt(np.clip(eigenvalues, 0.0, None) / (2.0 * n))
    z = reference_rng(seed).standard_normal(2 * n)
    spectrum = np.empty(2 * n, dtype=complex)
    spectrum[0] = z[0]
    spectrum[n] = z[1]
    if n > 1:
        spectrum[1:n] = (z[2 : n + 1] + 1j * z[n + 1 :]) / np.sqrt(2.0)
        spectrum[n + 1 :] = np.conj(spectrum[1:n][::-1])
    increments = np.fft.fft(coefficients * spectrum).real[:n]
    return np.concatenate([[0.0], np.cumsum(increments)])


class TestTypes:
    def test_hurst_domain(self):
        assert HurstParameter(0.7).value == 0.7
        assert HurstParameter(0.75).alpha == pytest.approx(0.75 * 0.5)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                HurstParameter(bad)

    def test_grid_spec(self):
        grid = GridSpec(2.0, 8)
        assert grid.step == 0.25
        assert np.array_equal(grid.nodes(), 0.25 * np.arange(9))
        with pytest.raises(DomainError):
            GridSpec(0.0, 8)
        with pytest.raises(DomainError):
            GridSpec(1.0, 0)

    def test_grid_too_large_for_numpy(self):
        # the largest step count whose float64 node array numpy can size is
        # accepted (nothing is allocated); one more step is a domain error
        largest = np.iinfo(np.intp).max // 8 - 1
        assert GridSpec(1.0, largest).steps == largest
        for steps in (largest + 1, 2**62, 2**64):
            with pytest.raises(DomainError, match="too many"):
                GridSpec(1.0, steps)

    def test_dyadic_grid_checks_the_exponent(self):
        # 2^59 steps is the largest power of two numpy can size; the message
        # names 2^e instead of writing out its digits
        assert GridSpec.dyadic(1.0, 59).steps == 2**59
        for exponent in (60, 64, 20000):
            with pytest.raises(DomainError, match=rf"^2\^{exponent} steps are too many"):
                GridSpec.dyadic(1.0, exponent)

    def test_fbm_path_starts_at_zero(self):
        # every sampled row holds N+1 levels and is pinned to 0 at t = 0
        grid = GridSpec(1.0, 4)
        for sampler in (sample_fbm_cholesky, sample_fbm_circulant):
            levels = sampler(grid, HurstParameter(0.7), [3, 4])
            assert levels.shape == (2, 5)
            assert np.array_equal(levels[:, 0], [0.0, 0.0])
            assert np.all(levels[:, 1:] != 0.0)


class TestCovarianceFunctions:
    def test_fbm_covariance_values(self):
        assert fbm_covariance(1.0, 1.0, HurstParameter(0.75)) == pytest.approx(1.0)
        assert fbm_covariance(3.7, 0.0, H06) == 0.0
        # H = 1/2 reduces to min(s, t)
        assert fbm_covariance(2.0, 1.0, HurstParameter(0.5)) == pytest.approx(1.0)
        assert fbm_covariance(1.3, 0.4, H07) == fbm_covariance(0.4, 1.3, H07)
        with pytest.raises(DomainError):
            fbm_covariance(-1.0, 1.0, H07)

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_diagonal_is_power_law(self, H):
        t = np.linspace(0.1, 3.0, 13)
        assert np.allclose(fbm_covariance(t, t, HurstParameter(H)), t ** (2 * H), rtol=1e-14)

    def test_fgn_autocovariance_values(self):
        assert fgn_autocovariance(0, 1.0, H07) == pytest.approx(1.0)
        assert fgn_autocovariance(0, 0.5, HurstParameter(0.5)) == pytest.approx(0.5)
        assert fgn_autocovariance(1, 1.0, HurstParameter(0.5)) == pytest.approx(0.0)
        with pytest.raises(DomainError):
            fgn_autocovariance(0, 0.0, H07)
        with pytest.raises(DomainError, match="^lag must be nonnegative$"):
            fgn_autocovariance([0, -1], 1.0, H07)

    def test_increment_sums_reproduce_variance(self):
        # Var(B(t_n)) assembled from increment covariances must match the
        # closed form at every node.
        grid = GridSpec(1.7, 64)
        H = HurstParameter(0.65)
        lags = np.arange(64)
        gamma = fgn_autocovariance(lags, grid.step, H)
        cov = gamma[np.abs(lags[:, None] - lags[None, :])]
        for n, t in enumerate(grid.nodes()[1:], start=1):
            var_n = cov[:n, :n].sum()
            exact = fbm_covariance(t, t, H)
            assert abs(var_n - exact) <= 1e-10 * exact

@pytest.mark.parametrize("sampler", [sample_fbm_cholesky, sample_fbm_circulant])
class TestSamplerContracts:
    def test_same_seed_bit_identical(self, sampler):
        grid = GridSpec(1.0, 128)
        a = sampler(grid, H07, [12345, 12345])
        b = sampler(grid, H07, [12345])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[0])
        assert a[0, 0] == 0.0

    def test_seed_wraps_at_64_bits(self, sampler):
        grid = GridSpec(1.0, 8)
        wrapped = sampler(grid, H07, [-1])
        assert np.array_equal(wrapped, sampler(grid, H07, [2**64 - 1]))

    def test_unit_time_marginal_variance(self, sampler):
        # B(1) is standard normal when T = 1: sample variance over 1e5 seeds
        # within 3 standard errors of 1.
        grid = GridSpec(1.0, 1)
        draws = sampler(grid, H07, range(100_000))[:, 1]
        se = np.sqrt(2.0 / draws.size)
        print(f"{sampler.__name__}: var={draws.var():.5f} (3se={3 * se:.5f})")
        assert abs(draws.var() - 1.0) <= 3.0 * se

    def test_no_seeds_no_rows(self, sampler):
        assert sampler(GridSpec(1.0, 8), H07, []).shape == (0, 9)


# seeds of one and two entropy words, the wrap at 2^64 and the sign bit
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**64 + 5]


class TestSeeding:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seeds=st.lists(st.integers(-(2**66), 2**66), max_size=6))
    @example(seeds=SEED_EDGES)
    def test_generators_match_pcg64_seeding(self, seeds):
        # one hash pass over the block gives each seed numpy's own PCG64 state
        generators = list(_generators(seeds))
        assert len(generators) == len(seeds)
        for seed, rng in zip(seeds, generators):
            reference = reference_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))

    def test_uint64_seed_array(self):
        seeds = np.array([0, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
        for seed, rng in zip(seeds, _generators(seeds)):
            assert rng.bit_generator.state == reference_rng(seed).bit_generator.state


class TestCholeskySampler:
    def test_empirical_covariance_matches_closed_form(self):
        grid = GridSpec(1.0, 32)
        H = H07
        m = 2000
        batch = sample_fbm_cholesky(grid, H, range(700, 700 + m))
        nodes = grid.nodes()
        exact = fbm_covariance(nodes[:, None], nodes[None, :], H)
        empirical = batch.T @ batch / m
        spread = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / m)
        worst = np.abs(empirical - exact) - 5.0 * spread
        assert worst.max() <= 0.0, f"covariance entry off by {worst.max():.3g} beyond 5 se"

    @pytest.mark.parametrize("steps", [1, 2, 256])
    def test_block_matches_single_paths(self, monkeypatch, steps):
        # 5 seeds in one tile of the default budget, then in tiles of 1, 2
        # and 3 rows: tiles of 2 and 3 end on a partial tile
        grid, hurst = GridSpec(1.0, steps), HurstParameter(0.7)
        seeds = [5, 2**64 - 1, 0, 17, 3]
        for tile_rows in (None, 1, 2, 3):
            if tile_rows is not None:
                monkeypatch.setattr(fbm_module, "_TILE_NODES", tile_rows * steps)
            block = sample_fbm_cholesky(grid, hurst, seeds)
            assert block.shape == (len(seeds), steps + 1)
            for row, seed in zip(block, seeds):
                assert np.array_equal(row, sample_fbm_cholesky(grid, hurst, [seed])[0])
                assert np.array_equal(row, cholesky_oracle(grid, hurst, seed))

    @pytest.mark.parametrize("steps", [1, 2, 3, 64, 256])
    def test_factor_of_the_toeplitz_covariance(self, steps):
        # the factor is taken of a strided view of gamma; the same factor as
        # of the covariance gathered through an N x N index array
        lags = np.arange(steps)
        gamma = fgn_autocovariance(lags, 1.0 / steps, H07)
        factor = _cholesky_factor(steps, 1.0 / steps, H07)
        assert np.array_equal(factor, np.linalg.cholesky(gamma[np.abs(lags[:, None] - lags)]))


class TestCirculantSampler:
    def test_matches_cholesky_distribution(self):
        # Two-sample KS on B(T) at 1%; independent seed ranges.
        grid = GridSpec(1.0, 2**10)
        m = 5000
        chol = sample_fbm_cholesky(grid, H06, range(10_000, 10_000 + m))[:, -1]
        circ = sample_fbm_circulant(grid, H06, range(20_000, 20_000 + m))[:, -1]
        result = stats.ks_2samp(chol, circ)
        print(f"cross-sampler KS p-value: {result.pvalue:.4f}")
        assert result.pvalue >= 0.01

    def test_faster_than_cholesky_at_large_n(self):
        _embedding_coefficients.cache_clear()
        grid, hurst = GridSpec(1.0, 2**12), HurstParameter(0.8)
        start = time.perf_counter()
        sample_fbm_cholesky(grid, hurst, [1])
        elapsed_cholesky = time.perf_counter() - start
        start = time.perf_counter()
        sample_fbm_circulant(grid, hurst, [1])
        elapsed_circulant = time.perf_counter() - start
        print(f"N=4096: cholesky {elapsed_cholesky:.3f}s circulant {elapsed_circulant:.5f}s")
        assert elapsed_circulant < elapsed_cholesky

    @pytest.mark.parametrize("H", [0.55, 0.6, 0.7, 0.8, 0.9])
    def test_embedding_valid_for_long_memory(self, H):
        # the half spectrum: bins 0..N of the 2N embedding
        coeffs = _embedding_coefficients(256, 1.0 / 256, HurstParameter(H))
        assert coeffs.shape == (257,) and np.all(coeffs >= 0.0)

    @pytest.mark.parametrize("steps", [1, 2, 64, 2**10, 2**14])
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_block_matches_complex_fft_to_rounding(self, steps, H):
        # the real-output transform of the half spectrum and the complex FFT
        # of the full spectrum give the same path up to rounding
        grid, hurst = GridSpec(1.0, steps), HurstParameter(H)
        seeds = [5, 2**64 - 1, 0]
        for row, seed in zip(sample_fbm_circulant(grid, hurst, seeds), seeds):
            expected = complex_fft_oracle(grid, hurst, seed)
            assert np.abs(row - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("steps", [1, 2, 64, 2**10, 2**14, 2**15])
    @pytest.mark.parametrize("tile_rows", [None, 3])
    def test_block_matches_single_paths(self, monkeypatch, steps, tile_rows):
        # 7 seeds in tiles of 3 rows cross two tile edges and end on a partial
        # tile; the default tile budget holds 2 rows at 2^14 steps, so 7 seeds
        # go in tiles of 2, 2, 2 and 1, and 1 row at 2^15
        if tile_rows is not None:
            monkeypatch.setattr(fbm_module, "_TILE_NODES", tile_rows * 2 * steps)
        grid, hurst = GridSpec(1.0, steps), HurstParameter(0.7)
        seeds = [5, 2**64 - 1, 0, 17, 3, 99, 12345]
        block = sample_fbm_circulant(grid, hurst, seeds)
        assert block.shape == (len(seeds), steps + 1)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, sample_fbm_circulant(grid, hurst, [seed])[0])
            assert np.array_equal(row, circulant_oracle(grid, hurst, seed))

    @pytest.mark.parametrize(
        "steps, tiles", [(2**13, [4, 3]), (2**14, [2, 2, 2, 1]), (2**15, [1] * 7)]
    )
    def test_rows_a_tile_fill_the_tile_budget(self, monkeypatch, steps, tiles):
        # 2^16 embedding nodes hold 4 rows at 2^13 steps, 2 at 2^14 and 1 at 2^15
        irfft, rows = np.fft.irfft, []

        def counted(spectrum, *args, **kwargs):
            rows.append(len(spectrum))
            return irfft(spectrum, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        sample_fbm_circulant(GridSpec(1.0, steps), H07, range(7))
        assert rows == tiles

    def test_one_path_holds_six_path_sized_arrays(self):
        # With its embedding cached, one path of N steps holds the output, the
        # spectrum's body coefficients, N + 1 complex bins and either its 2N
        # normals or the 2N FFT outputs: 6 arrays of N doubles.  Normals kept
        # through the transform add two, a negated copy of the body one.
        grid = GridSpec(1.0, 2**16)
        sample_fbm_circulant(grid, H07, [3])
        tracemalloc.start()
        try:
            sample_fbm_circulant(grid, H07, [3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 8 * grid.steps, peak / (8 * grid.steps)

    @pytest.mark.parametrize("stride", [2, 8, 64])
    @pytest.mark.parametrize("tile_rows", [None, 3])
    def test_block_at_every_stride_node_matches_full_block(self, monkeypatch, stride, tile_rows):
        # the gap study samples full reference rows and solves each coarse grid
        # from every stride-th node of them; those nodes keep the bits of the
        # single-path samples across tile edges
        if tile_rows is not None:
            monkeypatch.setattr(fbm_module, "_TILE_NODES", tile_rows * 2 * 64)
        params = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0)
        config = ExperimentConfig(
            params=params, hurst=HurstParameter(0.7), horizon=1.0, reference_exponent=6,
            coarse_exponents=(6 - (stride.bit_length() - 1),), samples=7, base_seed=2**64 - 3,
        )
        seeds = [config.base_seed + i for i in range(config.samples)]
        block = sample_fbm_circulant(config.reference_grid, config.hurst, seeds)
        coarse = block[:, ::stride]
        for row, seed in zip(coarse, seeds):
            full = circulant_oracle(config.reference_grid, config.hurst, seed)
            assert np.array_equal(row, full[::stride])
        levels = simulate_batch(coarse.copy(), stride / 64, params)
        product, exponential = malliavin_terminal_forms(levels, stride / 64, params)
        gaps, lows, highs = experiments._malliavin_block(config, block)
        assert np.array_equal(gaps[:, 0], np.abs(product - exponential).mean(axis=1))
        assert np.array_equal(lows[:, 0], product.min(axis=1))
        assert np.array_equal(highs[:, 0], product.max(axis=1))

    # the smallest embedding eigenvalue at N = 2^19, H = 0.999 is -4.28e-8
    # times the largest, beyond the tolerance
    _INVALID_EMBEDDING = r"N=524288, H=0\.999 .* ratio -4\.28e-08 is below the tolerance -1e-08"

    def test_invalid_embedding_raises(self):
        grid, hurst = GridSpec(1.0, 2**19), HurstParameter(0.999)
        with pytest.raises(NumericalError, match=self._INVALID_EMBEDDING):
            _embedding_coefficients(2**19, 2**-19, hurst)
        with pytest.raises(NumericalError, match=self._INVALID_EMBEDDING):
            sample_fbm_circulant(grid, hurst, [1])

    def test_block_invalid_embedding_raises(self):
        # 2^45 seeds cannot be sized, so the sampler must check the embedding
        # before it allocates
        grid, hurst = GridSpec(1.0, 2**19), HurstParameter(0.999)
        with pytest.raises(NumericalError, match=self._INVALID_EMBEDDING):
            sample_fbm_circulant(grid, hurst, range(2**45))

    def test_factorization_failure_diagnostic(self, monkeypatch):
        def explode(matrix):
            raise np.linalg.LinAlgError("matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", explode)
        with pytest.raises(NumericalError, match="factorization failed"):
            sample_fbm_cholesky(GridSpec(1.0, 8), H07, [1])


class UnitNormals:
    """Stands in for path j's generator: its normals are the unit vector e_j."""

    def __init__(self, j):
        self.j = j

    def standard_normal(self, out):
        out[:] = 0.0
        out[self.j] = 1.0


def sampler_map(monkeypatch, sampler, grid, hurst):
    """The matrix M with levels = M z that a sampler applies to each path's normals z.

    Path j is fed e_j in place of its draws, so its levels are column j of M;
    the generators are made as the sampler reaches them, as `_generators` does.
    """
    inputs = grid.steps if sampler is sample_fbm_cholesky else 2 * grid.steps
    monkeypatch.setattr(fbm_module, "_generators", lambda seeds: map(UnitNormals, seeds))
    return sampler(grid, hurst, range(inputs)).T


def law_error(levels_map, grid, hurst):
    """max |M M^T - C| over the nodes, C the fBm covariance."""
    nodes = grid.nodes()
    exact = fbm_covariance(nodes[:, None], nodes[None, :], hurst)
    return np.abs(levels_map @ levels_map.T - exact).max()


# Both samplers are linear maps of their normals, so their law is M M^T
# exactly.  Measured on a unit horizon at the H and N below: at most 8.4e-15
# for the circulant sampler and 1.8e-15 for the Cholesky sampler (4.2e-14 and
# 3.1e-15 at N = 2^10).
LAW_BOUND = 1e-12


class TestExactLaw:
    @pytest.mark.parametrize("steps", [2**4, 2**8])
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.95])
    @pytest.mark.parametrize("sampler", [sample_fbm_cholesky, sample_fbm_circulant])
    def test_map_gives_the_fbm_covariance(self, monkeypatch, sampler, H, steps):
        grid, hurst = GridSpec(1.0, steps), HurstParameter(H)
        levels_map = sampler_map(monkeypatch, sampler, grid, hurst)
        assert not levels_map[0].any()  # B(0) = 0 whatever the normals
        assert law_error(levels_map, grid, hurst) < LAW_BOUND

    def test_one_bin_mutant_breaks_the_bound(self, monkeypatch):
        # One embedding coefficient scaled by 1.001 moves the covariance by
        # 3.7e-5 here, about 0.002 standard errors of an entry at 5000 paths: the
        # sampled z-score checks cannot see it.
        coefficients = fbm_module._embedding_coefficients

        def mutant(*args):
            scaled = coefficients(*args).copy()
            scaled[3] *= 1.001
            return scaled

        monkeypatch.setattr(fbm_module, "_embedding_coefficients", mutant)
        grid = GridSpec(1.0, 2**8)
        levels_map = sampler_map(monkeypatch, sample_fbm_circulant, grid, H07)
        assert law_error(levels_map, grid, H07) > 1e-5


class TestHolderRegularity:
    @pytest.mark.parametrize("steps", [1, 2, 3, 256])
    def test_block_matches_single_paths(self, steps):
        grid, hurst = GridSpec(0.3, steps), HurstParameter(0.7)
        levels = sample_fbm_circulant(grid, hurst, range(9))
        levels[4] = 0.0  # a flat path: every quotient is 0
        levels[5, -1] = np.nan  # the nan lags are skipped, as Python's max skips them
        quotients = holder_statistic(levels, grid, hurst)
        assert quotients.shape == (9,)
        for row, quotient in zip(levels, quotients):
            assert quotient == holder_statistic(row[None], grid, hurst)[0]
            assert quotient == holder_oracle(row, grid.step, 0.6)
        assert quotients[4] == 0.0 and np.isfinite(quotients).all()

    def test_epsilon_outside_zero_h_raises(self):
        # the quotient exponent H - HOLDER_EPSILON must be positive
        grid = GridSpec(1.0, 4)
        assert fbm_module.HOLDER_EPSILON == 0.1
        for hurst in (0.05, 0.1):
            with pytest.raises(DomainError, match=rf"needs H > 0\.1, got H = {hurst}:"):
                holder_statistic(np.zeros((2, 5)), grid, HurstParameter(hurst))
        quotients = holder_statistic(np.zeros((2, 5)), grid, HurstParameter(0.11))
        assert np.array_equal(quotients, [0.0, 0.0])

    @pytest.mark.parametrize("shape", [(2, 10), (17,)])
    def test_levels_off_the_grid_raise(self, shape):
        # rows of another length, or one row without its path axis, are
        # refused before any lag is formed
        expected = rf"shape \(paths, 17\) .* got {re.escape(str(shape))}$"
        with pytest.raises(DomainError, match=expected):
            holder_statistic(np.zeros(shape), GridSpec(1.0, 16), H07)

    def test_p99_stable_under_refinement(self):
        # Trajectories are (H - eps)-Hoelder, so the empirical quotient's
        # 99th percentile stays within a factor 2 when the grid doubles.
        quantiles = []
        for exponent in (12, 13):
            grid = GridSpec(1.0, 2**exponent)
            levels = sample_fbm_circulant(grid, H07, range(500, 700))
            statistics = holder_statistic(levels, grid, H07)
            assert np.all(np.isfinite(statistics))
            quantiles.append(np.percentile(statistics, 99))
        ratio = max(quantiles) / min(quantiles)
        print(f"holder p99 at 2^12 vs 2^13: {quantiles} ratio={ratio:.3f}")
        assert ratio <= 2.0

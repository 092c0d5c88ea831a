"""Property tests over random model parameters: batch-versus-single bit identity,
finite output and positivity of the solver and the Malliavin kernel; the
solver's exact pathwise relations (dyadic time rescaling, comparison); and the
exit-code contract of the CLI over random flags."""

import contextlib
import csv
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fcir import (
    CirParams,
    DomainError,
    GridSpec,
    HurstParameter,
    cli,
    malliavin_terminal_forms,
    sample_fbm_circulant,
    simulate_batch,
)
from oracles import backward_euler_step

GRID = GridSpec(1.0, 32)
WIDTH = 4

model = st.fixed_dictionaries(
    {
        "kappa": st.floats(0.05, 8.0),
        "theta": st.floats(0.01, 3.0),
        "sigma": st.floats(0.01, 3.0),
        "r0": st.floats(0.01, 5.0),
    }
)


@settings(max_examples=40, deadline=None)
@given(
    model=model,
    hurst=st.floats(0.51, 0.99),
    seed=st.integers(0, 2**64 - 1),
)
def test_batch_rows_match_single_paths(model, hurst, seed):
    params, hurst = CirParams(**model), HurstParameter(hurst)
    seeds = [seed + i for i in range(WIDTH)]
    batch = simulate_batch(sample_fbm_circulant(GRID, hurst, seeds), GRID.step, params)
    product, exponential = malliavin_terminal_forms(batch, GRID.step, params)

    for row, single_seed in enumerate(seeds):
        single = sample_fbm_circulant(GRID, hurst, [single_seed])
        (path,) = simulate_batch(single, GRID.step, params)
        assert np.array_equal(batch[row], path)
        single_product, single_exponential = malliavin_terminal_forms(
            path[None, :], GRID.step, params
        )
        assert np.array_equal(product[row], single_product[0])
        assert np.array_equal(exponential[row], single_exponential[0])

    for values in (batch, product, exponential):
        assert np.all(np.isfinite(values))
    assert np.all(batch > 0.0)
    assert np.all((product > 0.0) & (product <= 0.5 * params.sigma))
    # exp of a trapezoid integral below about -745 rounds to 0 in double
    # precision, which happens where a level nears 0 and f' ~ -1/x^2 is huge.
    assert np.all((exponential >= 0.0) & (exponential <= 0.5 * params.sigma))


# sigma/2 = 1 against levels near sqrt(theta) = 0.1: a few percent of the steps
# have a = x_n + sigma*dB/2 < 0, where the root takes its conjugate form.
NEGATIVE_A = CirParams(kappa=2.0, theta=0.01, sigma=2.0, r0=0.01)
BENCH = CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0)


def scalar_levels(increments, step, params):
    """Reference recursion, one oracle `backward_euler_step` per step, and its a values."""
    levels, a = [params.x0], []
    for increment in increments:
        a.append(levels[-1] + 0.5 * params.sigma * increment)
        levels.append(backward_euler_step(levels[-1], increment, step, params))
    return np.array(levels), np.array(a)


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 3 * 64 + 5])
@pytest.mark.parametrize("params", [BENCH, NEGATIVE_A], ids=["bench", "negative-a"])
def test_batch_matches_scalar_loop_across_chunks(steps, params):
    # simulate_batch differences and solves 64-step chunks, carrying the noise
    # column before each chunk; N straddles the chunk edges.  Each path is also
    # solved alone, where the step does not work in place.
    grid = GridSpec(1.0, steps)
    noise = sample_fbm_circulant(grid, HurstParameter(0.7), range(7, 15))
    alone = [simulate_batch(path[None, :].copy(), grid.step, params) for path in noise]
    increments = np.diff(noise, axis=-1)
    batch = simulate_batch(noise, grid.step, params)
    assert batch is noise
    negative = 0
    for row, (path,), path_increments in zip(batch, alone, increments):
        levels, a = scalar_levels(path_increments, grid.step, params)
        assert np.array_equal(row, levels)
        assert np.array_equal(path, levels)
        negative += np.count_nonzero(a < 0.0)
    if params is NEGATIVE_A:
        assert negative > 0


@pytest.mark.parametrize(
    "noise",
    [
        np.zeros((3, 6), dtype=np.float32),
        np.zeros(6),
        np.zeros((2, 3, 6)),
        np.zeros((3, 0)),
        [[0.0] * 6] * 3,
    ],
    ids=["float32", "1-d", "3-d", "no-nodes", "list"],
)
def test_invalid_noise_raises(noise):
    with pytest.raises(DomainError, match="noise must be a 2-D float64 array of fBm levels"):
        simulate_batch(noise, 0.2, BENCH)


@pytest.mark.parametrize("layout", ["fortran-order", "strided"])
def test_noise_of_any_layout_is_solved_through_the_view(layout):
    grid = GridSpec(1.0, 130)
    noise = sample_fbm_circulant(grid, HurstParameter(0.7), range(3, 8))
    expected = simulate_batch(noise.copy(), grid.step, NEGATIVE_A)
    base = np.zeros((5, 2 * (grid.steps + 1)))
    view = np.asfortranarray(noise) if layout == "fortran-order" else base[:, ::2]
    view[:] = noise
    assert not view.flags.c_contiguous
    assert simulate_batch(view, grid.step, NEGATIVE_A) is view
    assert np.array_equal(view, expected)
    assert not base[:, 1::2].any()  # a strided view leaves the columns between its own alone


# Admissible models with kappa of either sign and theta of the same sign.  On
# a unit horizon of at least 4 steps, h*max(0, -kappa/2) <= 7/8 < 1.
signed_model = st.builds(
    lambda kappa, theta, sign, sigma, r0: CirParams(sign * kappa, sign * theta, sigma, r0),
    kappa=st.floats(0.05, 7.0),
    theta=st.floats(0.01, 3.0),
    sign=st.sampled_from([1.0, -1.0]),
    sigma=st.floats(0.01, 3.0),
    r0=st.floats(1e-4, 10.0),
)
pathwise = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def dyadic_noise(exponent, hurst, seed):
    """WIDTH fBm paths on 2^exponent steps, rounded to multiples of 2^-40.

    Levels below 2^12 in size then have exact differences, and stay exact
    when a multiple of 2^-40 up to 1 is added to a tail of them.
    """
    grid = GridSpec(1.0, 2**exponent)
    noise = sample_fbm_circulant(grid, HurstParameter(hurst), range(seed, seed + WIDTH))
    return grid, np.round(noise * 2.0**40) * 2.0**-40


@pathwise
@given(
    params=signed_model,
    hurst=st.floats(0.51, 0.99),
    exponent=st.integers(2, 8),
    seed=st.integers(0, 2**64 - 1),
)
def test_dyadic_rescaling_gives_the_same_levels(params, hurst, exponent, seed):
    # kappa enters the implicit step only through kappa*h, which is exact
    # when h is scaled by 2^-k and kappa by 2^k: the levels are the same bits
    grid, noise = dyadic_noise(exponent, hurst, seed)
    levels = simulate_batch(noise.copy(), grid.step, params)
    for k in range(1, 6):
        rescaled = dataclasses.replace(params, kappa=params.kappa * 2.0**k)
        assert np.array_equal(simulate_batch(noise.copy(), grid.step * 2.0**-k, rescaled), levels)


@pathwise
@given(
    params=signed_model,
    hurst=st.floats(0.51, 0.99),
    exponent=st.integers(2, 8),
    seed=st.integers(0, 2**64 - 1),
    factor=st.floats(1.0, 2.0, exclude_min=True),
    step_index=st.integers(0, 2**8 - 1),
    units=st.integers(1, 2**40),
)
def test_raising_r0_or_one_increment_raises_every_later_level(
    params, hurst, exponent, seed, factor, step_index, units
):
    # The positive root is increasing in a = X_n + (sigma/2) dB_n, and X_n
    # enters a as is, so the levels are ordered like their starts and like
    # each increment: the comparison behind the scheme's positivity.
    grid, noise = dyadic_noise(exponent, hurst, seed)
    levels = simulate_batch(noise.copy(), grid.step, params)
    higher = dataclasses.replace(params, r0=params.r0 * factor)
    assert np.all(simulate_batch(noise.copy(), grid.step, higher) >= levels)

    n = step_index % grid.steps
    raised = noise.copy()
    raised[:, n + 1 :] += units * 2.0**-40  # dB_n alone rises, exactly
    assert np.array_equal(np.diff(raised[:, n + 1 :]), np.diff(noise[:, n + 1 :]))
    raised = simulate_batch(raised, grid.step, params)
    assert np.array_equal(raised[:, : n + 1], levels[:, : n + 1])
    assert np.all(raised[:, n + 1 :] >= levels[:, n + 1 :])


# Extreme float flag values: magnitudes near 1e+-300 and 5e-324, zeros,
# negatives, infinities and nan.
EXTREME_FLOATS = [1e300, 1e-300, 5e-324, 0.0, -1.0, -1e-300, -1e300, math.inf, -math.inf, math.nan]
# Grid exponents and sample counts stay at most 8, so a run takes milliseconds.
# Hypothesis favours the simplest choice (0, or the first entry), which is a
# valid value here.
exponent = st.integers(-1, 8)
int_flags = {
    "steps_exp": exponent,
    "ref_exp": exponent,
    "coarse_exps": st.lists(exponent, min_size=1, max_size=3, unique=True).map(
        lambda exps: ",".join(map(str, exps))
    ),
    "samples": st.one_of(st.integers(1, 8), st.sampled_from([0, -1])),
    "p": st.sampled_from([2, 1, 7, 400, 0]),
    "seed": st.integers(-(2**64), 2**64),
}


def float_flag(default: float):
    """An ordinary value, the default scaled by up to 1.5, or an extreme one."""
    return st.one_of(
        st.floats(0.5, 1.5).map(lambda factor: default * factor), st.sampled_from(EXTREME_FLOATS)
    ).map(repr)


@st.composite
def cli_argv(draw):
    """A subcommand and random values for its flags, read from the parser's defaults."""
    command = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    defaults = vars(cli.build_parser().parse_args([command]))
    argv = [command]
    for dest, default in defaults.items():
        if dest in int_flags:
            value = draw(int_flags[dest])
        elif isinstance(default, float) and draw(st.booleans()):
            value = draw(float_flag(default))
        else:
            continue
        flag = f"--{dest.replace('_', '-')}"
        # `--flag=value` or `--flag value`: either reads a value such as -inf as a value
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
    return argv


def run_main(argv, out):
    """Exit code of `cli.main`, argparse's SystemExit included."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([*argv, "--workers", "1", "--out", str(out)])
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_cli_contract_over_random_flags(argv):
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "runs"
        code = run_main(argv, out)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3)
        runs = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            assert runs == []
            return
        assert len(runs) == 1
        manifest = dict(
            line.split(" = ", 1) for line in (runs[0] / "manifest.txt").read_text().splitlines()
        )
        if code == 3:
            assert manifest["status"] == "error"
            return
        assert manifest["status"] == "ok"
        for key, value in manifest.items():
            if not key.startswith(("slope_", "intercept_")):
                assert not re.search(r"\b(?:nan|inf)\b", value), (key, value)
        for data in runs[0].glob("*.csv"):
            with open(data, newline="") as handle:
                header, *rows = csv.reader(handle)
            for index, row in enumerate(rows):
                for column, cell in zip(header, row):
                    if argv[0] == "malliavin-check" and column == "ratio_vs_prev" and index == 0:
                        continue
                    try:
                        value = float(cell)
                    except ValueError:  # a check name, boolean or method
                        continue
                    assert math.isfinite(value), (data.name, index, column, cell)

"""Tests for the CSV writers: the convergence columns and the finiteness gate."""

import math

import numpy as np
import pytest

from fcir import (
    CirParams, ExperimentConfig, GridSpec, HurstParameter, NumericalError, io, run_convergence,
)
from fcir.experiments import InverseMomentCurve, MalliavinGapReport


def read_cells(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, rows


def test_convergence_writes_level_then_rate_errors(tmp_path):
    config = ExperimentConfig(
        params=CirParams(kappa=2.0, theta=0.5, sigma=0.5, r0=1.0),
        hurst=HurstParameter(0.7), horizon=1.0, reference_exponent=7,
        coarse_exponents=(3, 4, 5), samples=4, base_seed=7,
    )
    report = run_convergence(config)
    io.write_convergence(tmp_path / "data.csv", report)
    header, rows = read_cells(tmp_path / "data.csv")
    assert header == [
        "h", "rms_sup_error_grid", "rms_sup_error_uniform", "samples",
        "rms_rate_sup_error_grid", "rms_rate_sup_error_uniform",
    ]
    rms = report.rms
    expected = zip(report.step_sizes, rms["level_grid"], rms["level_uniform"],
                   rms["rate_grid"], rms["rate_uniform"])
    assert rows == [
        [*map(io.format_float, (h, x_grid, x_uniform)), "4", *map(io.format_float, rate)]
        for h, x_grid, x_uniform, *rate in expected
    ]


def test_python_floats_write_the_bytes_of_numpy_scalars(tmp_path):
    # the path writers format Python floats from `.tolist()`; a float cell of
    # `_write_rows` has the same text either way
    column = np.array([-0.0, 5e-324, 1.7e308, 1 / 3, 2.0])
    io._write_rows(tmp_path / "numpy.csv", "i,v", zip(range(5), column))
    io._write_rows(tmp_path / "python.csv", "i,v", zip(range(5), column.tolist()))
    assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
    _, rows = read_cells(tmp_path / "python.csv")
    assert [cell for _, cell in rows] == [
        "-0", "4.9406564584124654e-324", "1.6999999999999999e+308", "0.33333333333333331", "2"
    ]


def test_cells_keep_the_text_of_per_cell_formatting(tmp_path):
    # floats (numpy scalars too) at 17 digits as `format_float` gives them,
    # lowercase booleans, ints and names as str; a name that spells nan or inf
    # is text, not a float
    rows = [
        ("inf", 1, True, np.float64(-1e-300), 0.1),
        ("nan_count", -2**70, False, 2.5, np.float64(1e300)),
    ]
    io._write_rows(tmp_path / "data.csv", "name,n,flag,x,y", rows)
    assert (tmp_path / "data.csv").read_bytes() == (
        b"name,n,flag,x,y\n"
        b"inf,1,true,-1e-300,0.10000000000000001\n"
        b"nan_count,-1180591620717411303424,false,2.5,1.0000000000000001e+300\n"
    )


def path_file(writer, values):
    """A path writer of values, its header and the numpy columns `_write_rows` would take."""
    grid = GridSpec(1.0, len(values) - 1)
    nodes = grid.nodes()
    if writer == "fbm":
        return lambda target: io.write_fbm_path(target, grid, values), "t,B", (nodes, values)
    if writer == "solution":
        columns = (nodes, values, values**2)
        return lambda target: io.write_solution_path(target, grid, values), "t,X,r", columns
    curve = InverseMomentCurve(nodes, values)
    return lambda target: io.write_inverse_moments(target, curve), "t,inv_moment", (nodes, values)


@pytest.mark.parametrize("writer", ["fbm", "solution", "inverse"])
def test_path_writers_write_the_bytes_of_write_rows(tmp_path, writer):
    # each row is one `str.format` call; its text is that of the cells of `_write_rows`
    values = np.array([-0.0, 5e-324, 1e308, 1e-5, 1e16, 1 / 3, -2.5])
    if writer == "solution":
        values[2] = 1e154  # r = X^2 stays finite
    write, header, columns = path_file(writer, values)
    write(tmp_path / "path.csv")
    io._write_rows(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("writer", ["fbm", "solution", "inverse"])
@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_path_writers_refuse_as_write_rows(tmp_path, writer, row, value):
    values = np.linspace(0.5, 2.0, 7)
    values[row] = value
    write, header, columns = path_file(writer, values)
    with pytest.raises(NumericalError) as expected:
        io._write_rows(tmp_path / "data.csv", header, zip(*columns))
    with pytest.raises(NumericalError) as refused:
        write(tmp_path / "data.csv")
    assert str(refused.value) == str(expected.value)
    assert f"in data row {row + 1};" in str(refused.value)
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_cell_raises_before_the_file_is_opened(tmp_path, value):
    target = tmp_path / "data.csv"
    rows = [(0.5, 1.0, True), (0.25, value, False)]
    with pytest.raises(NumericalError, match=r"^data\.csv would hold b = -?(nan|inf) in data row 2;"):
        io._write_rows(target, "a,b,c", rows)
    assert not target.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numpy_scalar_raises_before_the_file_is_opened(tmp_path, value):
    target = tmp_path / "data.csv"
    rows = [(0.5, 1.0, True), (np.float64(0.25), np.float64(value), False)]
    with pytest.raises(NumericalError, match=r"^data\.csv would hold b = -?(nan|inf) in data row 2;"):
        io._write_rows(target, "a,b,c", rows)
    assert not target.exists()


def gap_report(ratios):
    return MalliavinGapReport(
        step_sizes=(0.5, 0.25), mean_abs_gaps=(0.2, 0.1), ratios=ratios,
        profile_min=(0.1, 0.1), profile_max=(1.0, 1.0),
    )


def test_only_the_first_gap_ratio_may_be_nan(tmp_path):
    io.write_malliavin_gaps(tmp_path / "data.csv", gap_report((math.nan, 2.0)))
    _, rows = read_cells(tmp_path / "data.csv")
    assert [row[2] for row in rows] == ["nan", "2"]
    for ratios in ((math.inf, 2.0), (2.0, math.nan)):
        with pytest.raises(NumericalError, match="ratio_vs_prev"):
            io.write_malliavin_gaps(tmp_path / "other.csv", gap_report(ratios))
    assert not (tmp_path / "other.csv").exists()

"""Tests for the CSV writers: the one table writer against a per-cell oracle,
the convergence columns, the finiteness gate and whole-or-absent files."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcir import (
    CirParams, ExperimentConfig, GridSpec, HurstParameter, NumericalError, io, run_convergence,
)
from fcir.experiments import InverseMomentCurve, MalliavinGapReport


def write_rows(target, header, rows, nan_cell=None):
    """The per-cell oracle of `io._write_table`: each cell of each row formatted alone.

    Floats (numpy float64 scalars too) at 17 significant digits, booleans in
    lowercase, any other cell as str.  The first float cell in row order that
    is not finite, unless it is nan at nan_cell (row index, column name),
    raises NumericalError before the file is opened.
    """
    names = header.split(",")
    lines = [header]
    for index, row in enumerate(rows):
        cells = []
        for name, value in zip(names, row):
            if isinstance(value, float):
                text = f"{value:.17g}"
                if not math.isfinite(value) and (not math.isnan(value) or (index, name) != nan_cell):
                    raise NumericalError(
                        f"{target.name} would hold {name} = {text} in data row {index + 1}; "
                        "data files hold finite values only"
                    )
            else:
                text = str(value).lower() if isinstance(value, bool) else str(value)
            cells.append(text)
        lines.append(",".join(cells))
    target.write_bytes("".join(f"{line}\n" for line in lines).encode())


def table(header, rows):
    """rows under the comma-separated header as the columns `io._write_table` takes."""
    rows = list(rows)
    return {name: [row[i] for row in rows] for i, name in enumerate(header.split(","))}


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
        [*map(io._cell, (h, x_grid, x_uniform)), "4", *map(io._cell, rate)]
        for h, x_grid, x_uniform, *rate in expected
    ]


def test_python_floats_write_the_bytes_of_numpy_scalars(tmp_path):
    # the path writers format Python floats from `.tolist()`; a float column
    # has the same text either way
    column = np.array([-0.0, 5e-324, 1.7e308, 1 / 3, 2.0])
    io._write_table(tmp_path / "numpy.csv", {"i": list(range(5)), "v": list(column)})
    io._write_table(tmp_path / "python.csv", {"i": list(range(5)), "v": column.tolist()})
    assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
    _, rows = read_cells(tmp_path / "python.csv")
    assert [cell for _, cell in rows] == [
        "-0", "4.9406564584124654e-324", "1.6999999999999999e+308", "0.33333333333333331", "2"
    ]


def test_cells_keep_the_text_of_per_cell_formatting(tmp_path):
    # floats (numpy scalars too) at 17 digits as `_cell` gives them,
    # lowercase booleans, ints and names as str; a name that spells nan or inf
    # is text, not a float
    rows = [
        ("inf", 1, True, np.float64(-1e-300), 0.1),
        ("nan_count", -2**70, False, 2.5, np.float64(1e300)),
    ]
    io._write_table(tmp_path / "data.csv", table("name,n,flag,x,y", rows))
    assert (tmp_path / "data.csv").read_bytes() == (
        b"name,n,flag,x,y\n"
        b"inf,1,true,-1e-300,0.10000000000000001\n"
        b"nan_count,-1180591620717411303424,false,2.5,1.0000000000000001e+300\n"
    )


def path_file(writer, values):
    """A path writer of values, its header and its numpy columns."""
    grid = GridSpec(1.0, len(values) - 1)
    nodes = grid.nodes()
    if writer == "fbm":
        return lambda target: io.write_fbm_path(target, grid, values), "t,B", (nodes, values)
    if writer == "solution":
        columns = (nodes, values, values**2)
        return lambda target: io.write_solution_path(target, grid, values), "t,X,r", columns
    curve = InverseMomentCurve(nodes, values, condition_checks=(), warnings=())
    return lambda target: io.write_inverse_moments(target, curve), "t,inv_moment", (nodes, values)


@pytest.mark.parametrize("writer", ["fbm", "solution", "inverse"])
def test_path_writers_write_the_bytes_of_write_rows(tmp_path, writer):
    # each row is one `str.format` call; its text is that of the per-cell oracle
    values = np.array([-0.0, 5e-324, 1e308, 1e-5, 1e16, 1 / 3, -2.5])
    if writer == "solution":
        values[2] = 1e154  # r = X^2 stays finite
    write, header, columns = path_file(writer, values)
    write(tmp_path / "path.csv")
    write_rows(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("writer", ["fbm", "solution", "inverse"])
def test_path_writers_write_blocks_with_the_bytes_of_write_rows(tmp_path, monkeypatch, writer):
    # three lines a block: the header and 10 rows end in a partial block
    monkeypatch.setattr(io, "_BLOCK_LINES", 3)
    values = np.linspace(0.5, 2.0, 10)
    write, header, columns = path_file(writer, values)
    write(tmp_path / "path.csv")
    write_rows(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    values[-1] = math.inf  # in the last block, yet refused before the file is opened
    (tmp_path / "path.csv").unlink()
    with pytest.raises(NumericalError, match="in data row 10;"):
        write(tmp_path / "path.csv")
    assert not (tmp_path / "path.csv").exists()


def test_table_text_is_held_a_block_at_a_time(tmp_path, monkeypatch):
    # the writer's own memory does not grow with the row count
    monkeypatch.setattr(io, "_BLOCK_LINES", 256)
    peaks = []
    for steps in (2**10, 2**13):
        x = np.linspace(0.5, 2.0, steps + 1)
        columns = {"t": GridSpec(1.0, steps).nodes(), "X": x, "r": x**2}
        tracemalloc.start()
        try:
            io._write_table(tmp_path / "data.csv", columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("writer", ["fbm", "solution", "inverse"])
@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_path_writers_refuse_as_write_rows(tmp_path, writer, row, value):
    values = np.linspace(0.5, 2.0, 7)
    values[row] = value
    write, header, columns = path_file(writer, values)
    with pytest.raises(NumericalError) as expected:
        write_rows(tmp_path / "data.csv", header, zip(*columns))
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
        io._write_table(target, table("a,b,c", rows))
    assert not target.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numpy_scalar_raises_before_the_file_is_opened(tmp_path, value):
    target = tmp_path / "data.csv"
    rows = [(0.5, 1.0, True), (np.float64(0.25), np.float64(value), False)]
    with pytest.raises(NumericalError, match=r"^data\.csv would hold b = -?(nan|inf) in data row 2;"):
        io._write_table(target, table("a,b,c", rows))
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


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308, 1 / 3)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
CELLS = {
    "float": FINITE,
    "float64": FINITE.map(np.float64),
    "int": st.one_of(st.integers(-10, 10), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64))),
    "bool": st.booleans(),
    "name": st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "nan_count", "Infinity"]),
        st.text(alphabet="abfinx_-", min_size=1, max_size=6),
    ),
}
CELLS["mixed"] = st.one_of(*CELLS.values())
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda value: st.sampled_from([value, np.float64(value)])
)


@st.composite
def tables(draw, min_rows=0):
    """A table of up to 5 columns, each of one kind of cell or of mixed cells."""
    rows = draw(st.integers(min_rows, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    names = draw(st.lists(st.sampled_from(["t", "x", "n", "nan", "inf", "check"]),
                          min_size=len(kinds), max_size=len(kinds), unique=True))
    return {name: draw(st.lists(CELLS[kind], min_size=rows, max_size=rows))
            for name, kind in zip(names, kinds)}


def outcome(write, directory, columns, nan_cell=None):
    """The bytes write gives columns, or its NumericalError text and the files left."""
    target = Path(directory) / "data.csv"
    try:
        write(target, columns, nan_cell)
    except NumericalError as exc:
        return str(exc), sorted(path.name for path in Path(directory).iterdir())
    return target.read_bytes()


def by_oracle(target, columns, nan_cell):
    write_rows(target, ",".join(columns), zip(*columns.values()), nan_cell)


@settings(max_examples=150, deadline=None)
@given(columns=tables())
@example(columns={"x": [1.7e308, 1.7e308, -1.7e308], "n": ["nan", "inf", "-inf"]})
@example(columns={"x": [np.float64(-1.7e308), np.float64(-1.7e308)], "t": [2**70, True]})
def test_table_writes_the_bytes_of_the_per_cell_oracle(columns):
    # finite cells whose sum overflows, and names that spell nan or inf, are data
    with tempfile.TemporaryDirectory() as written, tempfile.TemporaryDirectory() as expected:
        assert outcome(io._write_table, written, columns) == outcome(by_oracle, expected, columns)


@settings(max_examples=100, deadline=None)
@given(columns=tables(min_rows=1), data=st.data())
def test_non_finite_float_cell_refused_with_the_oracle_message(columns, data):
    # one to three non-finite cells anywhere: the first in row order is named
    for _ in range(data.draw(st.integers(1, 3))):
        column = columns[data.draw(st.sampled_from(sorted(columns)))]
        column[data.draw(st.integers(0, len(column) - 1))] = data.draw(NON_FINITE)
    with tempfile.TemporaryDirectory() as written, tempfile.TemporaryDirectory() as expected:
        refused = outcome(io._write_table, written, columns)
        assert refused == outcome(by_oracle, expected, columns)
        message, files = refused
        assert message.endswith("; data files hold finite values only")
        assert files == []


@settings(max_examples=100, deadline=None)
@given(columns=tables(min_rows=1), data=st.data(), value=NON_FINITE)
def test_nan_passes_only_at_nan_cell(columns, data, value):
    # value at nan_cell, then up to two more non-finite cells elsewhere
    name = data.draw(st.sampled_from(sorted(columns)))
    nan_cell = (data.draw(st.integers(0, len(columns[name]) - 1)), name)
    columns[name][nan_cell[0]] = value
    others = 0
    for _ in range(data.draw(st.integers(0, 2))):
        other = data.draw(st.sampled_from(sorted(columns)))
        row = data.draw(st.integers(0, len(columns[other]) - 1))
        if (row, other) != nan_cell:
            columns[other][row] = data.draw(NON_FINITE)
            others += 1
    with tempfile.TemporaryDirectory() as written, tempfile.TemporaryDirectory() as expected:
        result = outcome(io._write_table, written, columns, nan_cell)
        assert result == outcome(by_oracle, expected, columns, nan_cell)
    assert isinstance(result, bytes) == (math.isnan(value) and others == 0)


def test_manifest_values_take_the_text_of_data_cells(tmp_path):
    # the manifest writes each value by the cells' rule; a tuple's cells are
    # comma-joined, as `--coarse-exps 4,5` is recorded
    entries = {"name": "inf", "n": 7, "flag": True, "x": np.float64(-1e-300), "y": 0.1,
               "exps": (4, 5), "margins": (0.1, False)}
    io.write_key_values(tmp_path / "manifest.txt", entries)
    assert (tmp_path / "manifest.txt").read_bytes() == (
        b"name = inf\nn = 7\nflag = true\nx = -1e-300\ny = 0.10000000000000001\n"
        b"exps = 4,5\nmargins = 0.10000000000000001,false\n"
    )
    cells = {key: [value] for key, value in entries.items() if not isinstance(value, tuple)}
    io._write_table(tmp_path / "data.csv", cells)
    _, (row,) = read_cells(tmp_path / "data.csv")
    assert row == ["inf", "7", "true", "-1e-300", "0.10000000000000001"]


def test_zero_row_table_writes_its_header_alone(tmp_path):
    io._write_table(tmp_path / "data.csv", {"t": [], "check": [], "passed": []})
    assert (tmp_path / "data.csv").read_bytes() == b"t,check,passed\n"
    io.write_condition_reports(tmp_path / "conditions.csv", [])
    assert (tmp_path / "conditions.csv").read_bytes() == (
        b"holds,worst_margin,worst_s,multiplier,method\n"
    )


class FullDisk:
    """An open text file that takes half of a write, then fills the disk."""

    def __init__(self, path, mode, newline):
        self.handle = open(path, mode, newline=newline)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("existing", [False, True])
def test_a_write_that_fails_midway_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    # the target is whole or absent; a file already there is left as it was
    target = tmp_path / "data.csv"
    if existing:
        target.write_bytes(b"t,X,r\n")
    monkeypatch.setattr(io, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        io.write_solution_path(target, GridSpec(1.0, 4), np.linspace(1.0, 2.0, 5))
    assert sorted(path.name for path in tmp_path.iterdir()) == (["data.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"t,X,r\n"

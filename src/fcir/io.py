"""CSV and manifest writers for every externally visible data format.

All floating-point output uses 17 significant digits, which round-trips
double precision losslessly, and a fixed "\n" line ending so repeated runs
produce byte-identical files.  A data file holds finite floats only: every
row is formatted before the file is opened, and a nan or infinite cell
raises NumericalError, so no file is written.  The one exception is the
documented nan `ratio_vs_prev` in the first row of the Malliavin gap study.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .errors import NumericalError
from .experiments import ConvergenceReport, InverseMomentCurve, MalliavinGapReport, SamplerCheck
from .fbm import GridSpec
from .model import ConditionReport

__all__ = [
    "format_float",
    "condition_record",
    "write_fbm_path",
    "write_solution_path",
    "write_condition_reports",
    "write_convergence",
    "write_inverse_moments",
    "write_malliavin_gaps",
    "write_sampler_checks",
    "write_key_values",
]


def format_float(value: float) -> str:
    return f"{value:.17g}"


def _write_lines(target: Path, lines: Iterable[str]) -> None:
    with open(target, "w", newline="\n") as handle:
        handle.write("\n".join([*lines, ""]))


def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _write_rows(target: Path, header: str, rows: Iterable[tuple], nan_cell=None) -> None:
    """CSV with floats at 17 significant digits and lowercase booleans.

    Raises NumericalError, before the file is opened, on a float cell that is
    not finite, unless it is nan at `nan_cell`, a (row index, column name).
    A float cell is formatted inline and checked on its text (only "inf",
    "-inf" and "nan" hold an "n"), so it costs no Python call; any other cell
    costs one.  This is the one statement of the refusal: `_write_float_rows`
    hands it the rows of a path file that holds a non-finite value.
    """
    columns = header.split(",")
    lines = [header]
    for index, row in enumerate(rows):
        cells = []
        for column, value in zip(columns, row):
            if isinstance(value, float):
                text = f"{value:.17g}"
                if "n" in text and (text != "nan" or (index, column) != nan_cell):
                    raise NumericalError(
                        f"{target.name} would hold {column} = {text} in data "
                        f"row {index + 1}; data files hold finite values only"
                    )
            else:
                text = _cell(value)
            cells.append(text)
        lines.append(",".join(cells))
    _write_lines(target, lines)


def _write_float_rows(target: Path, header: str, *columns: list) -> None:
    """CSV of float columns with the bytes of `_write_rows`, one `str.format` call a row.

    The columns are lists of Python floats (`.tolist()`, which format as the
    numpy scalars do, and faster).  Only "inf", "-inf" and "nan" hold an
    "n", so a row that holds one goes to `_write_rows`, which refuses it
    before the file is opened.
    """
    rows = list(map(",".join(["{:.17g}"] * len(columns)).format, *columns))
    if "n" in "".join(rows):
        _write_rows(target, header, zip(*columns))
    else:
        _write_lines(target, [header, *rows])


def write_fbm_path(target: Path, grid: GridSpec, values) -> None:
    """Noise levels B on grid as `t,B`, one row per node."""
    _write_float_rows(target, "t,B", grid.nodes().tolist(), values.tolist())


def write_solution_path(target: Path, grid: GridSpec, x) -> None:
    """Solution levels X on grid and the rates r = X^2 as `t,X,r`, one row per node."""
    _write_float_rows(target, "t,X,r", grid.nodes().tolist(), x.tolist(), (x**2).tolist())


def _condition_row(report: ConditionReport) -> tuple:
    return report.holds, report.worst_margin, report.worst_s, report.multiplier, report.method


def condition_record(report: ConditionReport) -> str:
    """One-line CSV record: holds,worst_margin,worst_s,multiplier,method."""
    return ",".join(map(_cell, _condition_row(report)))


def write_condition_reports(target: Path, reports: Iterable[ConditionReport]) -> None:
    header = "holds,worst_margin,worst_s,multiplier,method"
    _write_rows(target, header, map(_condition_row, reports))


def write_convergence(target: Path, report: ConvergenceReport) -> None:
    """Errors as `h,rms_sup_error_grid,rms_sup_error_uniform,samples,rms_rate_sup_error_grid,
    rms_rate_sup_error_uniform`: the level X at the grid and uniformly, then the rate r = X^2."""
    header = (
        "h,rms_sup_error_grid,rms_sup_error_uniform,samples,"
        "rms_rate_sup_error_grid,rms_rate_sup_error_uniform"
    )
    rms = report.rms
    rows = zip(report.step_sizes, rms["level_grid"], rms["level_uniform"],
               rms["rate_grid"], rms["rate_uniform"])
    _write_rows(target, header, ((h, x_grid, x_uniform, report.samples, *rate)
                                 for h, x_grid, x_uniform, *rate in rows))


def write_inverse_moments(target: Path, curve: InverseMomentCurve) -> None:
    """Inverse-moment curve as `t,inv_moment`, one row per node."""
    _write_float_rows(target, "t,inv_moment", curve.times.tolist(), curve.values.tolist())


def write_malliavin_gaps(target: Path, report: MalliavinGapReport) -> None:
    """Gap study as `h,mean_abs_gap,ratio_vs_prev` (nan ratio on the first row)."""
    rows = zip(report.step_sizes, report.mean_abs_gaps, report.ratios)
    _write_rows(target, "h,mean_abs_gap,ratio_vs_prev", rows, nan_cell=(0, "ratio_vs_prev"))


def write_sampler_checks(target: Path, checks: Iterable[SamplerCheck]) -> None:
    """Sampler checks as `check,statistic,threshold,passed`."""
    _write_rows(target, "check,statistic,threshold,passed", checks)


def write_key_values(target: Path, entries: dict) -> None:
    """Plain `key = value` sidecar, one entry per line."""
    _write_lines(target, [f"{key} = {value}" for key, value in entries.items()])

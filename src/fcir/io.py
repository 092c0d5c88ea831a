"""CSV and manifest writers: the one place a value fcir writes becomes text.

Every value goes through one cell rule, `_cell`: floats at 17 significant
digits, which round-trips double precision losslessly, lowercase booleans,
a tuple's cells joined by commas.  Every CSV data file comes from one table
writer, `_write_table`, with a fixed "\n" line ending, so repeated runs
produce byte-identical files.  A data file holds finite floats only: a nan
or infinite cell raises NumericalError before the file is opened.  The one
exception is the documented nan `ratio_vs_prev` in the first row of the
Malliavin gap study.  A file, the manifest too, is written under
`<name>.partial`, a block of lines at a time, and then renamed onto its
name, so it is whole or absent; the text of one block is held at a time.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:  # annotations only: at run time the writers need numpy and errors alone
    from .experiments import ConvergenceReport, InverseMomentCurve, MalliavinGapReport, SamplerCheck
    from .fbm import GridSpec
    from .model import ConditionReport

__all__ = [
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


_FLOAT_CELL = "{:.17g}"

# Lines per write of `_write_lines`: the text of one block is held at a time.
_BLOCK_LINES = 4096


def _write_lines(target: Path, lines: Iterable[str]) -> None:
    """Write lines to target through `<name>.partial`, so target is whole or absent.

    The lines are consumed and written `_BLOCK_LINES` at a time, each ended by "\n".
    """
    partial = target.with_name(f"{target.name}.partial")
    lines = iter(lines)
    try:
        with open(partial, "w", newline="\n") as handle:
            while block := list(islice(lines, _BLOCK_LINES)):
                handle.write("\n".join([*block, ""]))
        partial.replace(target)
    finally:
        partial.unlink(missing_ok=True)


def _cell(value) -> str:
    """A value's text: floats at 17 digits, booleans lowercase, tuples comma-joined."""
    if isinstance(value, float):
        return _FLOAT_CELL.format(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(_cell, value))
    return str(value)


def _write_table(target: Path, columns: dict, nan_cell=None) -> None:
    """CSV of columns (header name -> cells), one `str.format` call a row.

    A column is a float64 array, whose cells take the 17-digit float text in
    the row format, or a sequence of cells, each the text of `_cell`.  The first
    float cell in row order that is not finite, but for nan at `nan_cell` (a
    row index and column name), raises NumericalError before the file opens.
    The rows are formatted as `_write_lines` writes them, a block at a time.
    """
    arrays = [isinstance(column, np.ndarray) for column in columns.values()]
    cells = [_float_cells(column) if is_array else list(map(_cell, column))
             for is_array, column in zip(arrays, columns.values())]
    float_values = (column if is_array else [value for value in column if isinstance(value, float)]
                    for is_array, column in zip(arrays, columns.values()))
    # all finite, the common case, is one test a column; else the cells are scanned
    if not all(np.isfinite(column).all() for column in float_values):
        for index, values in enumerate(zip(*columns.values())):
            for name, value in zip(columns, values):
                text = _cell(value) if isinstance(value, float) else ""
                if "n" in text and (text != "nan" or (index, name) != nan_cell):
                    raise NumericalError(
                        f"{target.name} would hold {name} = {text} in data "
                        f"row {index + 1}; data files hold finite values only"
                    )
    row = ",".join(_FLOAT_CELL if is_array else "{}" for is_array in arrays).format
    _write_lines(target, chain([",".join(columns)], map(row, *cells)))


def _float_cells(column: np.ndarray):
    """An array's cells as Python floats, `_BLOCK_LINES` at a time."""
    return chain.from_iterable(column[start : start + _BLOCK_LINES].tolist()
                               for start in range(0, len(column), _BLOCK_LINES))


def write_fbm_path(target: Path, grid: GridSpec, values) -> None:
    """Noise levels B on grid as `t,B`, one row per node."""
    _write_table(target, {"t": grid.nodes(), "B": values})


def write_solution_path(target: Path, grid: GridSpec, x) -> None:
    """Solution levels X on grid and the rates r = X^2 as `t,X,r`, one row per node."""
    _write_table(target, {"t": grid.nodes(), "X": x, "r": x**2})


_CONDITION_COLUMNS = ("holds", "worst_margin", "worst_s", "multiplier", "method")


def condition_record(report: ConditionReport) -> str:
    """One-line CSV record: holds,worst_margin,worst_s,multiplier,method."""
    return ",".join(_cell(getattr(report, name)) for name in _CONDITION_COLUMNS)


def write_condition_reports(target: Path, reports: Iterable[ConditionReport]) -> None:
    reports = tuple(reports)
    _write_table(target, {name: [getattr(report, name) for report in reports]
                          for name in _CONDITION_COLUMNS})


def write_convergence(target: Path, report: ConvergenceReport) -> None:
    """Errors as `h,rms_sup_error_grid,rms_sup_error_uniform,samples,rms_rate_sup_error_grid,
    rms_rate_sup_error_uniform`: the level X at the grid and uniformly, then the rate r = X^2."""
    rms, samples = report.rms, [report.samples] * len(report.step_sizes)
    _write_table(target, {
        "h": report.step_sizes, "rms_sup_error_grid": rms["level_grid"],
        "rms_sup_error_uniform": rms["level_uniform"], "samples": samples,
        "rms_rate_sup_error_grid": rms["rate_grid"],
        "rms_rate_sup_error_uniform": rms["rate_uniform"],
    })


def write_inverse_moments(target: Path, curve: InverseMomentCurve) -> None:
    """Inverse-moment curve as `t,inv_moment`, one row per node."""
    _write_table(target, {"t": curve.times, "inv_moment": curve.values})


def write_malliavin_gaps(target: Path, report: MalliavinGapReport) -> None:
    """Gap study as `h,mean_abs_gap,ratio_vs_prev` (nan ratio on the first row)."""
    _write_table(target, {"h": report.step_sizes, "mean_abs_gap": report.mean_abs_gaps,
                          "ratio_vs_prev": report.ratios}, nan_cell=(0, "ratio_vs_prev"))


def write_sampler_checks(target: Path, checks: Iterable[SamplerCheck]) -> None:
    """Sampler checks as `check,statistic,threshold,passed`."""
    checks = tuple(checks)
    names = ("check", "statistic", "threshold", "passed")
    _write_table(target, {name: [check[i] for check in checks] for i, name in enumerate(names)})


def write_key_values(target: Path, entries: dict) -> None:
    """Plain `key = value` sidecar, one entry per line, each value the text of `_cell`."""
    _write_lines(target, [f"{key} = {_cell(value)}" for key, value in entries.items()])

"""Workloads of the benchmark, and how one op is run, checked and classified.

An op is one `fcir` invocation, run in process through `fcir.cli.main` with
`--workers 1`, the workload seed as `--seed` and a fresh `--out` directory.
Each op declares the outcome a correct program gives:

- `ok`: exit 0, and data files that pass validation;
- `rejected`: exit 2 or 3 with a one-line message on stderr.

An op fails when its outcome differs from the expected one.  An exception or
`SystemExit` escaping `main` is the outcome `crash`, which is always a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expected: str = "ok"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    smoke: tuple[Op, ...]  # reduced sizes, for the benchmark's own tests
    # How strongly the ops' times follow the reference kernel's (see reference.py).
    gauge_exponent: float = 1.0


def _op(name: str, text: str, expected: str = "ok") -> Op:
    return Op(name, tuple(text.split()), expected)


# Known defects at the time the benchmark was defined: the first raises a raw
# OverflowError, the second exits 0 with NaN data.
_OVERFLOW = _op("check-conditions-overflow", "check-conditions --kappa 50 --horizon 30")
_SIGMA_INF = "converge-grid --sigma inf"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge",
            "production-size strong-order study: wide batches, large arrays, "
            "interpolation reduction and peak memory",
            (_op("converge-uniform", "converge-uniform --ref-exp 14 "
                 "--coarse-exps 4,5,6,7,8,9,10,11 --samples 400"),),
            (_op("converge-uniform", "converge-uniform --ref-exp 10 "
                 "--coarse-exps 4,5,6,7 --samples 20"),),
            gauge_exponent=0.7,
        ),
        Workload(
            "malliavin",
            "gap study: 800 width-1 simulate_batch calls, no model quadrature; "
            "the single-path case and the bypass for kernel-integral changes",
            (_op("malliavin-check", "malliavin-check --ref-exp 11 "
                 "--coarse-exps 7,8,9,10 --samples 200"),),
            (_op("malliavin-check", "malliavin-check --ref-exp 8 "
                 "--coarse-exps 5,6,7 --samples 20"),),
        ),
        Workload(
            "cli-mix",
            "every subcommand at its default flags plus two invalid-input probes: "
            "kernel quadrature, Cholesky sampler, io and cli",
            (
                _op("simulate", "simulate"),
                _op("fbm-check", "fbm-check"),
                _op("converge-grid", "converge-grid"),
                _op("converge-uniform", "converge-uniform"),
                _op("inverse-moments", "inverse-moments"),
                _op("malliavin-check", "malliavin-check"),
                _op("check-conditions", "check-conditions"),
                _OVERFLOW,
                _op("converge-grid-sigma-inf", f"{_SIGMA_INF} --samples 20", "rejected"),
            ),
            (
                _op("simulate", "simulate --steps-exp 8"),
                _op("fbm-check", "fbm-check --steps-exp 5 --samples 200"),
                _op("converge-grid", "converge-grid --ref-exp 10 --coarse-exps 4,5,6,7 "
                    "--samples 20"),
                _op("converge-uniform", "converge-uniform --ref-exp 10 "
                    "--coarse-exps 4,5,6,7 --samples 20"),
                _op("inverse-moments", "inverse-moments --steps-exp 8 --samples 10"),
                _op("malliavin-check", "malliavin-check --ref-exp 8 --samples 20"),
                _op("check-conditions", "check-conditions"),
                _OVERFLOW,
                _op("converge-grid-sigma-inf", f"{_SIGMA_INF} --samples 2 --ref-exp 8 "
                    "--coarse-exps 4,5", "rejected"),
            ),
        ),
    )
}

# Subcommands that run the backward Euler scheme on samples x 2^exp path steps.
_SCHEME_COMMANDS = {
    "simulate", "converge-grid", "converge-uniform", "inverse-moments", "malliavin-check"
}


def path_steps(ops: tuple[Op, ...], parser) -> int:
    """Reference path.steps of the ops expected to succeed: sum of samples x 2^exp."""
    total = 0
    for op in ops:
        if op.expected != "ok" or op.argv[0] not in _SCHEME_COMMANDS:
            continue
        args = parser.parse_args(list(op.argv))
        exponent = args.ref_exp if hasattr(args, "ref_exp") else args.steps_exp
        total += getattr(args, "samples", 1) * 2**exponent
    return total


@dataclass
class OpResult:
    name: str
    expected: str
    outcome: str
    detail: str
    seconds: float
    bytes: int
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.outcome != self.expected


def classify(code: int | None, stderr: str, problems: list[str]) -> str:
    """Outcome of one invocation; `code` is None when an exception escaped main."""
    if code is None:
        return "crash"
    if code == 0:
        return "invalid" if problems else "ok"
    if code in (2, 3) and len(stderr.strip().splitlines()) == 1:
        return "rejected"
    return "bad-exit"


def run_op(op: Op, seed: int, scratch: Path, main) -> OpResult:
    """Run one op, validate and hash its data, then delete its run directory."""
    out = scratch / op.name
    shutil.rmtree(out, ignore_errors=True)
    argv = [*op.argv, "--seed", str(seed), "--workers", "1", "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    detail = ""
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = None
            detail = traceback.format_exception_only(exc)[-1].strip()
        seconds = time.perf_counter() - start

    run_dirs = sorted(p for p in out.iterdir() if p.is_dir()) if out.is_dir() else []
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    problems = []
    if code == 0:
        if len(run_dirs) == 1:
            problems = validate(op.argv[0], run_dirs[0])
        else:
            problems = [f"expected one run directory, found {len(run_dirs)}"]
    outcome = classify(code, stderr.getvalue(), problems)
    if not detail:
        detail = "; ".join(problems) or stderr.getvalue().strip()
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(files)
        if p.suffix == ".csv"
    }
    result = OpResult(op.name, op.expected, outcome, detail, seconds,
                      sum(p.stat().st_size for p in files), digests)
    shutil.rmtree(out, ignore_errors=True)
    return result


# ---------------------------------------------------------------- validation


def _columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _manifest(run_dir: Path) -> dict[str, str]:
    entries = {}
    for line in (run_dir / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def _finite(columns: dict[str, list[str]], names: tuple[str, ...], problems: list[str]) -> None:
    for name in names:
        if not all(math.isfinite(float(v)) for v in columns[name]):
            problems.append(f"non-finite {name}")


def _positive(columns: dict[str, list[str]], name: str, problems: list[str]) -> None:
    if not all(float(v) > 0.0 for v in columns[name]):
        problems.append(f"non-positive {name}")


def log2_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    lx = [math.log2(x) for x in xs]
    ly = [math.log2(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _in_window(label: str, value: float, low: float, high: float, problems: list[str]) -> None:
    if not low <= value <= high:
        problems.append(f"{label} {value:.4f} outside [{low:.2f}, {high:.2f}]")


def _check_simulate(run_dir: Path, problems: list[str]) -> None:
    data = _columns(run_dir / "data.csv")
    _finite(data, ("t", "X", "r"), problems)
    _positive(data, "X", problems)


def _check_fbm(run_dir: Path, problems: list[str]) -> None:
    data = _columns(run_dir / "data.csv")
    _finite(data, ("statistic", "threshold"), problems)
    _finite(_columns(run_dir / "sample_path.csv"), ("t", "B"), problems)
    failing = [c for c, ok in zip(data["check"], data["passed"]) if ok != "true"]
    if failing or _manifest(run_dir).get("all_checks_passed") != "true":
        problems.append(f"sampler checks failed: {','.join(failing)}")


def _check_convergence(run_dir: Path, problems: list[str]) -> None:
    data = _columns(run_dir / "data.csv")
    columns = ("h", "rms_sup_error_grid", "rms_sup_error_uniform")
    _finite(data, columns, problems)
    for name in columns:
        _positive(data, name, problems)
    if problems:
        return
    h = [float(v) for v in data["h"]]
    hurst = float(_manifest(run_dir)["hurst"])
    # Acceptance criteria 1 and 2: the strong order at grid nodes is 1, and
    # the uniform order lies in [H - 0.12, H + 0.18].
    grid = log2_slope(h, [float(v) for v in data["rms_sup_error_grid"]])
    uniform = log2_slope(h, [float(v) for v in data["rms_sup_error_uniform"]])
    _in_window("grid slope", grid, 0.85, 1.15, problems)
    _in_window("uniform slope", uniform, hurst - 0.12, hurst + 0.18, problems)


def _check_inverse_moments(run_dir: Path, problems: list[str]) -> None:
    data = _columns(run_dir / "data.csv")
    _finite(data, ("t", "inv_moment"), problems)
    _positive(data, "inv_moment", problems)


def _check_malliavin(run_dir: Path, problems: list[str]) -> None:
    data = _columns(run_dir / "data.csv")
    _finite(data, ("h", "mean_abs_gap"), problems)
    _positive(data, "mean_abs_gap", problems)
    ratios = [float(v) for v in data["ratio_vs_prev"]]
    if not math.isnan(ratios[0]):
        problems.append("first gap ratio is not nan")
    # Acceptance criterion 10: halving h halves the gap.
    for ratio in ratios[1:]:
        _in_window("gap ratio", ratio, 1.6, 2.4, problems)


def _check_conditions(run_dir: Path, problems: list[str]) -> None:
    data = _columns(run_dir / "data.csv")
    _finite(data, ("worst_margin", "worst_s"), problems)
    for holds, margin in zip(data["holds"], data["worst_margin"]):
        if (holds == "true") != (float(margin) >= 0.0):
            problems.append("holds disagrees with the sign of worst_margin")


_VALIDATORS = {
    "simulate": _check_simulate,
    "fbm-check": _check_fbm,
    "converge-grid": _check_convergence,
    "converge-uniform": _check_convergence,
    "inverse-moments": _check_inverse_moments,
    "malliavin-check": _check_malliavin,
    "check-conditions": _check_conditions,
}


def validate(command: str, run_dir: Path) -> list[str]:
    """Problems found in the data a subcommand wrote; empty when it is valid."""
    problems: list[str] = []
    try:
        _VALIDATORS[command](run_dir, problems)
    except (OSError, KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems

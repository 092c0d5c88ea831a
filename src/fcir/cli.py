"""Command-line front end: reproducible experiment runs with CSV output.

Every run creates `<out>/<subcommand>-<timestamp>/` holding the emitted data
files plus a `manifest.txt` sidecar recording the resolved configuration,
seeds, warnings, wall-clock duration and `status = ok`.  A run that fails
with exit code 3 leaves only the manifest, with `status = error` and the
error message.  Re-running a subcommand with the flags recorded in a
manifest reproduces its data files byte-for-byte (data files never contain
timing or environment information).

Exit codes: 0 on success, 2 on invalid flags or unknown subcommands, 3 on
domain or numerical errors raised by the library, including arithmetic and
memory errors that escape it.  `--workers` must be at least 1; larger values
are clamped to the CPU count, and the manifest records the effective value.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

from . import __version__, io
from .errors import FcirError
from .experiments import (
    ExperimentConfig,
    check_fbm_samplers,
    estimate_inverse_moments,
    malliavin_gap_study,
    run_convergence_grid,
    run_convergence_uniform,
)
from .fbm import GridSpec, HurstParameter, sample_fbm_circulant
from .model import CirParams, ConditionReport, check_moment_conditions, sufficient_moment_condition
from .scheme import simulate_path

# Model flags with the benchmark defaults used throughout the experiments;
# the --horizon default depends on the subcommand.
MODEL_DEFAULTS = {"kappa": 2.0, "theta": 0.5, "sigma": 0.5, "r0": 1.0, "hurst": 0.7}


def _add_model_flags(parser: argparse.ArgumentParser, horizon: float) -> None:
    for name, default in {**MODEL_DEFAULTS, "horizon": horizon}.items():
        parser.add_argument(f"--{name}", type=float, default=default)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=str, default="runs")
    parser.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcir",
        description="Backward Euler solver and Monte Carlo benchmarks for the "
        "CIR short-rate model driven by fractional Brownian motion (H > 1/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one trajectory, emitted as t,X,r")
    _add_model_flags(p, horizon=10.0)
    p.add_argument("--steps-exp", type=int, default=12, help="grid has 2^k steps")
    _add_run_flags(p)

    p = sub.add_parser("fbm-check", help="statistical validation of the fBm samplers")
    _add_model_flags(p, horizon=1.0)
    p.add_argument("--steps-exp", type=int, default=8)
    p.add_argument("--samples", type=int, default=2000)
    _add_run_flags(p)

    for name, help_text in (
        ("converge-grid", "matched-path strong errors at shared grid nodes"),
        ("converge-uniform", "matched-path strong errors in the uniform norm"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_model_flags(p, horizon=1.0)
        p.add_argument("--ref-exp", type=int, default=12)
        p.add_argument("--coarse-exps", type=_parse_exponents, default=(4, 5, 6, 7, 8, 9))
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--xi", type=float, default=0.5)
        _add_run_flags(p)

    p = sub.add_parser("inverse-moments", help="inverse-moment curve over one grid")
    _add_model_flags(p, horizon=10.0)
    p.add_argument("--steps-exp", type=int, default=12)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--p", type=int, default=2)
    _add_run_flags(p)

    p = sub.add_parser(
        "malliavin-check", help="gap between the product and exponential derivative forms"
    )
    _add_model_flags(p, horizon=1.0)
    p.add_argument("--ref-exp", type=int, default=8)
    p.add_argument("--coarse-exps", type=_parse_exponents, default=(5, 6, 7))
    p.add_argument("--samples", type=int, default=100)
    _add_run_flags(p)

    p = sub.add_parser("check-conditions", help="inverse-moment condition margins")
    _add_model_flags(p, horizon=1.0)
    p.add_argument("--p", type=int, default=6)
    _add_run_flags(p)

    return parser


def _params(args: argparse.Namespace) -> CirParams:
    return CirParams(kappa=args.kappa, theta=args.theta, sigma=args.sigma, r0=args.r0)


def _condition_summary(reports: tuple[ConditionReport, ...]) -> dict:
    return {f"condition_multiplier_{r.multiplier}": io.condition_record(r) for r in reports}


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        params=_params(args),
        hurst=HurstParameter(args.hurst),
        horizon=args.horizon,
        reference_exponent=args.ref_exp if hasattr(args, "ref_exp") else args.steps_exp,
        coarse_exponents=getattr(args, "coarse_exps", ()),
        samples=args.samples,
        base_seed=args.seed,
        xi=getattr(args, "xi", 0.5),
        p=getattr(args, "p", 2),
    )


def _cmd_simulate(args: argparse.Namespace, outdir: Path) -> dict:
    grid = GridSpec(args.horizon, 2**args.steps_exp)
    noise = sample_fbm_circulant(grid, HurstParameter(args.hurst), args.seed)
    path = simulate_path(noise, _params(args))
    io.write_solution_path(outdir / "data.csv", path)
    return {
        "steps": str(grid.steps),
        "base_seed": str(args.seed),
        "min_rate": io.format_float(float((path.x**2).min())),
        "data_files": "data.csv",
    }


def _cmd_fbm_check(args: argparse.Namespace, outdir: Path) -> dict:
    hurst = HurstParameter(args.hurst)
    grid = GridSpec(args.horizon, 2**args.steps_exp)
    checks = check_fbm_samplers(grid, hurst, args.samples, args.seed)
    io.write_fbm_path(outdir / "sample_path.csv", sample_fbm_circulant(grid, hurst, args.seed))
    io.write_sampler_checks(outdir / "data.csv", checks)
    return {
        "steps": str(grid.steps),
        "samples": str(args.samples),
        "base_seed": str(args.seed),
        "all_checks_passed": str(all(check.passed for check in checks)).lower(),
        "data_files": "data.csv,sample_path.csv",
    }


def _cmd_convergence(args: argparse.Namespace, outdir: Path, uniform: bool) -> dict:
    config = _experiment_config(args)
    runner = run_convergence_uniform if uniform else run_convergence_grid
    report = runner(config, workers=args.workers)
    io.write_convergence(outdir / "data.csv", report)
    return {
        "reference_exponent": str(config.reference_exponent),
        "coarse_exponents": ",".join(str(e) for e in config.coarse_exponents),
        "samples": str(config.samples),
        "base_seed": str(config.base_seed),
        "p": str(config.p),
        "xi": io.format_float(config.xi),
        "workers": str(args.workers),
        "fitted_on": report.fitted_on,
        "slope": "nan" if report.slope is None else io.format_float(report.slope),
        "intercept": "nan" if report.intercept is None else io.format_float(report.intercept),
        "data_files": "data.csv",
        **_condition_summary(report.condition_checks),
        **{f"report_warning_{index}": note for index, note in enumerate(report.warnings)},
    }


def _cmd_inverse_moments(args: argparse.Namespace, outdir: Path) -> dict:
    config = _experiment_config(args)
    checks = check_moment_conditions(config.p, config.params, config.hurst, config.horizon)
    curve = estimate_inverse_moments(config, workers=args.workers)
    io.write_inverse_moments(outdir / "data.csv", curve)
    return {
        "steps": str(config.reference_grid.steps),
        "samples": str(config.samples),
        "base_seed": str(config.base_seed),
        "p": str(config.p),
        "workers": str(args.workers),
        "max_inverse_moment": io.format_float(float(curve.values.max())),
        "data_files": "data.csv",
        **_condition_summary(checks),
    }


def _cmd_malliavin_check(args: argparse.Namespace, outdir: Path) -> dict:
    config = _experiment_config(args)
    report = malliavin_gap_study(config, workers=args.workers)
    io.write_malliavin_gaps(outdir / "data.csv", report)
    return {
        "reference_exponent": str(config.reference_exponent),
        "coarse_exponents": ",".join(str(e) for e in config.coarse_exponents),
        "samples": str(config.samples),
        "base_seed": str(config.base_seed),
        "workers": str(args.workers),
        "profile_max": io.format_float(max(report.profile_max)),
        "data_files": "data.csv",
    }


def _cmd_check_conditions(args: argparse.Namespace, outdir: Path) -> dict:
    params = _params(args)
    hurst = HurstParameter(args.hurst)
    reports = check_moment_conditions(args.p, params, hurst, args.horizon)
    io.write_condition_reports(outdir / "data.csv", reports)
    sufficient = sufficient_moment_condition(args.p, params, hurst, args.horizon)
    return {
        "p": str(args.p),
        "sufficient_closed_form": str(sufficient).lower(),
        "data_files": "data.csv",
        **_condition_summary(reports),
    }


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fbm-check": _cmd_fbm_check,
    "converge-grid": lambda args, outdir: _cmd_convergence(args, outdir, uniform=False),
    "converge-uniform": lambda args, outdir: _cmd_convergence(args, outdir, uniform=True),
    "inverse-moments": _cmd_inverse_moments,
    "malliavin-check": _cmd_malliavin_check,
    "check-conditions": _cmd_check_conditions,
}


def _make_outdir(root: str, command: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(root) / f"{command}-{stamp}"
    candidate = base
    suffix = 1
    while candidate.exists():
        suffix += 1
        candidate = base.with_name(f"{base.name}-{suffix}")
    candidate.mkdir(parents=True)
    return candidate


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.workers = min(args.workers, os.cpu_count() or 1)
    outdir = _make_outdir(args.out, args.command)

    manifest = {"command": args.command, "version": __version__}
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            summary = _HANDLERS[args.command](args, outdir)
        except (FcirError, ArithmeticError, MemoryError) as exc:
            message = str(exc) if isinstance(exc, FcirError) else f"{type(exc).__name__}: {exc}"
            message = " ".join(message.split())
            print(f"error: {message}", file=sys.stderr)
            manifest.update(status="error", error=message)
            io.write_key_values(outdir / "manifest.txt", manifest)
            return 3
    duration = time.perf_counter() - started

    manifest["status"] = "ok"
    manifest.update({k: io.format_float(getattr(args, k)) for k in (*MODEL_DEFAULTS, "horizon")})
    manifest.update(summary)
    manifest["seed_rule"] = "path i uses base_seed + i (mod 2^64)"
    manifest["duration_seconds"] = io.format_float(duration)
    manifest["warnings"] = (
        " | ".join(str(w.message) for w in caught) if caught else "(none)"
    )
    io.write_key_values(outdir / "manifest.txt", manifest)
    print(f"wrote {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

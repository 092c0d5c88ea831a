"""Command-line front end: reproducible experiment runs with CSV output.

Each subcommand is one entry of `SUBCOMMANDS`: its help text, its handler,
its model flags with their defaults and its own flags.  `fbm-check` samples
noise only, so of the model flags it takes just `--hurst` and `--horizon`.
A run's parser registers every subcommand but adds flags only to the one its
argv names (see `build_parser`), so its help, usage and error text are those
of the full parser.  Every run creates `<out>/<subcommand>-<timestamp>/`, or
with the first free suffix `-2`, `-3`, ... (runs started at once never share
one), holding the emitted data files plus a `manifest.txt` sidecar, whose values
`io` turns into text as it does data cells.  After `command`, `version` and
`status = ok` the manifest records every parsed flag except `--out` by its
argparse dest name (`steps_exp`, `ref_exp`, `coarse_exps`, `seed`,
`workers`, ...) in parser order, then the handler's results, `data_files`,
the seed rule, wall-clock duration, peak resident memory (`peak_rss_mb`, the
larger of this process and its largest worker) and `warnings`: the notes the
handler returns with its results, in report order, then the caught Python
warnings, joined by ` | `, or `(none)`.  The convergence and inverse-moment
studies note each inverse-moment condition that fails.  Each subcommand that
solves the scheme ends its results with its block split, the paths of its
largest block (`block_paths`) and the block count (`blocks`), and with the
step margin xi = 1 - h*max(0, -kappa/2) of the largest step h it solves
(`step_margin`); a margin below 1/2 adds a note.  A run that fails with exit
code 3 leaves only the manifest: `status = error`, the error message, then
the parsed flags; a run stopped by Ctrl-C or SIGTERM the same, with
`status = interrupted` and `error = interrupted` or `terminated`.  Re-running
a subcommand with the flags recorded in a manifest reproduces its data files
byte-for-byte on the same numpy and machine, or its error (data files never
contain timing or environment information); `fbm-check`'s data.csv also
depends on the BLAS thread count, as its Cholesky factor does.

`converge-uniform` runs the same study as `converge-grid` (the run directory
and `command` keep the name as typed); its manifest records `slope_<family>`
and `intercept_<family>` for all four error families, `nan` where none is
fitted.

Exit codes: 0 on success, 2 on invalid flags, unknown subcommands or an
`--out` under which no run directory can be made (one `error:` line, no
manifest), 3 on domain or numerical errors raised by the library, including
arithmetic and memory errors that escape it and a pool worker that dies (most
likely killed for lack of memory; use fewer `--workers`), and on an OS error
while the run's files are written (the error manifest is then written if it can be),
130 on Ctrl-C, 143 on SIGTERM (one `error: interrupted` or `terminated` line).
A run's files, its manifest last, are written before its one terminal line:
`wrote <run directory>` on stdout, or its `error:` line on stderr.  That
line is best-effort: a stdout or stderr that cannot take it (a closed pipe,
a full disk) changes neither the exit code nor the files.
Both signals take one stop path: while the run is live, one handler raises
KeyboardInterrupt carrying the signal (a signal the caller ignores stays
ignored), and `_STOPS` gives its exit code and error word.  The run is done
once its `ok` manifest is being written, and an error or interrupted run
once its cleanup starts: from then on both signals are ignored, so a late
one leaves exit 0 and the `ok` manifest.  `main(argv)` puts the caller's
handlers back when it returns; the program entry points (the console script
and `python -m fcir`, whose `main()` reads `sys.argv`) leave both ignored, as
their process ends with `main`.
`--workers` must be at least 1; larger values are clamped to the CPU count.
The manifest's `workers` records the processes that ran: a study's blocks
run in min(workers, blocks) of them (`ExperimentConfig.processes`), and
`fbm-check` and `check-conditions` in one.  A negative float given as its
own word after its flag, as in `--kappa -1e-3` or `--theta -inf`, is that
flag's value.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import resource
import signal
import sys
import threading
import time
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, io
from .errors import FcirError
from .experiments import (
    ExperimentConfig,
    check_fbm_samplers,
    estimate_inverse_moments,
    malliavin_gap_study,
    run_convergence,
    simulate_paths,
)
from .fbm import GridSpec, HurstParameter, sample_fbm_circulant
from .model import CirParams, ConditionReport, check_moment_conditions
from .scheme import step_margin

# Model flags with the benchmark defaults used throughout the experiments.
# Each subcommand adds its own --horizon default; fbm-check takes the noise
# flags only.
NOISE_DEFAULTS = {"hurst": 0.7}
MODEL_DEFAULTS = {"kappa": 2.0, "theta": 0.5, "sigma": 0.5, "r0": 1.0, **NOISE_DEFAULTS}


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
        samples=getattr(args, "samples", 1),  # simulate solves one path
        base_seed=args.seed,
        # a subcommand without --p leaves ExperimentConfig's default
        **({"p": args.p} if hasattr(args, "p") else {}),
    )


def _study_record(config: ExperimentConfig, workers: int) -> tuple[dict, tuple[str, ...]]:
    """A study's block split, processes and step margin as manifest entries, and a note.

    The blocks are those `config.block_rows(workers)` gives the study, and
    `workers` (which takes the flag's place in the manifest) the processes
    that run them; the margin is that of the largest step it solves.  Below
    1/2 each implicit step may amplify its input more than twice over, and
    the note says so.
    """
    rows = config.block_rows(workers)
    step = max((config.reference_grid.step, *config.step_sizes()))
    margin = step_margin(step, config.params)
    notes = () if margin >= 0.5 else (
        f"step margin {margin:.3g} at h={step:g} is below 1/2: each implicit step may "
        f"amplify its input by up to {1.0 / margin:.3g}, so the run's error constant is "
        "large; use a smaller step",
    )
    entries = {"block_paths": max(rows), "blocks": len(rows), "step_margin": margin,
               "workers": config.processes(workers)}
    return entries, notes


def _cmd_simulate(args: argparse.Namespace, outdir: Path) -> tuple[dict, tuple[str, ...]]:
    config = _experiment_config(args)
    (x,) = simulate_paths(config, workers=args.workers)
    io.write_solution_path(outdir / "data.csv", config.reference_grid, x)
    entries, notes = _study_record(config, args.workers)
    return {"min_rate": (x**2).min(), **entries}, notes


def _cmd_fbm_check(args: argparse.Namespace, outdir: Path) -> tuple[dict, tuple[str, ...]]:
    hurst = HurstParameter(args.hurst)
    grid = GridSpec.dyadic(args.horizon, args.steps_exp)
    checks = check_fbm_samplers(grid, hurst, args.samples, args.seed)
    (path,) = sample_fbm_circulant(grid, hurst, [args.seed])
    io.write_fbm_path(outdir / "sample_path.csv", grid, path)
    io.write_sampler_checks(outdir / "data.csv", checks)
    return {"all_checks_passed": all(check.passed for check in checks), "workers": 1}, ()


def _cmd_convergence(args: argparse.Namespace, outdir: Path) -> tuple[dict, tuple[str, ...]]:
    config = _experiment_config(args)
    report = run_convergence(config, workers=args.workers)
    io.write_convergence(outdir / "data.csv", report)
    entries, notes = _study_record(config, args.workers)
    return {
        **{
            f"{key}_{family}": value
            for family, fit in report.fits.items()
            for key, value in zip(("slope", "intercept"), fit or (math.nan, math.nan))
        },
        **_condition_summary(report.condition_checks),
        **entries,
    }, (*report.warnings, *notes)


def _cmd_inverse_moments(args: argparse.Namespace, outdir: Path) -> tuple[dict, tuple[str, ...]]:
    config = _experiment_config(args)
    curve = estimate_inverse_moments(config, workers=args.workers)
    io.write_inverse_moments(outdir / "data.csv", curve)
    entries, notes = _study_record(config, args.workers)
    return {
        "max_inverse_moment": curve.values.max(),
        **_condition_summary(curve.condition_checks),
        **entries,
    }, (*curve.warnings, *notes)


def _cmd_malliavin_check(args: argparse.Namespace, outdir: Path) -> tuple[dict, tuple[str, ...]]:
    config = _experiment_config(args)
    report = malliavin_gap_study(config, workers=args.workers)
    io.write_malliavin_gaps(outdir / "data.csv", report)
    entries, notes = _study_record(config, args.workers)
    return {"profile_max": max(report.profile_max), **entries}, notes


def _cmd_check_conditions(args: argparse.Namespace, outdir: Path) -> tuple[dict, tuple[str, ...]]:
    params = _params(args)
    reports = check_moment_conditions(args.p, params, HurstParameter(args.hurst), args.horizon)
    io.write_condition_reports(outdir / "data.csv", reports)
    return {
        "sufficient_closed_form": reports[0].sufficient,
        **_condition_summary(reports),
        "workers": 1,
    }, ()


class Subcommand(NamedTuple):
    """Help text, handler, model flags (name -> default), own flags (name -> (type, default))."""

    help: str
    handler: Callable[[argparse.Namespace, Path], tuple[dict, tuple[str, ...]]]
    model: dict[str, float]
    flags: dict[str, tuple[Callable[[str], object], object]]


_CONVERGENCE = Subcommand(
    "matched-path strong errors at grid nodes and in the uniform norm", _cmd_convergence,
    {**MODEL_DEFAULTS, "horizon": 1.0},
    {"ref-exp": (int, 12), "coarse-exps": (_parse_exponents, (4, 5, 6, 7, 8, 9)),
     "samples": (int, 200), "p": (int, 2)},
)

SUBCOMMANDS = {
    "simulate": Subcommand(
        "one trajectory on 2^steps-exp steps, emitted as t,X,r", _cmd_simulate,
        {**MODEL_DEFAULTS, "horizon": 10.0},
        {"steps-exp": (int, 12)},
    ),
    "fbm-check": Subcommand(
        "statistical validation of the fBm samplers", _cmd_fbm_check,
        {**NOISE_DEFAULTS, "horizon": 1.0},
        {"steps-exp": (int, 8), "samples": (int, 2000)},
    ),
    "converge-grid": _CONVERGENCE,
    "converge-uniform": _CONVERGENCE,
    "inverse-moments": Subcommand(
        "inverse-moment curve over one grid", _cmd_inverse_moments,
        {**MODEL_DEFAULTS, "horizon": 10.0},
        {"steps-exp": (int, 12), "samples": (int, 100), "p": (int, 2)},
    ),
    "malliavin-check": Subcommand(
        "gap between the product and exponential derivative forms", _cmd_malliavin_check,
        {**MODEL_DEFAULTS, "horizon": 1.0},
        {"ref-exp": (int, 8), "coarse-exps": (_parse_exponents, (5, 6, 7)), "samples": (int, 100)},
    ),
    "check-conditions": Subcommand(
        "inverse-moment condition margins", _cmd_check_conditions,
        {**MODEL_DEFAULTS, "horizon": 1.0}, {"p": (int, 6)},
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fcir parser: every subcommand, with its flags only on `command`'s subparser.

    With `command` None every subparser gets its flags.  Any other value
    leaves every subparser but `command`'s with `-h` alone, so an argv whose
    subcommand is `command` parses, errs and prints help as under the full
    parser, which costs over twice as much to build.  `main` passes the first
    word of its argv that names a subcommand: the word argparse dispatches on.
    """
    parser = argparse.ArgumentParser(
        prog="fcir",
        description="Backward Euler solver and Monte Carlo benchmarks for the "
        "CIR short-rate model driven by fractional Brownian motion (H > 1/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workers = os.cpu_count() or 1
    run_flags = {"seed": (int, 1), "out": (str, "runs"), "workers": (_positive_int, workers)}
    for name, spec in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        p.set_defaults(handler=spec.handler)
        if command not in (None, name):
            continue
        for flag, default in spec.model.items():
            p.add_argument(f"--{flag}", type=float, default=default)
        for flag, (kind, default) in {**spec.flags, **run_flags}.items():
            p.add_argument(f"--{flag}", type=kind, default=default)
    return parser


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest finished child, in MB."""
    kilobytes = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kilobytes / 1024


def _make_outdir(root: str, command: str) -> Path:
    """`<root>/<command>-<timestamp>`, or its first free `-2`, `-3`, ...: `mkdir` claims each."""
    parent = Path(root)
    parent.mkdir(parents=True, exist_ok=True)
    base = f"{command}-{time.strftime('%Y%m%d-%H%M%S')}"
    for suffix in itertools.count(1):
        candidate = parent / (base if suffix == 1 else f"{base}-{suffix}")
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:  # taken, perhaps by a run started at the same second
            pass


def _join_float_values(argv: list[str]) -> list[str]:
    """Each `--flag VALUE` whose VALUE is a negative float, as `--flag=VALUE`.

    argparse reads a separate word such as `-1e-3` or `-inf` as an option,
    and takes only plain negative decimals as values.
    """
    joined: list[str] = []
    for word in argv:
        flag = joined[-1] if joined else ""
        if word.startswith("-") and flag.startswith("--") and "=" not in flag and _is_float(word):
            joined[-1] = f"{flag}={word}"
        else:
            joined.append(word)
    return joined


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


_STOPS = {signal.SIGINT: (130, "interrupted"), signal.SIGTERM: (143, "terminated")}


def _stop(owner: int, signum, frame):
    """Raise KeyboardInterrupt(signum) in process `owner`; a worker forked from it dies of it."""
    if os.getpid() == owner:
        raise KeyboardInterrupt(signum)
    signal.signal(signum, signal.SIG_DFL)  # as if the worker had no handler
    os.kill(os.getpid(), signum)


def _say(line: str, stream, entry_point: bool) -> None:
    """Print `line` to `stream` best-effort: a run's record is its files and its exit code.

    An OSError, as from a closed pipe or a full disk, drops the line.  At a
    program entry point the stream's descriptor is then pointed at
    os.devnull, so the interpreter's last flush cannot fail either (Python's
    "Note on SIGPIPE").
    """
    try:
        print(line, file=stream, flush=True)
    except OSError:
        if entry_point:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    words = _join_float_values(sys.argv[1:] if argv is None else argv)
    command = next((word for word in words if word in SUBCOMMANDS), None)
    args = build_parser(command).parse_args(words)
    args.workers = min(args.workers, os.cpu_count() or 1)
    try:
        outdir = _make_outdir(args.out, args.command)
    except OSError as exc:
        # no directory to hold a manifest, so the message is the only record
        _say(f"error: cannot make a run directory under {args.out!r}: {exc.strerror or exc}",
             sys.stderr, argv is None)
        return 2

    head = {"command": args.command, "version": __version__}
    flags = {
        dest: value
        for dest, value in vars(args).items()
        if dest not in ("command", "out", "handler")
    }
    # a stop signal the caller does not ignore raises KeyboardInterrupt (main thread only)
    in_main_thread = threading.current_thread() is threading.main_thread()
    previous = {signum: signal.signal(signum, partial(_stop, os.getpid())) for signum in _STOPS
                if in_main_thread and signal.getsignal(signum) != signal.SIG_IGN}
    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, notes = args.handler(args, outdir)
        duration = time.perf_counter() - started
        manifest = {**head, "status": "ok", **flags, **results}
        manifest["data_files"] = ",".join(sorted(path.name for path in outdir.iterdir()))
        manifest["seed_rule"] = "path i uses seed + i (mod 2^64)"
        manifest["duration_seconds"] = duration
        manifest["peak_rss_mb"] = _peak_rss_mb()
        notes = [*notes, *(str(w.message) for w in caught)]
        manifest["warnings"] = " | ".join(notes) if notes else "(none)"
        for signum in previous:  # the run is done: a stop signal is ignored from here on
            signal.signal(signum, signal.SIG_IGN)
        io.write_key_values(outdir / "manifest.txt", manifest)
    except (FcirError, ArithmeticError, MemoryError, OSError, KeyboardInterrupt) as exc:
        for signum in previous:  # a second signal cannot cut this manifest short
            signal.signal(signum, signal.SIG_IGN)
        if isinstance(exc, KeyboardInterrupt):  # a bare one, as Python's handler raises, is SIGINT
            status = "interrupted"
            code, message = _STOPS.get(exc.args[0] if exc.args else None, _STOPS[signal.SIGINT])
        else:
            status, code = "error", 3
            message = str(exc) if isinstance(exc, FcirError) else f"{type(exc).__name__}: {exc}"
            message = " ".join(message.split())
        try:
            for written in outdir.iterdir():  # a file written before the error
                written.unlink()
            io.write_key_values(
                outdir / "manifest.txt", {**head, "status": status, "error": message, **flags}
            )
        except OSError:
            pass  # the error line is then the only record of the run
        _say(f"error: {message}", sys.stderr, argv is None)
        return code
    finally:  # a program entry point leaves them ignored, as its process ends with main
        for signum, handler in previous.items():
            signal.signal(signum, signal.SIG_IGN if argv is None else handler)
    _say(f"wrote {outdir}", sys.stdout, argv is None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

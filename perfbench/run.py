"""Benchmark of the `fcir` program: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` beside this directory.
The workload's ops (see `ops.py`) run in process through `fcir.cli.main`, one
pass after another: one warm-up pass, then passes until `--seconds` have been
measured.  Every pass must reproduce the warm-up pass's outcomes and data
digests, or the result is marked incorrect.

`--trace 0` reports the end-to-end metrics:

- `setup_s`: median time to import fcir and fcir.cli, each sample in a fresh
  process and scaled by an interpreter kernel timed around it (see
  `import_probe.py`); this process's own import is not counted, as the
  benchmark has loaded modules of its own by then;
- `pass_norm_s.p50`: median time of one pass, with each op's wall time scaled
  by the reference kernel timed before and after it (see `reference.py`), so
  that a slower or faster host does not move it;
- `path_steps_per_s`: reference path.steps per pass over `pass_norm_s.p50`;
- `peak_rss_mb`: peak resident memory of this process;
- `ok_ops_share`: ops whose outcome was the expected one, over ops attempted.

`--trace 1` runs untraced passes for half the time and traced passes (see
`spans.py`) for the other half, and reports the per-layer metrics, the plain
wall time `pass_s.p50` of the untraced passes and the tracing overhead.
`--workload all` runs each workload in its own fresh process, one after
another.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full record (environment, per-op
outcomes, digests and timings) goes to `.perfbench/` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import ops as ops_module  # noqa: E402
from perfbench import reference  # noqa: E402
from perfbench import spans  # noqa: E402

# setup_s is the median of this many imports, each in a fresh process.
SETUP_SAMPLES = 7
PROBE = Path(__file__).resolve().with_name("import_probe.py")
_BLAS_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)


def import_fcir():
    """Import fcir and fcir.cli from SRC and return fcir.cli."""
    sys.path.insert(0, str(SRC))
    importlib.import_module("fcir")
    cli = importlib.import_module("fcir.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fcir was imported from {cli.__file__}, not from {SRC}")
    return cli


def import_seconds_in_fresh_process() -> tuple[float, float]:
    """Wall and kernel-scaled seconds of one import of fcir in a fresh process."""
    completed = subprocess.run(
        [sys.executable, str(PROBE), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    wall, scaled = completed.stdout.split()
    return float(wall), float(scaled)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT; None outside one (git looks no higher)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_VARIABLES},
        "git_commit": _git_commit(),
    }


@dataclass
class Pass:
    results: list
    wall_s: float  # sum of the ops' wall times
    norm_s: float  # the same, each op rescaled by the reference kernel around it


class Runner:
    """Runs passes over one workload's ops and checks them against the warm-up pass."""

    def __init__(self, ops: tuple, seed: int, scratch: Path, main, gauge, nominal_s: float,
                 exponent: float = 1.0):
        self.ops, self.seed, self.scratch, self.main = ops, seed, scratch, main
        # The reference kernel, its nominal time, and how strongly op times follow it.
        self.gauge, self.nominal_s, self.exponent = gauge, nominal_s, exponent
        self.warmup: list | None = None  # results every later pass must reproduce
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        self.op_names: list[str] = []  # one entry per op run; its index is the op id
        self.gauge_s: list[float] = []

    def run_pass(self, tracer: spans.Tracer | None = None) -> Pass:
        results, norm_s = [], 0.0
        before = self.gauge()
        for op in self.ops:
            if tracer is not None:
                tracer.op = len(self.op_names)
            self.op_names.append(op.name)
            result = ops_module.run_op(op, self.seed, self.scratch, self.main)
            after = self.gauge()
            norm_s += result.seconds * (2.0 * self.nominal_s / (before + after)) ** self.exponent
            self.gauge_s.append(after)
            results.append(result)
            before = after
        self.attempted += len(results)
        self.failed += sum(r.failed for r in results)
        if self.warmup is None:
            self.warmup = results
        for now, first in zip(results, self.warmup):
            if (now.outcome, now.digests) != (first.outcome, first.digests):
                self.mismatches.append(f"{now.name}: outcome or data digest changed")
        return Pass(results, sum(r.seconds for r in results), norm_s)

    def timed_passes(self, seconds: float, tracer: spans.Tracer | None = None) -> list[Pass]:
        """Passes until `seconds` have elapsed (at least one)."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(tracer))
        return passes


def _median(passes: list[Pass], field: str) -> float:
    return statistics.median(getattr(p, field) for p in passes)


def run_workload(args: argparse.Namespace) -> int:
    workload = ops_module.WORKLOADS[args.workload]
    op_list = workload.smoke if args.smoke else workload.ops
    cli = import_fcir()
    # Set-up is only reported untraced; the smoke run takes one sample.
    samples = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES
    setup = [import_seconds_in_fresh_process() for _ in range(samples)]

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    scratch = OUT / f"tmp-{os.getpid()}"
    # `main` is looked up on each call, so traced passes go through its wrapper.
    runner = Runner(op_list, args.seed, scratch, lambda argv: cli.main(argv),
                    reference.reference_seconds, reference.REFERENCE_S, workload.gauge_exponent)
    try:
        runner.run_pass()  # warm-up: fills caches, not timed
        if args.trace:
            plain = runner.timed_passes(args.seconds / 2)
            with spans.Tracer() as tracer:
                traced = runner.timed_passes(args.seconds / 2, tracer)
            span_path = OUT / f"{stem}-spans.jsonl"
            spans.dump(span_path, tracer.spans, runner.op_names)
            io_bytes = statistics.fmean(sum(r.bytes for r in p.results) for p in traced)
            metrics = spans.layer_metrics(tracer.spans, len(traced), io_bytes)
            metrics["pass_s.p50"] = (_median(plain, "wall_s"), "s")
            metrics["trace_overhead"] = (
                _median(traced, "wall_s") / _median(plain, "wall_s") - 1, "ratio"
            )
            measured = plain + traced
        else:
            span_path = None
            measured = runner.timed_passes(args.seconds)
            norm_s = _median(measured, "norm_s")
            metrics = {
                "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
                "pass_norm_s.p50": (norm_s, "s"),
                "path_steps_per_s": (
                    ops_module.path_steps(op_list, cli.build_parser()) / norm_s, "1/s"
                ),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_ops_share": (1 - runner.failed / runner.attempted, "share"),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = not runner.mismatches
    failing = [r for r in runner.warmup if r.failed]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "correct": correct,
        "mismatches": runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_ops_share": runner.failed / runner.attempted,
        "passes": len(measured),
        "pass_wall_s": [p.wall_s for p in measured],
        "pass_norm_s": [p.norm_s for p in measured],
        "reference_s": runner.gauge_s,
        "setup_wall_s": [wall for wall, _ in setup],
        "setup_scaled_s": [scaled for _, scaled in setup],
        "ops": [
            {
                **asdict(first),
                "seconds": statistics.median(p.results[i].seconds for p in measured),
                "argv": list(op_list[i].argv),
            }
            for i, first in enumerate(runner.warmup)
        ],
        "span_dump": str(span_path) if span_path else None,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result_path = OUT / f"{stem}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}: {workload.why}")
    print(f"passes {len(measured)} measured + 1 warm-up, {len(op_list)} ops each; "
          f"wall pass_s.p50 {_median(measured, 'wall_s'):.4f} s, "
          f"reference kernel {statistics.median(runner.gauge_s):.4f} s")
    if setup:
        print(f"set-up: wall import p50 {statistics.median(w for w, _ in setup):.4f} s "
              f"over {len(setup)} fresh processes")
    print(f"failed ops {runner.failed}/{runner.attempted} "
          f"(failed_ops_share {record['failed_ops_share']:.4f})")
    for result in failing:
        print(f"  FAILED {result.name}: expected {result.expected}, got {result.outcome}: "
              f"{result.detail.splitlines()[0] if result.detail else ''}")
    for message in runner.mismatches:
        print(f"  INCORRECT {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"record: {result_path}")
    if span_path:
        print(f"spans: {span_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in ops_module.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*ops_module.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced op sizes and one set-up sample, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "fcir" / "__init__.py").is_file():
        print(f"error: no fcir package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare the data files two source trees of fcir write for the same runs.

Usage:
    python3 tools/golden_bytes.py PARENT_SRC CHANGE_SRC [--case "ARGV"]...
    python3 tools/golden_bytes.py --digests SRC

PARENT_SRC and CHANGE_SRC are directories that hold the `fcir` package (the
`src` directory of two checkouts).  Each of the 7 subcommands runs at its
default flags with `--workers 1` and `--workers 2`, then the runs in
`EXTRA_CASES` and every extra `--case` (a subcommand with its flags, quoted
as one argument), each in a fresh interpreter with a temporary `--out`.
The script prints the sha256 of every `data.csv` and `sample_path.csv` side
by side and exits 1 if any pair differs or any run fails.  Only the
standard library is used.

With `--digests SRC` the script instead runs the cases of
`tests/test_golden.py` on the one tree SRC, in a fresh interpreter, and prints
the `DIGESTS` entry for that interpreter's (numpy, scipy, machine) key, ready
to paste into the test.  Pasting a changed digest records an output change.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = (
    "simulate",
    "fbm-check",
    "converge-grid",
    "converge-uniform",
    "inverse-moments",
    "malliavin-check",
    "check-conditions",
)
# Runs beyond the default flags, once each with `--workers 1`: the `converge`
# benchmark op, an inverse-moment study in 2 blocks, the `malliavin` benchmark
# op (one block, each coarse grid solved once), a horizon whose nodes are
# not dyadic fractions of 1, a regime where 3% of the backward Euler steps
# have a < 0 (23% of the 64-step chunks of `simulate_batch` are solved
# again), levels near 1e-150 where c is negligible next to a^2 (the unused
# conjugate branch of the implicit root would divide by zero), a short-memory
# circulant embedding, the largest power-of-two grid whose embedding is
# accepted at H = 0.9999 (negative eigenvalues within the tolerance are
# clamped; 2^18 steps are rejected), and a kappa < 0 condition at z =
# |kappa|*T/2 = 700, just inside the kernel integral's overflow refusal.
EXTRA_CASES = (
    "converge-uniform --ref-exp 14 --coarse-exps 4,5,6,7,8,9,10,11 --samples 400",
    "inverse-moments --steps-exp 14 --samples 1000",
    "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200",
    "converge-uniform --horizon 0.3",
    "simulate --sigma 2 --theta 0.01 --r0 0.01",
    "simulate --r0 1e-300 --theta 1e-300 --steps-exp 6",
    "fbm-check --hurst 0.3 --steps-exp 10 --samples 200",
    "simulate --steps-exp 17 --hurst 0.9999",
    "check-conditions --kappa -2 --theta -0.5 --horizon 700",
)
DATA_FILES = ("data.csv", "sample_path.csv")
TESTS = Path(__file__).resolve().parents[1] / "tests"
# Run in the fresh interpreter of `--digests`, with the tests directory as argv[1].
DIGEST_ENTRY = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden as golden

def digests(argv):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        return golden.data_digests(argv, Path(out))

entry = {case: digests(case) for case in golden.CASES}
for case, (argv, nodes) in golden.SPLIT_CASES.items():
    golden.experiments._BLOCK_NODES = nodes
    entry[case] = digests(argv)
q = json.dumps
print(f"    ({', '.join(map(q, golden.KEY))}): {{")
for case, files in entry.items():
    print(f"        {q(case)}: {{")
    for name, digest in sorted(files.items()):
        print(f"            {q(name)}: {q(digest)},")
    print("        },")
print("    },")
"""


def run_digests(src: Path, argv: list[str]) -> dict[str, str]:
    """Run `python -m fcir argv` against src; sha256 of each data file it wrote."""
    with tempfile.TemporaryDirectory() as out:
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "fcir", *argv, "--out", out],
            env=env,
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()}")
        (run_dir,) = Path(out).iterdir()
        return {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in DATA_FILES
            if (run_dir / name).exists()
        }


def print_digest_entry(src: Path) -> int:
    """Print the test_golden DIGESTS entry of the cases run against src."""
    done = subprocess.run(
        [sys.executable, "-c", DIGEST_ENTRY, str(TESTS)],
        env={**os.environ, "PYTHONPATH": str(src.resolve())},
    )
    return done.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, nargs="?")
    parser.add_argument("change_src", type=Path, nargs="?")
    parser.add_argument("--case", action="append", default=[], help="extra run, quoted")
    parser.add_argument("--digests", type=Path, metavar="SRC", help="print DIGESTS for SRC")
    args = parser.parse_args()
    if args.digests is not None:
        if args.parent_src or args.case:
            parser.error("--digests takes no other arguments")
        return print_digest_entry(args.digests)
    if args.change_src is None:
        parser.error("PARENT_SRC and CHANGE_SRC are required")

    cases = [[name, "--workers", str(w)] for name in SUBCOMMANDS for w in (1, 2)]
    cases += [[*shlex.split(case), "--workers", "1"] for case in EXTRA_CASES]
    cases += [shlex.split(case) for case in args.case]
    mismatches = 0
    for argv in cases:
        label = " ".join(argv)
        try:
            parent = run_digests(args.parent_src.resolve(), argv)
            change = run_digests(args.change_src.resolve(), argv)
        except RuntimeError as exc:
            print(f"FAIL  {label}: {exc}")
            mismatches += 1
            continue
        for name in sorted(parent.keys() | change.keys()):
            left, right = parent.get(name, "-"), change.get(name, "-")
            verdict = "same" if left == right else "DIFF"
            mismatches += verdict == "DIFF"
            print(f"{verdict}  {left[:16]}  {right[:16]}  {name:15}  {label}")
    print(f"{len(cases)} runs, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare the data files and manifests two source trees of fcir write for the golden cases.

Usage:
    python3 tools/golden_bytes.py PARENT_SRC CHANGE_SRC [--case "ARGV"]...
    python3 tools/golden_bytes.py --digests SRC

PARENT_SRC, CHANGE_SRC and SRC are directories that hold the `fcir` package
(the `src` directory of a checkout).  The cases are those of
`tests/test_golden.py`, the one golden table: `CASES` and `SPLIT_CASES`;
two trees are also compared on `EXTRA_CASES` below and on every extra
`--case` (a subcommand with its flags, quoted as one argument).  Each tree
runs them in one fresh interpreter, through that module's `data_digests`,
with a temporary `--out`.  An extra case that repeats another, or a case of
either tree's table, is refused with exit 2.

Given two trees, the script prints the sha256 of every data file side by
side, then whether the two `manifest.txt` files are the same but for their
`duration_seconds` and `peak_rss_mb` lines, and exits 1 if any pair of data
files or manifests differs or any run fails.  An extra case that fails on
both trees with the same error text counts as a match and is reported as
`same-error`, so error messages can be compared too; a failing case of the
table is always a mismatch.  Under each differing CSV it prints, per
differing numeric column the two files share, the largest absolute and
relative difference of a cell, and names the columns only one file has;
under each differing manifest, the keys whose values differ.  With
`--digests SRC` it instead prints the `DIGESTS` entry of the cases for that
interpreter's (numpy, machine) key, ready to paste into the test; pasting a
changed digest records an output change.  Only the standard library is
used here.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
# Cases compared between two trees but kept out of the digest table: larger
# runs whose bytes guard a change of layout, not of output.
EXTRA_CASES = (
    # fbm-check's Cholesky draws and covariance z-scores in several row slices:
    # 29 slices of draws and 293 of z-scores at 2^11 steps, 97 and 17 at 2^9
    "fbm-check --steps-exp 11 --samples 200",
    "fbm-check --hurst 0.55 --steps-exp 9 --samples 3000",
    # circulant tiles of 4, 4 and 1 rows at 2^13 steps, and 3 tiles of 1 row at 2^15
    "converge-grid --ref-exp 13 --coarse-exps 4,5 --samples 9",
    "inverse-moments --steps-exp 15 --samples 3",
    # manifests: failing inverse-moment conditions, a step margin below 1/2
    # and an error manifest
    "inverse-moments --sigma 2 --steps-exp 6 --samples 4",
    "simulate --kappa=-3.9 --theta=-0.5 --horizon 8 --steps-exp 4",
    "converge-grid --sigma inf",
)
# Manifest lines that measure the run, not its result, and so are not compared.
TIMING_KEYS = ("duration_seconds", "peak_rss_mb")
# Run in a fresh interpreter with the tests directory as argv[1], the output
# directory as argv[2] and the extra cases after them; case i writes its run
# directory under <output>/<i>.  Prints the key, per case its digests or why it
# failed, and the cases of the golden table.
ENTRY = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden as golden

def run(case, out):
    out.mkdir()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            return golden.data_digests(case, out)
        except (Exception, SystemExit) as exc:
            return " ".join(f"{type(exc).__name__}: {exc} {stderr.getvalue()}".split())

table = [*golden.CASES, *golden.SPLIT_CASES]
cases = [*table, *sys.argv[3:]]
out = Path(sys.argv[2])
results = {case: run(case, out / str(i)) for i, case in enumerate(cases)}
print(json.dumps([golden.KEY, results, table]))
"""
# Prints the cases of the golden table, run like ENTRY with only argv[1].
TABLE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_golden as golden
print(json.dumps([*golden.CASES, *golden.SPLIT_CASES]))
"""


def run_entry(src: Path, entry: str, *argv: str):
    """The JSON of the last line entry prints in a fresh interpreter that imports fcir from src.

    ENTRY gives the key, the per-case digests (or failure text) and the table
    cases; TABLE gives the table cases only.
    """
    done = subprocess.run(
        [sys.executable, "-c", entry, str(TESTS), *argv],
        env={**os.environ, "PYTHONPATH": str(src.resolve())},
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{src}: exit {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def print_digest_entry(src: Path) -> int:
    """Print the test_golden DIGESTS entry of the cases run against src."""
    with tempfile.TemporaryDirectory() as out:
        key, results, _ = run_entry(src, ENTRY, out)
    failed = {case: result for case, result in results.items() if isinstance(result, str)}
    for case, reason in failed.items():
        print(f"FAIL  {case}: {reason}", file=sys.stderr)
    if failed:
        return 1
    q = json.dumps
    print(f"    ({', '.join(map(q, key))}): {{")
    for case, files in results.items():
        print(f"        {q(case)}: {{")
        for name, digest in sorted(files.items()):
            print(f"            {q(name)}: {q(digest)},")
        print("        },")
    print("    },")
    return 0


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return {name: [row[index] for row in rows] for index, name in enumerate(header)}


def column_differences(old: Path, new: Path) -> list[str]:
    """Per differing numeric column of two CSVs: the largest absolute and relative cell difference.

    A relative difference is |a - b| / max(|a|, |b|).  Identical columns are
    left out; a differing column that holds text, or a different number of
    rows, is named instead.
    """
    left, right = read_columns(old), read_columns(new)
    lines = [f"only in parent: {name}" for name in left if name not in right]
    lines += [f"only in change: {name}" for name in right if name not in left]
    for name in (name for name in left if name in right):
        if len(left[name]) != len(right[name]):
            lines.append(f"{name}: {len(left[name])} rows vs {len(right[name])}")
            continue
        try:
            pairs = [(float(a), float(b)) for a, b in zip(left[name], right[name]) if a != b]
        except ValueError:
            lines.append(f"{name}: text cells differ")
            continue
        if not pairs:
            continue
        absolute = [abs(a - b) for a, b in pairs]
        relative = [d and d / max(abs(a), abs(b)) for d, (a, b) in zip(absolute, pairs)]
        # a nan or infinite cell on one side only is the largest difference there is
        biggest = [max((math.inf if math.isnan(d) else d for d in diffs), default=0.0)
                   for diffs in (absolute, relative)]
        lines.append(f"{name}: max abs {biggest[0]:.3g}, max rel {biggest[1]:.3g}")
    return lines


def manifest_entries(run_out: Path) -> dict[str, str]:
    """A case's manifest as key -> value, but for `TIMING_KEYS`; empty if it wrote none."""
    path = next(run_out.glob("*/manifest.txt"), None)
    lines = path.read_text().splitlines() if path else []
    return {key: value for key, value in (line.split(" = ", 1) for line in lines)
            if key not in TIMING_KEYS}


def manifest_differences(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The keys whose manifest values differ, or a note that only their order does."""
    keys = [key for key in {**old, **new} if old.get(key) != new.get(key)]
    if keys or list(old) == list(new):
        return keys
    return ["(key order)"]


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
    extra = [*EXTRA_CASES, *args.case]
    # results are keyed by case text, so a repeated case would be run twice
    # but reported once, under the run directory of the other
    for src in (args.parent_src, args.change_src):
        cases = [*run_entry(src, TABLE), *extra]
        repeated = sorted({case for case in extra if cases.count(case) > 1})
        if repeated:
            parser.error(f"--case repeats a case of {src}: {', '.join(repeated)}")

    with tempfile.TemporaryDirectory() as scratch:
        outs = Path(scratch, "parent"), Path(scratch, "change")
        for out in outs:
            out.mkdir()
        _, parent, table = run_entry(args.parent_src, ENTRY, str(outs[0]), *extra)
        _, change, _ = run_entry(args.change_src, ENTRY, str(outs[1]), *extra)
        mismatches = manifests = 0
        for index, (case, left) in enumerate(parent.items()):
            right = change[case]
            if case not in table and isinstance(left, str) and left == right:
                print(f"same-error  {case}: {left}")
            elif isinstance(left, str) or isinstance(right, str):
                sides = (("parent", left), ("change", right))
                failed = [f"{side}: {text}" for side, text in sides if isinstance(text, str)]
                print(f"FAIL  {case}: {' | '.join(failed)}")
                mismatches += 1
            else:
                for name in sorted(left.keys() | right.keys()):
                    old, new = left.get(name, "-"), right.get(name, "-")
                    verdict = "same" if old == new else "DIFF"
                    mismatches += verdict == "DIFF"
                    print(f"{verdict}  {old[:16]}  {new[:16]}  {name:15}  {case}")
                    if verdict == "DIFF" and "-" not in (old, new):
                        files = [next(out.joinpath(str(index)).glob(f"*/{name}")) for out in outs]
                        for line in column_differences(*files):
                            print(f"      {line}")
            keys = manifest_differences(*(manifest_entries(out / str(index)) for out in outs))
            manifests += bool(keys)
            print(f"{'DIFF' if keys else 'same'}  {'':16}  {'':16}  {'manifest.txt':15}  {case}")
            if keys:
                print(f"      keys: {', '.join(keys)}")
    print(f"{len(parent)} runs, {mismatches} data mismatches, {manifests} differing manifests")
    return 1 if mismatches or manifests else 0

if __name__ == "__main__":
    raise SystemExit(main())

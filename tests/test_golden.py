"""Byte identity of the data files at default flags, against committed digests.

Each case runs `fcir.cli.main` in process with `--workers 1` and compares the
sha256 of every data file it writes with the table below.  The frozen PCG64
variates make the bytes stable per platform only, so the table is keyed by
(numpy version, scipy version, machine); on any other key the cases skip and
name the key.  A digest changes only with an output change, which CHANGES.md
records together with its reason.  `python3 tools/golden_bytes.py --digests
SRC` prints the table entry for the current key, computed on the tree SRC.
"""

import hashlib
import platform
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy

from fcir import experiments
from fcir.cli import main

CASES = (
    "simulate",
    "fbm-check",
    "converge-grid",
    "converge-uniform",
    "inverse-moments",
    "malliavin-check",
    "check-conditions",
    # 3% of the backward Euler steps have a < 0
    "simulate --sigma 2 --theta 0.01 --r0 0.01",
    # nodes that are not dyadic fractions of 1
    "converge-uniform --horizon 0.3",
    # the `malliavin` benchmark op: 200 paths of 2^11 + 1 reference nodes
    "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200",
    # kappa < 0 at z = |kappa|*T/2 = 700, just inside the kernel-integral overflow
    "check-conditions --kappa -2 --theta -0.5 --horizon 700",
)
# Runs with `experiments._BLOCK_NODES` patched: label -> (argv, nodes per block).
# The default studies, 200 and 100 paths of 2^12 + 1 reference nodes, in 2
# blocks; the `malliavin` op in blocks of 64, 64, 64 and 8 paths.
SPLIT_CASES = {
    "converge-grid in 2 blocks": ("converge-grid", 100 * (2**12 + 1)),
    "inverse-moments in 2 blocks": ("inverse-moments", 50 * (2**12 + 1)),
    "malliavin op in 4 blocks": (
        "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200",
        64 * (2**11 + 1),
    ),
}

_CONVERGENCE = "220d6a946e160f238a4ffd20481a91f598f8bc081eaddeb47f041c56284ec139"
_INVERSE_MOMENTS = "6391e26f036a0ffce304ee88928372405a1c3440040c6e5ec4047b049ff97816"
_MALLIAVIN_OP = "7378f270b9b9a3148d73621671cbc7bcf31338f280a6c027094cc6f94079386f"
DIGESTS = {
    ("2.4.6", "1.17.1", "x86_64"): {
        "simulate": {
            "data.csv": "6823454e094e75a022f55d58596efee7efb431ee83a29745832fc8f80e48b22c",
        },
        "fbm-check": {
            "data.csv": "2d58d12a06c87e792a367a474dfa1dee3d67e111142e59291bb0797fcbe5f121",
            "sample_path.csv": "481b45911dc0f88002f1bf1be1d93ce436089a507b720fd6dc90dbce8625143b",
        },
        "converge-grid": {"data.csv": _CONVERGENCE},
        "converge-uniform": {"data.csv": _CONVERGENCE},
        "inverse-moments": {"data.csv": _INVERSE_MOMENTS},
        "malliavin-check": {
            "data.csv": "bd3c3377bb3ac435df44c0acac18421cc1c7fc70ed6af1ea885900c6dd76b717",
        },
        "check-conditions": {
            "data.csv": "1bb22d78f62e7b3ad8d38845dbc148d55af82a84b2127f9ad8d6b87f0fac3bf9",
        },
        "simulate --sigma 2 --theta 0.01 --r0 0.01": {
            "data.csv": "016fc572c088c0dd93a5486751db39663033c39437ab8bad2c16c9e247d9ce6b",
        },
        "converge-uniform --horizon 0.3": {
            "data.csv": "ed4d03bfe275a0ac8b605515dcb85bdee6493b7ef63b4306cf2754b8f2f6cc8c",
        },
        "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200": {
            "data.csv": _MALLIAVIN_OP,
        },
        "check-conditions --kappa -2 --theta -0.5 --horizon 700": {
            "data.csv": "af4bc3e6143242e92af5cf205c40683080f6f0bf547303cae3ec11cab5cd2adf",
        },
        "converge-grid in 2 blocks": {"data.csv": _CONVERGENCE},
        "inverse-moments in 2 blocks": {"data.csv": _INVERSE_MOMENTS},
        "malliavin op in 4 blocks": {"data.csv": _MALLIAVIN_OP},
    },
}

KEY = (np.__version__, scipy.__version__, platform.machine())


def data_digests(argv: str, out: Path) -> dict[str, str]:
    """Run `fcir argv --workers 1` in process into out; sha256 of each data file."""
    assert main([*shlex.split(argv), "--workers", "1", "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in run_dir.glob("*.csv")
    }


@pytest.fixture
def digests():
    if KEY not in DIGESTS:
        pytest.skip(f"no golden digests for numpy {KEY[0]}, scipy {KEY[1]}, machine {KEY[2]}")
    return DIGESTS[KEY]


@pytest.mark.parametrize("case", CASES)
def test_default_data_files_byte_identical(tmp_path, digests, case):
    assert data_digests(case, tmp_path) == digests[case]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_study_byte_identical(tmp_path, monkeypatch, digests, case):
    argv, nodes = SPLIT_CASES[case]
    monkeypatch.setattr(experiments, "_BLOCK_NODES", nodes)
    assert data_digests(argv, tmp_path) == digests[case]

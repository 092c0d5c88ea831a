"""Byte identity of the data files, against committed digests.

This is the one table of golden cases.  Each case runs `fcir.cli.main` in
process and compares the sha256 of every data file it writes with the table
below.  The frozen PCG64 variates make the bytes stable per platform only, so
the table is keyed by (numpy version, scipy version, machine); on any other
key the cases skip and name the key.  A digest changes only with an output
change, which CHANGES.md records together with its reason.
`python3 tools/golden_bytes.py --digests SRC` prints the table entry for the
current key, computed on the tree SRC, and `python3 tools/golden_bytes.py
PARENT_SRC CHANGE_SRC` runs every case on two trees and compares the bytes.
"""

import hashlib
import platform
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy

from fcir import experiments
from fcir.cli import SUBCOMMANDS, main

CASES = (
    # every subcommand at its default flags, with one worker and with two
    *SUBCOMMANDS,
    *(f"{name} --workers 2" for name in SUBCOMMANDS),
    # 3% of the backward Euler steps have a < 0
    "simulate --sigma 2 --theta 0.01 --r0 0.01",
    # levels near 1e-150, where c is negligible next to a^2 (the unused
    # conjugate branch of the implicit root would divide by zero)
    "simulate --r0 1e-300 --theta 1e-300 --steps-exp 6",
    # the largest power-of-two grid whose circulant embedding is accepted at
    # H = 0.9999 (negative eigenvalues within the tolerance are clamped)
    "simulate --steps-exp 17 --hurst 0.9999",
    # a short-memory circulant embedding
    "fbm-check --hurst 0.3 --steps-exp 10 --samples 200",
    # nodes that are not dyadic fractions of 1
    "converge-uniform --horizon 0.3",
    # the `converge` benchmark op: one block of 400 paths of 2^14 + 1 nodes
    "converge-uniform --ref-exp 14 --coarse-exps 4,5,6,7,8,9,10,11 --samples 400",
    # an inverse-moment study in 2 blocks of the default size
    "inverse-moments --steps-exp 14 --samples 1000",
    # the `malliavin` benchmark op: 200 paths of 2^11 + 1 reference nodes
    "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200",
    # kappa < 0 at z = |kappa|*T/2 = 700, just inside the kernel-integral overflow
    "check-conditions --kappa -2 --theta -0.5 --horizon 700",
)
# Runs with `experiments._BLOCK_NODES` set: label -> (argv, nodes per block).
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
_DEFAULTS = {
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
}
DIGESTS = {
    ("2.4.6", "1.17.1", "x86_64"): {
        **_DEFAULTS,
        # the data files are the same for any --workers
        **{f"{name} --workers 2": files for name, files in _DEFAULTS.items()},
        "simulate --sigma 2 --theta 0.01 --r0 0.01": {
            "data.csv": "016fc572c088c0dd93a5486751db39663033c39437ab8bad2c16c9e247d9ce6b",
        },
        "simulate --r0 1e-300 --theta 1e-300 --steps-exp 6": {
            "data.csv": "8779c3c67115260475cbf88efa1a51f0673101a90c107954ac001c719e5f0414",
        },
        "simulate --steps-exp 17 --hurst 0.9999": {
            "data.csv": "99c61d8daf962044be3cc40318c21686d69929688018fa795291ef4955ad8230",
        },
        "fbm-check --hurst 0.3 --steps-exp 10 --samples 200": {
            "data.csv": "be14d374e2c0667f229dd0da203efeedc405e8166be98d3d273e5098b015e21b",
            "sample_path.csv": "4cd7167ef5b50d49544e839305881d8fd46f4311c631b0d9dc2b9561bb2a509a",
        },
        "converge-uniform --horizon 0.3": {
            "data.csv": "ed4d03bfe275a0ac8b605515dcb85bdee6493b7ef63b4306cf2754b8f2f6cc8c",
        },
        "converge-uniform --ref-exp 14 --coarse-exps 4,5,6,7,8,9,10,11 --samples 400": {
            "data.csv": "dd6e5497f139a56edac41e02350ff8d24b50127b4e189a6299c615cca1a8950c",
        },
        "inverse-moments --steps-exp 14 --samples 1000": {
            "data.csv": "b6bfe37c3feb929fddbfa7f25d505e8d9d7d72a17cd41ffaaa6b09b4edb5a685",
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


def data_digests(case: str, out: Path) -> dict[str, str]:
    """Run one case of the table in process into out; sha256 of each data file.

    `--workers 1` is appended unless the case names `--workers`.  A split case
    runs with `experiments._BLOCK_NODES` at its block size, restored afterwards.
    """
    argv, nodes = SPLIT_CASES.get(case, (case, experiments._BLOCK_NODES))
    argv = shlex.split(argv)
    if not any(word.startswith("--workers") for word in argv):
        argv += ["--workers", "1"]
    saved, experiments._BLOCK_NODES = experiments._BLOCK_NODES, nodes
    try:
        code = main([*argv, "--out", str(out)])
    finally:
        experiments._BLOCK_NODES = saved
    assert code == 0, f"exit {code}"
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
def test_split_study_byte_identical(tmp_path, digests, case):
    assert data_digests(case, tmp_path) == digests[case]

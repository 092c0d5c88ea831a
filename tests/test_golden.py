"""Byte identity of the data files, against committed digests.

This is the one table of golden cases.  Each case runs `fcir.cli.main` in
process and compares the sha256 of every data file it writes with the table
below.  The frozen PCG64 variates make the bytes stable per platform only, so
the table is keyed by (numpy version, machine); no data file depends on
scipy, which fcir does not import.  On any other key the cases skip and name
the key.  A digest changes only with an output change, which CHANGES.md
records together with its reason.
`python3 tools/golden_bytes.py --digests SRC` prints the table entry for the
current key, computed on the tree SRC, and `python3 tools/golden_bytes.py
PARENT_SRC CHANGE_SRC` runs every case on two trees and compares the bytes.
"""

import hashlib
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcir
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
    # one short solver chunk, and t cells that are not dyadic fractions
    "simulate --steps-exp 5 --horizon 0.3",
    # a short-memory circulant embedding
    "fbm-check --hurst 0.3 --steps-exp 10 --samples 200",
    # the smallest Cholesky and Hoelder blocks: 3 paths of 2 steps
    "fbm-check --steps-exp 1 --samples 3",
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
    # seeds whose seeding hash words are special: the path seeds wrap at 2^64,
    # cross 2^32 (one entropy word, then two), and -1 wraps to 2^64 - 1
    "fbm-check --steps-exp 1 --samples 3 --seed 18446744073709551614",
    "converge-grid --ref-exp 6 --coarse-exps 2,3,4 --samples 4 --seed 4294967294",
    "simulate --seed -1 --steps-exp 4",
    # block seeds base_seed + i cross 2^64 inside one study block
    "converge-grid --ref-exp 6 --coarse-exps 2,3,4 --samples 4 --seed 18446744073709551614",
)
# Runs with `experiments._BLOCK_NODES` set: label -> (argv, nodes per block).
# The default studies, 200 and 100 paths of 2^12 + 1 reference nodes, in 2
# blocks; the `malliavin` op, with room for 64 paths a block, in 4 blocks of 50.
SPLIT_CASES = {
    "converge-grid in 2 blocks": ("converge-grid", 100 * (2**12 + 1)),
    "inverse-moments in 2 blocks": ("inverse-moments", 50 * (2**12 + 1)),
    "malliavin op in 4 blocks": (
        "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200",
        64 * (2**11 + 1),
    ),
}

_CONVERGENCE = "abac9379310ef122105d1bd94f8008228b33ed8e52519a3507bc7ae064354b1e"
_INVERSE_MOMENTS = "f92eaeacbb16d30d4f5f78a7b71a961997a3cc6297bd31d7d777ef8caa57ffa6"
_MALLIAVIN_OP = "e825ae4d8b011f78234ff7ebe13151ae9212cb0b604b4433fbe7e9a32baa0df6"
_DEFAULTS = {
    "simulate": {
        "data.csv": "0ed947e5c766ecb8143c6f0ba85d182272033c9aa0ffbba1f265174c511d8630",
    },
    "fbm-check": {
        "data.csv": "0e156cc41263f8bb21a39dbad1bc63dcfe12b9a77876241bf4f3410a21321bf1",
        "sample_path.csv": "03cac62f5d7416eac4bbf289d57fc3450df0463fc592110988ab2177931af75f",
    },
    "converge-grid": {"data.csv": _CONVERGENCE},
    "converge-uniform": {"data.csv": _CONVERGENCE},
    "inverse-moments": {"data.csv": _INVERSE_MOMENTS},
    "malliavin-check": {
        "data.csv": "df15b6a0665a1b0befa16283723e9c5c4a7e1677982249e547406be018687626",
    },
    "check-conditions": {
        "data.csv": "1bb22d78f62e7b3ad8d38845dbc148d55af82a84b2127f9ad8d6b87f0fac3bf9",
    },
}
DIGESTS = {
    ("2.4.6", "x86_64"): {
        **_DEFAULTS,
        # the data files are the same for any --workers
        **{f"{name} --workers 2": files for name, files in _DEFAULTS.items()},
        "simulate --sigma 2 --theta 0.01 --r0 0.01": {
            "data.csv": "41bde5bb0d0b83baba0fe6e0206b828fbe9f7607fa2a42e08a0f1d8964148d56",
        },
        "simulate --r0 1e-300 --theta 1e-300 --steps-exp 6": {
            "data.csv": "7775d99440893a8870144517ded3687c053c0078ed63ea4991004be1373a0d55",
        },
        "simulate --steps-exp 17 --hurst 0.9999": {
            "data.csv": "79831ff7d3881cde4b8bce2c19147d317e824216d307505f6548e6ff126caebc",
        },
        "simulate --steps-exp 5 --horizon 0.3": {
            "data.csv": "129f22f4ceb746cee2678ef59c3919ae901bdac734a1bb53ac9117f48bfaef48",
        },
        "fbm-check --hurst 0.3 --steps-exp 10 --samples 200": {
            "data.csv": "d83d7599fb1c0d11c991569fa893a3c907b05dde635e2657775f85a4660279f8",
            "sample_path.csv": "8c0d5b465798c789f93c8352ecb52888627d0509f9ed20e06127a7dd50249a94",
        },
        "fbm-check --steps-exp 1 --samples 3": {
            "data.csv": "9162f5ac3bc5e43bd735ed2ac97204eb310bd8bd678b0eb3b6459948121e0776",
            "sample_path.csv": "c2011fdf901c329bb972919844eeb4e146a54b1c5cd36f09190b00cd2dec606f",
        },
        "converge-uniform --horizon 0.3": {
            "data.csv": "8570c675c3e44c2bf0b8bae005b96bbcec8ef0b3df730ebe5ebcbfef706c48ce",
        },
        "converge-uniform --ref-exp 14 --coarse-exps 4,5,6,7,8,9,10,11 --samples 400": {
            "data.csv": "20e1bdd11aaa6abdf41c7e4b067b1d664a0fe27244d7c910ae27c8e1027c3c99",
        },
        "inverse-moments --steps-exp 14 --samples 1000": {
            "data.csv": "037589b4a891a2fcf2fb6c8d55faab52b73c96c3451ec3b0b9578bf21f4a2b12",
        },
        "malliavin-check --ref-exp 11 --coarse-exps 7,8,9,10 --samples 200": {
            "data.csv": _MALLIAVIN_OP,
        },
        "check-conditions --kappa -2 --theta -0.5 --horizon 700": {
            "data.csv": "af4bc3e6143242e92af5cf205c40683080f6f0bf547303cae3ec11cab5cd2adf",
        },
        "fbm-check --steps-exp 1 --samples 3 --seed 18446744073709551614": {
            "data.csv": "a874cea2ee11658ff0505cc025a3cc24723084d4a2755e99cb8bed89e149d347",
            "sample_path.csv": "7a5912185c8369db9360e3a6a601ac8116aed431df4315a9ed4c852deb223823",
        },
        "converge-grid --ref-exp 6 --coarse-exps 2,3,4 --samples 4 --seed 4294967294": {
            "data.csv": "19778556904c68f25600bbca07379f3a2f4742fc36be877f88f25efa1a566893",
        },
        "simulate --seed -1 --steps-exp 4": {
            "data.csv": "cfd21435cff26991ea07fca7670ef951cf4a88c381eff0316f222cc208f48664",
        },
        "converge-grid --ref-exp 6 --coarse-exps 2,3,4 --samples 4 --seed 18446744073709551614": {
            "data.csv": "b1652a0e16b2600a9b86ab9b142a0d7a969ff66313646325d3ddee914fbe506d",
        },
        "converge-grid in 2 blocks": {"data.csv": _CONVERGENCE},
        "inverse-moments in 2 blocks": {"data.csv": _INVERSE_MOMENTS},
        "malliavin op in 4 blocks": {"data.csv": _MALLIAVIN_OP},
    },
}

KEY = (np.__version__, platform.machine())


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
        pytest.skip(f"no golden digests for numpy {KEY[0]}, machine {KEY[1]}")
    return DIGESTS[KEY]


@pytest.mark.parametrize("case", CASES)
def test_default_data_files_byte_identical(tmp_path, digests, case):
    assert data_digests(case, tmp_path) == digests[case]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_study_byte_identical(tmp_path, digests, case):
    assert data_digests(case, tmp_path) == digests[case]


@pytest.mark.parametrize("cases", [["simulate"], ["check-conditions --p 0"] * 2])
def test_tool_refuses_a_repeated_case(cases):
    # the tool keys results by case text: a repeat of an extra case or of a
    # table case would be run twice and reported once, against another run
    tool = Path(__file__).resolve().parents[1] / "tools" / "golden_bytes.py"
    src = str(Path(fcir.__file__).resolve().parents[1])
    argv = [sys.executable, str(tool), src, src, *(f"--case={case}" for case in cases)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert f"--case repeats a case of {src}: {cases[0]}" in done.stderr

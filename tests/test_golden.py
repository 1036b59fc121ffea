"""Pinned bytes of the documents whose every digit is fixed by exact arithmetic.

Factors, partitions and states are elementwise numpy on exact inputs (or on
integer-valued sums), so their bytes do not depend on the BLAS build. A
`sweep` row takes no BLAS sum either: its family's S is an exact integer
matrix proven equal to its closed form, and its residual is a scalar float64
sum over three groups. The `report` and `verify` documents are left out: the
last digits of the invariance probe's residual and of a document's
reconstruction residual follow the GEMM summation order. Where numpy's BLAS
is an OpenBLAS that picks its kernel at run time, the corpus is also
written under another kernel and must keep its digests.
"""
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import werner
from werner.cli import main

# (argv, sha256 of the written file); per-string at f = 0.5/d takes the
# flipped-second-party branch and at f = 1.5/d the unflipped one, the class
# scheme runs at f = 0.6, and both schemes meet at scale 0 at f = 1/d
GOLDEN = [
    ("decompose --p 1 --f 0.25 --scheme per-string",
     "67adfe54c9a839ca2e19150af28d2b79f694d466eaa5b439a130817ea212cf59"),
    ("decompose --p 1 --f 0.6 --scheme class",
     "7205420b63f678eb7a618ee40795228ecca8bc9feede4fffbcdac461e9a2e5b7"),
    ("decompose --p 2 --f 0.125 --scheme per-string",
     "7e94a56300b94c86b926ec085982cac3762fc63193a2f197e02da2c573f476fd"),
    ("decompose --p 2 --f 0.6 --scheme class",
     "6d1a3ded364e2db7ba8f8e51772abdc1f00fc8a16c1e141a82c97ef1c29f333f"),
    ("decompose --p 3 --f 0.0625 --scheme per-string",
     "da2faa8396a14abfbee385faf972421792b7e4994d805f9e01ed64a39478b50d"),
    ("decompose --p 3 --f 0.6 --scheme class",
     "3cfa7e35d50bccfa3dcd178b27149603d82b05b9ea9d5b6edece1ccf426071c8"),
    ("decompose --p 4 --f 0.03125 --scheme per-string",
     "3dfff7523fb8a925eebdba322223ab40b9cb02d76795511524721392f6f861cf"),
    ("decompose --p 4 --f 0.6 --scheme class",
     "b2d685843a7dbae5651089924d41c87f56f45811f506a74701232d4907e42c3b"),
    ("decompose --p 5 --f 0.015625 --scheme per-string",
     "77e58ca358bafd51e9e527a3a3e8d7eac1d9897be9aced8bad8265e2c49d3281"),
    ("decompose --p 5 --f 0.6 --scheme class",
     "4a24a09a6ec79084a18efeff43ee11a33381206bf6acf67da6b7a5172ad0ae3e"),
    ("decompose --p 2 --f 0.375 --scheme per-string",
     "9a4b94c5ebc017cb741586c102d386159ce7ce120d7f8c316ab5ca844f7e7eee"),
    ("decompose --p 3 --f 0.1875 --scheme per-string",
     "827c578f89b6033e92161d21f80a7e3b93372abe054b37e4ee97d2f8b5efaa77"),
    ("decompose --p 5 --f 0.046875 --scheme per-string",
     "8715d152c42646a4c97ac6a0c074646192b20c39ac0b6155430d8fd254edced1"),
    ("decompose --p 3 --f 0.125 --scheme per-string",
     "4d439279ed5d6b089994ebeb8aae011380f5e06e685167b195d9d1f329531e90"),
    ("decompose --p 3 --f 0.125 --scheme class",
     "dd4f2e1634131710c3d44e155435ceb82121b913cd1c710ee3cc355ce540a333"),
    ("partition --p 1 --format json",
     "1a8bae7767664080d3bd9fd4d86caaf179250bf60c340f1c6c2eb7cfde03a1ed"),
    ("partition --p 2 --format json",
     "439136c67df0e2481265a2c86873f1a57e124a250a886f95a5011cff1e88147c"),
    ("partition --p 3 --format json",
     "e36f3317b96de40726c654dacf7c179cc461d21b6438da6a92e6babb9fe9679b"),
    ("partition --p 4 --format json",
     "31dbae1d8026f1fc9df76f31b7603ff86487cdeb3c4d9aee46c4c8e04c513fc2"),
    ("partition --p 5 --format json",
     "4940d46fd7fad05bfcc31267163998dca35508488527bed7b2732b1fa840bd4d"),
    ("build --p 1 --f 0.6",
     "d17dae43c18edf8b5a5232f881aad5e0808acc4b6f7573ab910de3b2686ac725"),
    ("build --p 2 --f 0.6",
     "0c4290b86932538ccdcfa7c76f6a9a7676b027d7effa1a8ea92c0c6940dd3e6e"),
    ("build --p 3 --f 0.6",
     "f609fd75a5bb9023be51f8a7d65012fa06f22b913b18c4f802b4db5bef6e98a7"),
    ("sweep --p 1 --f-start -1 --f-end 1 --f-step 0.125",
     "5ae6a81d426f4fbda4276befdb7a4f79493b321dcb507e732951ebd65e9e054a"),
    ("sweep --p 2 --f-start -1 --f-end 1 --f-step 0.125",
     "6471410e51f294591310a74723e9533671127bce24f5f77992ae03f2c96ff01d"),
    ("sweep --p 3 --f-start -1 --f-end 1 --f-step 0.125",
     "8d365499172ca70f049a3c554b82bbbf8434c106e0bfb7eba645a5c3e644c442"),
    ("sweep --p 4 --f-start -1 --f-end 1 --f-step 0.125",
     "5d50bcc1925b52414ce21dbe6f48d13aa30adbe30e561cc7b9ebbb2151907a3b"),
    ("sweep --p 5 --f-start -1 --f-end 1 --f-step 0.125",
     "f86073d8fb29efe1f19de7cdf14ff9c9ca6dc34778e22a8a3972aa2b667b425a"),
    # under --tol 0 the rows whose residual is a few 1e-17 are INVALID
    ("sweep --p 3 --f-start -1 --f-end 1 --f-step 0.125 --tol 0",
     "ff2d39725f86fe8a78590eaefc922c442301a3278ae0621b3fa2a4fa3e5298cd"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_document_bytes_are_pinned(argv, digest, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(argv.split() + ["--output", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# writes each document of its argv into the working directory, and prints its digest
_DIGESTS = """
import hashlib, sys
from werner.cli import main
for argv in sys.argv[1:]:
    assert main(argv.split() + ["--output", "out.json"]) == 0, argv
    print(hashlib.sha256(open("out.json", "rb").read()).hexdigest())
"""


def _runtime_openblas():
    """Whether numpy's BLAS is an OpenBLAS on x86-64 that picks its kernel
    at run time, so that OPENBLAS_CORETYPE selects another one."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that cannot report its BLAS as data
        return False
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.mark.skipif(not _runtime_openblas(), reason="needs OpenBLAS with DYNAMIC_ARCH on x86-64")
def test_document_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    src = str(Path(werner.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _DIGESTS, *(argv for argv, _ in GOLDEN)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [digest for _, digest in GOLDEN]

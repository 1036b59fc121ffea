"""Pinned bytes of the documents whose every digit is fixed by exact arithmetic.

Factors, partitions and states are elementwise numpy on exact inputs (or on
integer-valued sums), so their bytes do not depend on the BLAS build. The
`report` and `verify` documents are left out: the last digits of their
residuals follow the GEMM summation order.
"""
import hashlib

import pytest

from werner.cli import main

# (argv, sha256 of the written file); per-string at f = 0.5/d takes the
# flipped-second-party branch, the class scheme runs at f = 0.6
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
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_document_bytes_are_pinned(argv, digest, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(argv.split() + ["--output", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

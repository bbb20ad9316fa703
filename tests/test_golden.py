"""Golden hashes: the operator sets, the family matrices, the printed tables
and five CLI exports stay byte-for-byte what they were when these hashes
were recorded.

A refactor of the constructors, of the stacked operator array or of the
export writer that moves a single bit fails here. The hashes were recorded
with numpy 2.4 and its bundled OpenBLAS 0.3.31 on x86-64, whose runtime
kernel there was SkylakeX (AVX-512). The family matrices, the operator
arrays (elementwise sums of weighted projectors, no matrix product) and the
tables output involve no GEMM: their hashes hold on the SkylakeX, Haswell,
Sandybridge and Prescott kernels alike (OPENBLAS_CORETYPE=<kernel>). The
export hashes cover the printed and written verification reports, whose
worst_deviation values come from GEMMs, so they depend on the kernel:
operators --dim 3, operators --dim 11 and mub --dim 11 --source generated
fail on every kernel above but SkylakeX.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from mubkit.classes import build_set
from mubkit.cli import main
from mubkit.mub import family_for

# d: (sha256 of build_set(family_for(d)).array, sha256 of the stacked family matrices)
GOLDEN = {
    2: ("d765975532f285261a24f11fbfb521b5c893a973ebeb0de886c170fb1cc2842a",
        "b9d9f13c056e51c9795cf0e33dd6ddd1074792360b1236348ab016463bfde4b2"),
    3: ("638d611071d416d4cf9ee8983a20f95c44da19c9149f6f0f128e66b65df78ee3",
        "8312e8e91df6fd482010476f2467743029d524e3705313563faaffdef99932da"),
    4: ("190b2a2b2365ba1732f821750039a16916206b84ae6d06748eb3dd75b5f397ef",
        "24723221ff992e9f64006dafdc90cf4b1d73cd8dd4f09a679093aa2e4c7282af"),
    5: ("fa1f8711d9dba3b55cf58b93e12170d48850801ee85475d496be122fc0027aab",
        "761ccebdc30bbbb17dd5050f8d2e55cf6b93e5e03e875f9cc59f15aea9301a2d"),
    7: ("d1598531a104f59e890036f3a6c46c3db658f92d798a356f9f75dc7f2ea12978",
        "a2aa4145626dbd6afe00404ed153c7361dc50f5b057cb81bcbdf58dba7c5c182"),
    11: ("85c18a467fd8fb56ae223cda8f9d35f1c48168223aae659a4644caf01965265b",
         "3db96c41fec2b7f90ef756d5d6d291dea2dba7081af8c45c895b251ab95ded15"),
    13: ("23aadbed673586e377cfe5cc1608d3558b9a264e4ead824aafcc7f88bed4e6ae",
         "2ab7f8941b4b173c74eaa643fa619ccaee0f33a1a7fd317a0f0e64e103ea7176"),
}
TABLES_SHA256 = "9f63382c49026e5214e75036388cc13af6573c13911d4b85894f78f0f76ff940"

# argv (with a relative --out, so stdout does not name a temporary path):
# (sha256 of stdout, sha256 of the "<file name> <sha256 of its bytes>" lines
# of every exported file, sorted by name)
EXPORTS = {
    ("operators", "--dim", "3", "--out", "ops"): (
        "9c33e77ef36d653c284d70823749861bd85a96b4362a33fcbf8ae19bd136f7ed",
        "75a446a788b78a19e4d22fb34bfd42d1455163890cb26bf894cc04311bb7f18f"),
    ("mub", "--dim", "4", "--out", "fam"): (
        "5ff6810394227d847a3c1ebb4f6ef2e855cb4d05530528900025e5792b8bf22f",
        "b3a48c1bb292f38d4d671d7d9cdb5260b5bd68353861b984b09ae2ec8db97c82"),
    ("tensors", "--two-j", "3", "--out", "tens"): (
        "e4f2a98d4ae2e56a612115921f5ab8d2b6bcf7d542dd2ca834c1bbd2419cfb5c",
        "568e3c5a00da14bafc24d751f9644a740608f26f7d9fa9327648531284590f1b"),
    # the exports the benchmark's CLI round trip writes, and a generated family
    ("operators", "--dim", "11", "--out", "ops"): (
        "7934a4b1abccb7f9984ece492f9877f0e39ae2c1794823ce5da9db8b7f1083d9",
        "6fc3141ecdfb221dba3cb495334192695b31d321e4097b829e5fc1f6ba2c9ef0"),
    ("mub", "--dim", "11", "--source", "generated", "--out", "fam"): (
        "e1c2c0dcf8e886dccb44f4bb6e64cf8d3fc8000bdef8908976128f60e02b4783",
        "bca734794ecc3466c1b7cabc9fea1dec244d1c69d4786b60fe1e7cdf6d4598d4"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("d", sorted(GOLDEN))
def test_family_matrices_unchanged(d):
    family = family_for(d)
    stacked = np.array([basis.matrix for basis in family.bases])
    assert sha256(stacked.tobytes()) == GOLDEN[d][1]


@pytest.mark.parametrize("d", sorted(GOLDEN))
def test_operator_array_unchanged(d):
    assert sha256(build_set(family_for(d)).array.tobytes()) == GOLDEN[d][0]


def test_tables_output_unchanged():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["tables"])
    assert code == 0
    assert sha256(out.getvalue().encode("utf-8")) == TABLES_SHA256


@pytest.mark.parametrize("argv", list(EXPORTS),
                         ids=lambda argv: argv[0] + ("-d11" if "11" in argv else ""))
def test_export_bytes_unchanged(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUBKIT_TOL", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    listing = "\n".join(f"{path.name} {sha256(path.read_bytes())}"
                        for path in sorted((tmp_path / argv[-1]).iterdir()))
    assert (sha256(out.getvalue().encode("utf-8")), sha256(listing.encode("utf-8"))) == EXPORTS[argv]

"""Golden hashes: the operator sets, the family matrices, the printed tables
and five CLI exports stay byte-for-byte what they were when these hashes
were recorded.

A refactor of the constructors, of the stacked operator array or of the
export writer that moves a single bit fails here. The hashes were recorded
with numpy 2.4 and its bundled OpenBLAS 0.3.31 on x86-64. The family
matrices, the operator arrays (elementwise sums of weighted projectors, no
matrix product), the tables output and the mub --dim 4 and tensors exports
involve no GEMM: one hash each holds on every kernel. The reports printed
and written by operators --dim 3, operators --dim 11 and mub --dim 11
--source generated carry worst_deviation values that come from GEMMs, so
those three exports are pinned per class of OpenBLAS runtime kernel, read
from the library itself: SkylakeX (AVX-512), Haswell, and Sandybridge with
Katmai. Each class was recorded by running this file under
OPENBLAS_CORETYPE=<kernel>. A kernel outside those classes, or a BLAS that
does not report its kernel, fails those three tests with its name.
"""

import contextlib
import ctypes
import hashlib
import io
from pathlib import Path

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
    ("mub", "--dim", "4", "--out", "fam"): (
        "5ff6810394227d847a3c1ebb4f6ef2e855cb4d05530528900025e5792b8bf22f",
        "b3a48c1bb292f38d4d671d7d9cdb5260b5bd68353861b984b09ae2ec8db97c82"),
    ("tensors", "--two-j", "3", "--out", "tens"): (
        "e4f2a98d4ae2e56a612115921f5ab8d2b6bcf7d542dd2ca834c1bbd2419cfb5c",
        "568e3c5a00da14bafc24d751f9644a740608f26f7d9fa9327648531284590f1b"),
}

# the runtime kernel OpenBLAS reports: the class whose GEMM exports it reproduces
KERNEL_CLASSES = {"SkylakeX": "SkylakeX", "Haswell": "Haswell",
                  "Sandybridge": "Sandybridge", "Katmai": "Sandybridge"}
_OPS3 = ("operators", "--dim", "3", "--out", "ops")
# the exports the benchmark's CLI round trip writes, and a generated family
_OPS11 = ("operators", "--dim", "11", "--out", "ops")
_MUB11 = ("mub", "--dim", "11", "--source", "generated", "--out", "fam")
GEMM_EXPORTS = {
    "SkylakeX": {
        _OPS3: ("9c33e77ef36d653c284d70823749861bd85a96b4362a33fcbf8ae19bd136f7ed",
                "75a446a788b78a19e4d22fb34bfd42d1455163890cb26bf894cc04311bb7f18f"),
        _OPS11: ("7934a4b1abccb7f9984ece492f9877f0e39ae2c1794823ce5da9db8b7f1083d9",
                 "6fc3141ecdfb221dba3cb495334192695b31d321e4097b829e5fc1f6ba2c9ef0"),
        _MUB11: ("e1c2c0dcf8e886dccb44f4bb6e64cf8d3fc8000bdef8908976128f60e02b4783",
                 "bca734794ecc3466c1b7cabc9fea1dec244d1c69d4786b60fe1e7cdf6d4598d4"),
    },
    "Haswell": {
        _OPS3: ("846ccb2fe5411ad85578b39c81612abe113b3adf3caa9775d569bc4e99aa25f0",
                "5f0755b8082458df5fcc47dac13936598deb7e6bc91bd35adf38307de5cfae25"),
        _OPS11: ("139c3e4e0b3bd5788025b76bf1383231cba5cfdb8427552f58bcaf861ac25959",
                 "9c2d7269aff4d28bce116898fd46f99db982bbe95ed4729f76d0abec9523004e"),
        _MUB11: ("5acf69a1db23da94295123f5dfe4562dc5c6249710edca634d980b0229050e7a",
                 "bca734794ecc3466c1b7cabc9fea1dec244d1c69d4786b60fe1e7cdf6d4598d4"),
    },
    "Sandybridge": {
        _OPS3: ("a4a306759299732f580600435c9c12e477ef2e75d6aed11a0bcebc70bfe64b43",
                "f27407be883c712d4e51fc247712889fa0c2500b30e00ed5e1d50375b13ebab0"),
        _OPS11: ("ece5cf84fc95ce18dc48e03ec9e7d2284e0fb1b759b5b6b1100fc5acf8c481d6",
                 "386b8edfee3b1ea6eeded233869fd397b43b511912da198c0a23523aad4a01cc"),
        _MUB11: ("08f67ea1f94a963a08235c326aabaa4f7d633791a69aeadf4283140eab4168c0",
                 "bca734794ecc3466c1b7cabc9fea1dec244d1c69d4786b60fe1e7cdf6d4598d4"),
    },
}


def kernel_class() -> str:
    """The class of the kernel numpy's bundled OpenBLAS runs, read through
    ctypes; the calling test fails, naming the cause, when it cannot be read
    or has no recorded hashes."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        pytest.fail("numpy.libs holds no libscipy_openblas64_*.so to ask for its kernel")
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except AttributeError:
        pytest.fail(f"{libs[0].name} has no scipy_openblas_get_corename64_ symbol")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    kernel = corename().decode()
    if kernel not in KERNEL_CLASSES:
        pytest.fail(f"no export hashes recorded for the OpenBLAS kernel {kernel}")
    return KERNEL_CLASSES[kernel]


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


@pytest.mark.parametrize("argv", [*EXPORTS, *GEMM_EXPORTS["SkylakeX"]],
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
    want = EXPORTS[argv] if argv in EXPORTS else GEMM_EXPORTS[kernel_class()][argv]
    assert (sha256(out.getvalue().encode("utf-8")), sha256(listing.encode("utf-8"))) == want

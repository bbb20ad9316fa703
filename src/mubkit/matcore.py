"""Dense complex linear-algebra primitives shared by the rest of the package.

Matrices are plain numpy complex128 arrays. All dimensions in this package
are tiny (d <= 32 or so), so everything is ordinary dense arithmetic. The
one numerical rule enforced globally: roots of unity are always computed
from cos/sin of the reduced angle, never by repeated multiplication, so
w**p is exact to 1 ulp for any power.

The module also carries the package's one JSON file layout (write_json,
read_json), the on-disk matrix format (see write_matrix) and the small
CheckResult/VerificationReport containers used by every verification
routine in the package.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "CheckResult",
    "VerificationReport",
    "matrix_from_json",
    "read_matrix",
    "root_of_unity",
    "write_matrix",
]


def validate_tolerance(tol: float) -> float:
    """Check 0 < tol < 1 and return it."""
    tol = float(tol)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
    return tol


def root_of_unity(d: int, power: int = 1) -> complex:
    """exp(2 pi i power / d), from cos/sin of the reduced angle."""
    if d < 1:
        raise ValueError(f"order must be a positive integer, got {d!r}")
    angle = 2.0 * math.pi * (power % d) / d
    return complex(math.cos(angle), math.sin(angle))


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite, non-empty 2-D complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"matrix has no entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return arr


def frozen(a, dtype, shape=None, owner="", what="") -> np.ndarray:
    """A read-only, C-ordered copy of a: the caller's array is neither frozen nor
    aliased. Given a shape, the one rule for a stored array: a ValueError naming
    owner and what refuses a copy of another shape (ragged input included), one
    with no entries and one holding NaN/Inf."""
    try:
        out = np.array(a, dtype=dtype, order="C")
    except ValueError as exc:  # numpy refuses ragged input
        raise ValueError(f"{owner} needs {what} of shape {shape}: {exc}") from exc
    if shape is not None:
        if out.shape != shape:
            raise ValueError(f"{owner} needs {what} of shape {shape}, got {out.shape}")
        if out.size == 0:
            raise ValueError(f"{owner} needs {what} with at least one entry, got shape {shape}")
        if not np.isfinite(out).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# verification reports

@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: worst deviation seen and pass/fail."""

    check: str
    worst_deviation: float
    passed: bool

    def to_dict(self) -> dict:
        return {"check": self.check, "worst_deviation": self.worst_deviation, "pass": self.passed}


@dataclass(frozen=True)
class VerificationReport:
    """Ordered collection of CheckResults with an aggregate verdict."""

    results: tuple[CheckResult, ...]

    def __iter__(self):
        return iter(self.results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, check: str) -> CheckResult:
        for r in self.results:
            if r.check == check:
                return r
        raise KeyError(check)

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.results]


# ---------------------------------------------------------------------------
# JSON files
#
# Every file the package writes has one layout: json.dumps(obj, indent=2),
# UTF-8, no trailing newline, written by _write_text. A reader's ValueError
# names the file; OSError (missing or unreadable file) passes through untouched.

def _write_text(path, text: str) -> None:
    """Write text to path whole or not at all: into path + ".tmp", a name no
    count of an export's .json files sees, then renamed over path."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2))


def read_json(path) -> dict:
    """The JSON object stored at path."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path.name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path.name} does not hold a JSON object")
    return obj


def json_int(value, field: str) -> int:
    """int(value) for a Python or numpy integer; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def dimension(d) -> int:
    """d under json_int's rule, refused below 2."""
    d = json_int(d, "dimension")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return d


def json_str(value, field: str) -> str:
    """value if it is a string; a number or any other JSON value is refused, not converted."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# JSON matrix format
#
# {"rows": r, "cols": c, "data": [[{"re": x, "im": y}, ...], ...]}
#
# json serializes floats via repr (shortest round-trip form), so a write/read
# cycle reproduces every entry bit for bit. write_matrix renders a file from
# one layout template with a %r slot per real and imaginary part, which gives
# the same bytes as write_json of the dict above without building the dict or
# running json's pure-Python indenting encoder; a test pins the bytes against
# a dict-building oracle kept in the tests.
# Every entry read back must be a JSON number: strings and bools are refused.

def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows = json_int(obj["rows"], "rows")
        cols = json_int(obj["cols"], "cols")
        data = obj["data"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1 or not isinstance(data, list) or len(data) != rows:
        raise ValueError("matrix JSON shape fields do not match data")
    parts = []  # re, im interleaved, row-major
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"matrix JSON row {i} has wrong length")
        for j, cell in enumerate(row):
            try:
                parts += _json_number(cell["re"]), _json_number(cell["im"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed matrix JSON entry ({i},{j}): {exc}") from exc
    return as_matrix(np.array(parts).view(np.complex128).reshape(rows, cols))


def _json_number(x) -> float:
    """float(x) for a JSON number; strings, bools and other types are refused."""
    if type(x) is float:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"not a JSON number: {x!r}")
    return float(x)  # OverflowError for an int beyond float range


def _matrix_layout(rows: int, cols: int) -> str:
    """json.dumps(indent=2) of the format's dict for an r x c matrix, with one
    %r slot per real and imaginary part in row-major order."""
    cell = '      {\n        "re": %r,\n        "im": %r\n      }'
    row = "    [\n" + ",\n".join([cell] * cols) + "\n    ]"
    data = "[\n" + ",\n".join([row] * rows) + "\n  ]"
    return f'{{\n  "rows": {rows},\n  "cols": {cols},\n  "data": {data}\n}}'


def write_matrix(path, m) -> None:
    """The bytes write_json gives the format's dict for m, from one template."""
    m = np.ascontiguousarray(as_matrix(m))
    parts = m.view(np.float64).ravel().tolist()  # re, im interleaved; repr is json's
    _write_text(path, _matrix_layout(*m.shape) % tuple(parts))


def read_matrix(path) -> np.ndarray:
    obj = read_json(path)
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{Path(path).name}: {exc}") from exc

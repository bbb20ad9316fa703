"""Tests for the shared matrix utilities and JSON wire format."""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mubkit.matcore import (
    DEFAULT_TOL,
    CheckResult,
    VerificationReport,
    as_matrix,
    json_int,
    matrix_from_json,
    read_json,
    read_matrix,
    root_of_unity,
    validate_tolerance,
    write_json,
    write_matrix,
)
from helpers import matrix_to_json


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 11, 26])
def test_root_of_unity_periodic(d):
    for power in range(-d, 2 * d + 1):
        w = root_of_unity(d, power)
        assert abs(w - root_of_unity(d, power + d)) < 1e-15
        assert abs(abs(w) - 1.0) < 1e-15
    # d-th power closes the cycle
    assert abs(root_of_unity(d, 1) ** d - 1.0) < 1e-12


def test_root_of_unity_values():
    assert root_of_unity(2, 1) == pytest.approx(-1.0)
    assert root_of_unity(4, 1) == pytest.approx(1j)
    w = root_of_unity(3, 1)
    assert w.real == pytest.approx(-0.5)
    assert w.imag == pytest.approx(np.sqrt(3) / 2)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128


@pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0, np.nan])
def test_validate_tolerance_rejects(bad):
    with pytest.raises(ValueError):
        validate_tolerance(bad)


def test_validate_tolerance_passes():
    assert validate_tolerance(1e-10) == 1e-10
    assert validate_tolerance(DEFAULT_TOL) == DEFAULT_TOL


def test_check_result_wire_keys():
    result = CheckResult("unbiasedness", 3.5e-13, True)
    data = result.to_dict()
    assert set(data) == {"check", "worst_deviation", "pass"}
    assert data["pass"] is True
    assert data["check"] == "unbiasedness"


def test_verification_report_lookup():
    report = VerificationReport((
        CheckResult("a", 0.0, True),
        CheckResult("b", 2.0, False),
    ))
    assert not report.passed
    assert report.result("b").worst_deviation == 2.0
    assert [r.check for r in report] == ["a", "b"]
    assert report.to_dicts()[1]["pass"] is False
    with pytest.raises(KeyError):
        report.result("missing")


def test_matrix_json_round_trip():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    data = matrix_to_json(m)
    assert data["rows"] == 3 and data["cols"] == 5
    back = matrix_from_json(data)
    assert np.array_equal(back, m)
    # entries are plain floats, JSON serializable
    json.dumps(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("rows"),
    lambda d: d.__setitem__("data", d["data"][0]),
    lambda d: d["data"][0].pop(),
    lambda d: d["data"][0].__setitem__(0, {"re": 1.0}),
    lambda d: d["data"][0].__setitem__(0, {"re": "x", "im": 0.0}),
    # entries must be JSON numbers, not values float() happens to accept
    lambda d: d["data"][0].__setitem__(0, {"re": "1.5", "im": 0.0}),
    lambda d: d["data"][0].__setitem__(0, {"re": 1.5, "im": True}),
    lambda d: d.__setitem__("rows", 7),
    # shape fields must be JSON integers, not numbers that truncate to one
    lambda d: d.__setitem__("rows", 2.0),
    lambda d: d.__setitem__("cols", 2.5),
    lambda d: d.__setitem__("cols", "2"),
])
def test_matrix_from_json_rejects_malformed(mutate):
    data = matrix_to_json(np.eye(2))
    mutate(data)
    with pytest.raises(ValueError):
        matrix_from_json(data)


MATCORE_REFUSALS = {
    "root-of-unity-order-0": (lambda: root_of_unity(0),
                              "order must be a positive integer, got 0"),
    "matrix-json-not-object": (lambda: matrix_from_json([1]), "matrix JSON must be an object"),
}


@pytest.mark.parametrize("call, message", MATCORE_REFUSALS.values(), ids=MATCORE_REFUSALS)
def test_matcore_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_json_int_accepts_only_integers():
    assert json_int(3, "dim") == 3
    assert json_int(-2, "dim") == -2
    assert type(json_int(np.int64(7), "dim")) is int
    for bad in (True, False, 3.0, 3.9, "3", None, [3], {}, np.float64(3.0), np.bool_(True)):
        with pytest.raises(ValueError, match="dim must be an integer"):
            json_int(bad, "dim")
    one = matrix_to_json(np.eye(1))
    one["rows"] = True  # bool is an int subclass; True would read as 1
    with pytest.raises(ValueError):
        matrix_from_json(one)


def test_matrix_file_round_trip(tmp_path):
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    path = tmp_path / "m.json"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)
    # the one file layout: indent=2, UTF-8, no trailing newline
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_json(m), indent=2)


# the edges of float repr: signed zero, the smallest subnormal, the largest
# finite float, the first float json prints in exponent form, integral values
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e16, -1e16, 1.0, -3.0, 2.0 ** 53]
_ENTRIES = st.one_of(st.sampled_from(_EDGE_FLOATS),
                     st.integers(-2 ** 60, 2 ** 60).map(float),
                     st.floats(allow_nan=False, allow_infinity=False))


def assert_written_as_json_dumps(path, m):
    write_matrix(path, m)
    assert path.read_bytes() == json.dumps(matrix_to_json(m), indent=2).encode("utf-8")
    # every bit comes back, the sign of zero included
    assert read_matrix(path).tobytes() == np.ascontiguousarray(m).tobytes()


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 26), st.integers(1, 26), st.data())
def test_write_matrix_template_matches_json_dumps(tmp_path, rows, cols, data):
    size = 2 * rows * cols
    parts = data.draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    m = np.array(parts).view(np.complex128).reshape(rows, cols)  # re, im interleaved
    assert_written_as_json_dumps(tmp_path / "m.json", m)


@pytest.mark.parametrize("view", [
    lambda m: m.T,
    lambda m: m[::2, ::3],
    np.asfortranarray,
], ids=["transpose", "strided", "fortran"])
def test_write_matrix_non_contiguous(tmp_path, view):
    rng = np.random.default_rng(5)
    m = view(rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9)))
    assert not m.flags.c_contiguous
    assert_written_as_json_dumps(tmp_path / "m.json", m)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrix_refused_and_no_file_written(tmp_path, shape):
    # read_matrix refuses a file with no entries, so no writer makes one
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="no entries"):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


# each writer renames a finished temporary file over its target, so a write
# that fails leaves the previous file whole and no temporary file behind
@pytest.mark.parametrize("write, value", [(write_json, {"dim": 3}), (write_matrix, np.eye(2))])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, write, value):
    path = tmp_path / "m.json"
    write(path, value)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write(path, {"dim": 5} if write is write_json else np.eye(3))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_read_matrix_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed JSON in bad.json"):
        read_matrix(path)
    path.write_text('{"rows": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="^bad.json: malformed matrix JSON"):
        read_matrix(path)


def test_json_file_round_trip_and_errors(tmp_path):
    path = tmp_path / "obj.json"
    obj = {"dim": 3, "bases": ["B1", "B2"], "note": "\u00e9"}
    write_json(path, obj)
    assert path.read_bytes() == json.dumps(obj, indent=2).encode("utf-8")
    assert read_json(path) == obj
    # every fault of the file's content is a ValueError that names the file
    for content, fault in ((b"{broken", "malformed JSON"), (b"\xff\xfe", "utf-8"),
                           (b"[1, 2]", "does not hold a JSON object")):
        path.write_bytes(content)
        with pytest.raises(ValueError, match=fault) as err:
            read_json(path)
        assert "obj.json" in str(err.value)
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json")

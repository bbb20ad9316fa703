"""End-to-end tests for the command line interface."""

import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mubkit.classes import build_set
from mubkit.cli import (
    EXIT_FAIL,
    EXIT_IO,
    EXIT_PASS,
    EXIT_UNSUPPORTED,
    _emit,
    _read_export,
    _write_family,
    main,
)
from mubkit.matcore import matrix_from_json, write_matrix
from mubkit.mub import family_for, odd_prime_family
from mubkit.tomography import (
    derive_seed,
    probabilities,
    random_density,
    reconstruct_from_record,
    sample_shots,
)


@pytest.fixture(autouse=True)
def isolated_tolerance(monkeypatch):
    monkeypatch.delenv("MUBKIT_TOL", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_mub_builtin_export_and_verify(tmp_path, capsys):
    out = tmp_path / "fam"
    code, data = run_json(capsys, "mub", "--dim", "3", "--out", str(out))
    assert code == EXIT_PASS
    assert data["pass"] is True
    assert data["bases"] == ["B1", "B2", "B3", "B4"]
    assert (out / "family.json").exists()
    assert sorted(p.name for p in out.glob("basis_*.json")) == [
        "basis_B1.json", "basis_B2.json", "basis_B3.json", "basis_B4.json"]
    manifest = json.loads((out / "family.json").read_text())
    assert manifest == {"dim": 3, "bases": ["B1", "B2", "B3", "B4"],
                        "convention": "m-descending"}
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_PASS
    assert data["pass"] is True
    assert {c["check"] for c in data["checks"]} == {
        "member_count", "orthonormality", "unbiasedness"}
    for check in data["checks"]:
        assert set(check) == {"check", "worst_deviation", "pass"}


def test_mub_generated_prime(capsys):
    code, data = run_json(capsys, "mub", "--dim", "7", "--source", "generated")
    assert code == EXIT_PASS
    assert len(data["bases"]) == 8


def test_mub_dimension_six_is_structured_refusal(capsys):
    code, data = run_json(capsys, "mub", "--dim", "6")
    assert code == EXIT_UNSUPPORTED
    assert data["error"] == "unsupported"
    assert data["dim"] == 6
    assert "no complete MUB family known" in data["message"]


def test_mub_generated_rejects_non_prime(capsys):
    code, data = run_json(capsys, "mub", "--dim", "4", "--source", "generated")
    assert code == EXIT_UNSUPPORTED
    assert data["dim"] == 4


def test_verify_catches_tampered_basis(tmp_path, capsys):
    out = tmp_path / "fam"
    run_json(capsys, "mub", "--dim", "3", "--out", str(out))
    target = out / "basis_B2.json"
    data = json.loads(target.read_text())
    data["data"][0][0]["re"] += 5e-4
    target.write_text(json.dumps(data))
    code, report = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_FAIL
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert "orthonormality" in failing and "unbiasedness" in failing
    # a loose tolerance accepts the same files
    code, report = run_json(capsys, "--tol", "0.01", "verify", "--in", str(out))
    assert code == EXIT_PASS


def test_verify_tolerance_from_environment(tmp_path, capsys, monkeypatch):
    out = tmp_path / "fam"
    run_json(capsys, "mub", "--dim", "3", "--out", str(out))
    target = out / "basis_B3.json"
    data = json.loads(target.read_text())
    data["data"][1][1]["im"] += 5e-4
    target.write_text(json.dumps(data))
    monkeypatch.setenv("MUBKIT_TOL", "0.01")
    code, _ = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_PASS
    monkeypatch.setenv("MUBKIT_TOL", "not-a-number")
    code, report = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_UNSUPPORTED
    assert report["error"] == "invalid"


@pytest.mark.parametrize("via", ["flag", "environment"])
@pytest.mark.parametrize("argv", [("mub", "--dim", "3"), ("operators", "--dim", "3"),
                                  ("verify", "--in", "ops3")], ids=["mub", "operators", "verify"])
def test_strict_tolerance_fails_the_report_on_every_subcommand(tmp_path, capsys, monkeypatch,
                                                               argv, via):
    # a tolerance below rounding grades the report; it is no precondition of building the set
    monkeypatch.chdir(tmp_path)
    assert run_json(capsys, "operators", "--dim", "3", "--out", "ops3")[0] == EXIT_PASS
    code, usual = run_json(capsys, *argv)
    assert code == EXIT_PASS
    if via == "flag":
        argv = ("--tol", "1e-17", *argv)
    else:
        monkeypatch.setenv("MUBKIT_TOL", "1e-17")
    code, strict = run_json(capsys, *argv)
    assert (code, strict["pass"], strict["tolerance"]) == (EXIT_FAIL, False, 1e-17)
    assert [c["check"] for c in strict["checks"]] == [c["check"] for c in usual["checks"]]
    graded = ("tolerance", "checks", "pass")
    assert ({k: v for k, v in strict.items() if k not in graded}
            == {k: v for k, v in usual.items() if k not in graded})


def test_invalid_tolerance_flag(capsys):
    code, data = run_json(capsys, "--tol", "-1", "mub", "--dim", "2")
    assert code == EXIT_UNSUPPORTED
    assert data["error"] == "invalid"


@pytest.mark.parametrize("via", ["flag", "environment"])
@pytest.mark.parametrize("argv", [("mub", "--dim", "3"), ("operators", "--dim", "3"),
                                  ("verify", "--in", "ops3"),
                                  ("tomo", "--dim", "3", "--trials", "1"),
                                  ("tensors", "--two-j", "1", "--out", "tens1"), ("tables",)],
                         ids=lambda argv: argv[0])
def test_invalid_tolerance_refused_on_every_subcommand(tmp_path, capsys, monkeypatch, argv, via):
    # the tolerance is resolved before any subcommand runs, so none of them writes or reads
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv = ("--tol", "-1", *argv)
        message = "tolerance must lie in (0, 1), got -1.0"
    else:
        monkeypatch.setenv("MUBKIT_TOL", "junk")
        message = "MUBKIT_TOL is not a number: 'junk'"
    code, data = run_json(capsys, *argv)
    assert (code, data["error"]) == (EXIT_UNSUPPORTED, "invalid")
    assert message in data["message"]
    assert list(tmp_path.iterdir()) == []


def test_verify_missing_directory_contents(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, data = run_json(capsys, "verify", "--in", str(empty))
    assert code == EXIT_IO
    assert data["error"] == "io"


def test_verify_malformed_json(tmp_path, capsys):
    # every export file, manifests included, is read one way: broken JSON and
    # undecodable bytes are both an io error that names the file
    for name in ("basis_B2.json", "family.json", "operators.json"):
        for content in (b"{broken", b"\xff\xfe{}"):
            out = tmp_path / f"ops-{name}-{len(content)}"
            run_json(capsys, "operators", "--dim", "2", "--out", str(out))
            (out / name).write_bytes(content)
            code, data = run_json(capsys, "verify", "--in", str(out))
            assert code == EXIT_IO, (name, content)
            assert data["error"] == "io"
            assert name in data["message"]


def test_operators_export_and_verify(tmp_path, capsys):
    out = tmp_path / "ops"
    code, data = run_json(capsys, "operators", "--dim", "3", "--out", str(out))
    assert code == EXIT_PASS
    assert data["pass"] is True
    assert data["operator_count"] == 8
    manifest = json.loads((out / "operators.json").read_text())
    assert manifest["dim"] == 3
    assert [c["basis_label"] for c in manifest["classes"]] == [
        "B1", "B2", "B3", "B4"]
    for entry in manifest["classes"]:
        assert len(entry["operators"]) == 2
        for name in entry["operators"]:
            assert (out / name).exists()
    assert (out / "verification_report.json").exists()
    # the export and write_matrix share one writer: the files match byte for byte
    opset = build_set(family_for(3))
    for cls in opset.classes:
        for k, op in enumerate(cls.operators, start=1):
            name = f"op_{cls.basis_label}_k{k}.json"
            write_matrix(tmp_path / name, op)
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    code, report = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_PASS
    names = [c["check"] for c in report["checks"]]
    assert names == ["member_count", "orthonormality", "unbiasedness",
                     "hermiticity", "tracelessness", "hs_orthogonality",
                     "within_class_commutation", "eigen_relation",
                     "cross_class_witness", "completeness"]


def test_verify_catches_tampered_operator(tmp_path, capsys):
    out = tmp_path / "ops"
    run_json(capsys, "operators", "--dim", "3", "--out", str(out))
    target = out / "op_B2_k1.json"
    data = json.loads(target.read_text())
    data["data"][0][0]["re"] += 0.25
    target.write_text(json.dumps(data))
    code, report = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_FAIL
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert "eigen_relation" in failing


# a missing, reordered, unknown or repeated class fails one comparison with the family's labels
LABEL_ORDER = "operator classes {} must name the family's bases ['B1', 'B2', 'B3', 'B4'], in order"


# each edit changes the family and operator manifests of a d = 3 export and
# returns a fragment of the message `verify` must give
def _drop_one_name(family, operators):
    operators["classes"][1]["operators"].pop()
    return "class 'B2' needs 2 operators"


def _drop_one_class(family, operators):
    operators["classes"].pop()
    return LABEL_ORDER.format("['B1', 'B2', 'B3']")


def _reverse_classes(family, operators):
    operators["classes"].reverse()
    return LABEL_ORDER.format("['B4', 'B3', 'B2', 'B1']")


def _repeat_basis_label(family, operators):
    family["bases"][1] = "B1"
    return "repeats basis label B1"


def _unknown_class_label(family, operators):
    operators["classes"][1]["basis_label"] = "B9"
    return LABEL_ORDER.format("['B1', 'B9', 'B3', 'B4']")


def _repeat_class_label(family, operators):
    operators["classes"][1]["basis_label"] = "B1"
    return LABEL_ORDER.format("['B1', 'B1', 'B3', 'B4']")


def _operator_dim_mismatch(family, operators):
    operators["dim"] = 4
    return "operator manifest dimension 4 does not match family dimension 3"


def _path_basis_label(family, operators):
    family["bases"][1] = "../B2"  # a label becomes part of a file name
    return "export entry 'basis_../B2.json' is not a file name inside the export"


def _fractional_family_dim(family, operators):
    family["dim"] = 3.7  # truncated to 3, this export would verify as passing
    return "dim must be an integer, got 3.7"


def _float_operator_dim(family, operators):
    operators["dim"] = 3.0
    return "dim must be an integer, got 3.0"


# a string or object where an array belongs would be iterated as characters or keys
def _string_basis_list(family, operators):
    family["bases"] = "".join(family["bases"])
    return "bases must be a JSON array, got str"


def _object_class_list(family, operators):
    operators["classes"] = {c["basis_label"]: c for c in operators["classes"]}
    return "classes must be a JSON array, got dict"


def _string_operator_list(family, operators):
    operators["classes"][1]["operators"] = operators["classes"][1]["operators"][0]
    return "operators must be a JSON array, got str"


# a label or file name is never converted to a string: 2 would name basis_2.json
def _numeric_basis_label(family, operators):
    family["bases"][1] = 2
    return "basis label must be a string, got 2"


def _numeric_class_label(family, operators):
    operators["classes"][1]["basis_label"] = 2
    return "basis_label must be a string, got 2"


def _numeric_operator_name(family, operators):
    operators["classes"][1]["operators"][0] = 7
    return "operator file name must be a string, got 7"


# a missing field or a class entry that is not an object; the TypeError's own text
# varies with the Python version, so only its type is pinned
def _family_without_dim(family, operators):
    del family["dim"]
    return "malformed manifest: KeyError('dim')"


def _family_without_bases(family, operators):
    del family["bases"]
    return "malformed manifest: KeyError('bases')"


def _string_class_entry(family, operators):
    operators["classes"][1] = "B2"
    return "malformed manifest: TypeError("


def _class_entry_without_operators(family, operators):
    del operators["classes"][1]["operators"]
    return "malformed manifest: KeyError('operators')"


@pytest.mark.parametrize("edit", [_drop_one_name, _drop_one_class, _reverse_classes,
                                  _repeat_basis_label, _unknown_class_label,
                                  _repeat_class_label, _path_basis_label,
                                  _operator_dim_mismatch,
                                  _fractional_family_dim, _float_operator_dim,
                                  _string_basis_list, _object_class_list,
                                  _string_operator_list, _numeric_basis_label,
                                  _numeric_class_label, _numeric_operator_name,
                                  _family_without_dim, _family_without_bases,
                                  _string_class_entry, _class_entry_without_operators])
def test_verify_rejects_truncated_or_reordered_operator_export(tmp_path, capsys, edit):
    # a subset of an orthonormal set is still orthonormal, so without a
    # structural check a truncated export would verify as passing; a repeated
    # label reads one file twice and is a malformed export, not a failed check
    out = tmp_path / "ops"
    run_json(capsys, "operators", "--dim", "3", "--out", str(out))
    paths = (out / "family.json", out / "operators.json")
    manifests = [json.loads(path.read_text()) for path in paths]
    expected = edit(*manifests)
    for path, manifest in zip(paths, manifests):
        path.write_text(json.dumps(manifest))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data["error"] == "io"
    assert expected in data["message"]


def test_verify_refuses_numeric_labels_even_with_matching_files(tmp_path, capsys):
    # read as "1".."4", these labels would find basis_1.json.. and verify as passing
    out = tmp_path / "fam"
    run_json(capsys, "mub", "--dim", "3", "--out", str(out))
    for i in range(1, 5):
        (out / f"basis_B{i}.json").rename(out / f"basis_{i}.json")
    (out / "family.json").write_text(json.dumps({"dim": 3, "bases": [1, 2, 3, 4]}))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data == {"error": "io", "message": "basis label must be a string, got 1"}


def test_verify_refuses_family_export_missing_a_basis(tmp_path, capsys):
    # the three listed bases are sound, but a complete family needs d + 1
    out = tmp_path / "fam"
    run_json(capsys, "mub", "--dim", "3", "--out", str(out))
    manifest = json.loads((out / "family.json").read_text())
    manifest["bases"].pop()
    (out / "family.json").write_text(json.dumps(manifest))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data == {"error": "io",
                    "message": "a complete family in dimension 3 needs 4 bases, got 3"}


@pytest.mark.parametrize("outside", ["absolute", "parent"])
def test_verify_refuses_operator_files_outside_the_export(tmp_path, capsys, outside):
    # the name points at a valid copy of the operator, so an export that
    # followed it would verify as passing
    out = tmp_path / "ops"
    run_json(capsys, "operators", "--dim", "3", "--out", str(out))
    copy = tmp_path / "op_x.json"
    copy.write_bytes((out / "op_B2_k1.json").read_bytes())
    name = str(copy) if outside == "absolute" else "../op_x.json"
    manifest = json.loads((out / "operators.json").read_text())
    manifest["classes"][1]["operators"][0] = name
    (out / "operators.json").write_text(json.dumps(manifest))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data["error"] == "io"
    assert data["message"] == f"export entry {name!r} is not a file name inside the export"


@pytest.mark.parametrize("name, size", [("basis_B2.json", 5), ("op_B3_k2.json", 2)])
def test_verify_rejects_matrix_file_of_wrong_shape(tmp_path, capsys, name, size):
    out = tmp_path / "ops"
    run_json(capsys, "operators", "--dim", "3", "--out", str(out))
    write_matrix(out / name, np.eye(size))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data == {"error": "io", "message": f"{name} has shape ({size}, {size}), expected (3, 3)"}


@pytest.mark.parametrize("part, value", [("re", "1.5"), ("im", True)])
def test_verify_rejects_matrix_entry_that_is_not_a_number(tmp_path, capsys, part, value):
    # float() would read "1.5" as 1.5 and true as 1.0
    out = tmp_path / "ops"
    run_json(capsys, "operators", "--dim", "3", "--out", str(out))
    matrix = json.loads((out / "op_B2_k1.json").read_text())
    matrix["data"][0][0][part] = value
    (out / "op_B2_k1.json").write_text(json.dumps(matrix))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data == {"error": "io", "message": "op_B2_k1.json: malformed matrix JSON entry "
                                              f"(0,0): not a JSON number: {value!r}"}


# every family the library builds for a supported d, and every generated one
FAMILY_DIMS = (2, 3, 4, 5, 7, 11, 13, 17, 19, 23)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


@pytest.mark.parametrize("make, d", [(family_for, d) for d in FAMILY_DIMS]
                         + [(odd_prime_family, p) for p in ODD_PRIMES],
                         ids=[f"family_for-{d}" for d in FAMILY_DIMS]
                         + [f"odd_prime_family-{p}" for p in ODD_PRIMES])
def test_family_export_reads_back_bit_for_bit(tmp_path, make, d):
    family = make(d)
    _write_family(tmp_path, family)
    back, opset = _read_export(tmp_path)
    assert opset is None
    assert back.labels == family.labels
    assert back.array.tobytes() == family.array.tobytes()


def test_verify_operators_without_family_is_io_error(tmp_path, capsys):
    out = tmp_path / "ops"
    run_json(capsys, "operators", "--dim", "2", "--out", str(out))
    (out / "family.json").unlink()
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO


@pytest.mark.parametrize("dim, bases, operators", [
    (1, 2, False),  # two 1x1 identity bases: a complete family in form only
    (-1, 0, False),  # no bases, as many as dim + 1 asks for
    (1, 2, True),
])
def test_verify_rejects_family_dimension_below_two(tmp_path, capsys, dim, bases, operators):
    out = tmp_path / "fam"
    out.mkdir()
    labels = [f"B{i + 1}" for i in range(bases)]
    for label in labels:
        write_matrix(out / f"basis_{label}.json", np.eye(1))
    (out / "family.json").write_text(json.dumps({"dim": dim, "bases": labels}))
    if operators:
        (out / "operators.json").write_text(json.dumps({"dim": dim, "classes": []}))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_IO
    assert data == {"error": "io", "message": f"a family needs dimension at least 2, got {dim}"}


def test_verify_refuses_operator_export_above_ceiling(tmp_path, capsys):
    # sound files in a dimension without coefficient vectors: the payload of
    # an unsupported dimension (exit 2), not a malformed export (exit 3)
    out = tmp_path / "fam29"
    code, _ = run_json(capsys, "mub", "--dim", "29", "--source", "generated", "--out", str(out))
    assert code == EXIT_PASS
    (out / "operators.json").write_text(json.dumps({"dim": 29, "classes": []}))
    code, data = run_json(capsys, "verify", "--in", str(out))
    assert code == EXIT_UNSUPPORTED
    assert data == {"error": "unsupported", "message": "dimension must satisfy 2 <= d <= 26, got 29",
                    "dim": 29}


def test_operators_dimension_six_refused(capsys):
    code, data = run_json(capsys, "operators", "--dim", "6")
    assert code == EXIT_UNSUPPORTED
    assert "no complete MUB family known" in data["message"]


def test_operators_refuses_odd_prime_above_ceiling(capsys):
    # the family is refused before it is built, with the same payload as d = 27
    code, data = run_json(capsys, "operators", "--dim", "29")
    assert code == EXIT_UNSUPPORTED
    assert data["error"] == "unsupported"
    assert data["dim"] == 29


def test_tensors_export(tmp_path, capsys):
    out = tmp_path / "tens"
    code, data = run_json(capsys, "tensors", "--two-j", "2", "--out", str(out))
    assert code == EXIT_PASS
    manifest = json.loads((out / "tensors.json").read_text())
    assert manifest["two_j"] == 2
    assert len(manifest["entries"]) == 9  # k = 0, 1, 2
    names = {e["file"] for e in manifest["entries"]}
    assert "tensor_k1_qm1.json" in names
    assert "tensor_k2_q2.json" in names
    from mubkit.tensors import spherical_tensor

    for entry in manifest["entries"]:
        matrix = matrix_from_json(json.loads((out / entry["file"]).read_text()))
        want = spherical_tensor(1.0, entry["k"], entry["q"])
        assert np.max(np.abs(matrix - want)) < 1e-15


def test_tensors_single_component(tmp_path, capsys):
    out = tmp_path / "tens"
    code, data = run_json(capsys, "tensors", "--two-j", "3", "--k", "2",
                          "--q", "-2", "--out", str(out))
    assert code == EXIT_PASS
    assert data["files"] == ["tensor_k2_qm2.json", "tensors.json"]


def test_tensors_component_without_rank_exports_every_rank_that_has_it(tmp_path, capsys):
    out = tmp_path / "tens"
    code, data = run_json(capsys, "tensors", "--two-j", "2", "--q", "1",
                          "--out", str(out))
    assert code == EXIT_PASS
    assert data["files"] == ["tensor_k1_q1.json", "tensor_k2_q1.json", "tensors.json"]
    manifest = json.loads((out / "tensors.json").read_text())
    assert [(e["k"], e["q"]) for e in manifest["entries"]] == [(1, 1), (2, 1)]
    code, data = run_json(capsys, "tensors", "--two-j", "2", "--q", "-2",
                          "--out", str(tmp_path / "neg"))
    assert code == EXIT_PASS
    assert data["files"] == ["tensor_k2_qm2.json", "tensors.json"]


def test_tensors_invalid_rank(tmp_path, capsys):
    out = tmp_path / "tens"
    code, data = run_json(capsys, "tensors", "--two-j", "2", "--k", "9",
                          "--out", str(out))
    assert code == EXIT_UNSUPPORTED
    assert not out.exists()


def test_tensors_spin_above_ceiling_leaves_no_directory(tmp_path, capsys):
    # 2j + 1 = 27 is one past the largest supported dimension
    out = tmp_path / "tens"
    code, data = run_json(capsys, "tensors", "--two-j", "26", "--out", str(out))
    assert code == EXIT_UNSUPPORTED
    assert data == {"error": "invalid", "message": "--two-j must satisfy 1 <= 2j <= 25, got 26"}
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--k", "-1"), ("--q", "3"), ("--k", "1", "--q", "2")])
def test_tensors_invalid_component_leaves_no_directory(tmp_path, capsys, flags):
    out = tmp_path / "tens"
    code, data = run_json(capsys, "tensors", "--two-j", "2", *flags, "--out", str(out))
    assert code == EXIT_UNSUPPORTED
    assert data["error"] == "invalid"
    assert not out.exists()


def test_tomo_exact_reconstruction(capsys):
    code, data = run_json(capsys, "tomo", "--dim", "4", "--trials", "3")
    assert code == EXIT_PASS
    assert data["shots"] is None
    assert data["aggregate"]["count"] == 3
    assert data["aggregate"]["max_trace_distance"] < 1e-10


def test_tomo_sampled_run_is_deterministic(capsys):
    args = ("tomo", "--dim", "3", "--shots", "5000", "--trials", "4",
            "--seed", "9")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    data = json.loads(out1)
    assert data["shots"] == 5000
    assert len(data["results"]) == 4
    assert all(r["trace_distance"] > 0 for r in data["results"])
    # trial t takes its state from derive_seed(seed, t, 0), its shots from (t, 1)
    family = family_for(3)
    opset = build_set(family)
    for t, result in enumerate(data["results"]):
        rho = random_density(3, derive_seed(9, t, 0))
        record = sample_shots(probabilities(rho, family), 5000, derive_seed(9, t, 1))
        want = reconstruct_from_record(record, opset, reference=rho)
        assert result["trace_distance"] == want.trace_distance


def test_tomo_zero_trials(capsys):
    code, data = run_json(capsys, "tomo", "--dim", "2", "--trials", "0")
    assert code == EXIT_PASS
    assert data["results"] == [] and data["aggregate"] is None


def test_tomo_project_flag(capsys):
    code, data = run_json(capsys, "tomo", "--dim", "2", "--shots", "200",
                          "--trials", "2", "--project")
    assert code == EXIT_PASS
    assert all(r["projected"] for r in data["results"])


def test_tomo_invalid_shots(capsys):
    code, data = run_json(capsys, "tomo", "--dim", "3", "--shots", "many")
    assert code == EXIT_UNSUPPORTED
    code, data = run_json(capsys, "tomo", "--dim", "3", "--shots", "-5")
    assert code == EXIT_UNSUPPORTED
    # beyond numpy's int64 count: the structured refusal, not an OverflowError,
    # and the same one when no trial would sample
    for trials in ("1", "0"):
        code, data = run_json(capsys, "tomo", "--dim", "3", "--shots", str(10 ** 20),
                              "--trials", trials)
        assert code == EXIT_UNSUPPORTED, trials
        assert data["error"] == "invalid" and "2**63 - 1" in data["message"]


def test_tomo_negative_trials_refused(capsys):
    code, data = run_json(capsys, "tomo", "--dim", "3", "--trials", "-1")
    assert code == EXIT_UNSUPPORTED
    assert data["error"] == "invalid" and "--trials must be nonnegative" in data["message"]


def test_tomo_dimension_six_refused(capsys):
    code, data = run_json(capsys, "tomo", "--dim", "6")
    assert code == EXIT_UNSUPPORTED
    assert "no complete MUB family known" in data["message"]


def test_tables_contains_reference_blocks(capsys):
    code, out = run(capsys, "tables")
    assert code == EXIT_PASS
    assert "alpha_3" in out
    assert "-i*w/sqrt(2)" in out
    assert "beta_1" in out and "3/sqrt(5)" in out
    assert "gamma_24" in out
    dim5 = out.split("== dimension 5 ==")[1]
    assert dim5.count("basis B") == 6
    # deterministic output
    code2, out2 = run(capsys, "tables")
    assert out2 == out


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a child process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.mark.parametrize("argv, lines", [(("tables",), 1), (("mub", "--dim", "3"), 0)],
                         ids=["tables-after-one-line", "mub-before-output"])
def test_closed_stdout_exits_io_without_traceback(argv, lines):
    # the reader takes `lines` lines and closes the pipe. A 4096-byte pipe
    # holds back most of the 21 kB tables output until then; the mub payload
    # is written only by the final flush, after the pipe is closed
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "mubkit.cli", *argv],
                            stdout=write_end, stderr=subprocess.PIPE, env=_src_env())
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        head = [reader.readline() for _ in range(lines)]
    stderr = proc.communicate(timeout=60)[1]
    assert head == [b"== dimension 2 ==\n"][:lines]
    assert (proc.returncode, stderr.decode()) == (EXIT_IO, "")


@pytest.mark.parametrize("argv", [("tables",), ("operators", "--dim", "3")],
                         ids=["tables", "operators"])
def test_stdout_closed_before_start_exits_io_without_traceback(argv):
    # the read end is closed before the process starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mubkit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_src_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (EXIT_IO, "")


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


# an entry of 1e300 overflows the checks' products: verify fails (exit 1) and
# prints strict JSON, null for each overflowed check, with nothing on stderr
@pytest.mark.parametrize("command, name, overflowed", [
    ("mub", "basis_B2.json", {"orthonormality", "unbiasedness"}),
    ("operators", "op_B2_k1.json", {"hs_orthogonality", "completeness"})],
    ids=["family", "operators"])
def test_verify_of_overflowing_export_prints_strict_json(tmp_path, capsys, command, name,
                                                         overflowed):
    out = tmp_path / "export"
    run_json(capsys, command, "--dim", "3", "--out", str(out))
    target = out / name
    data = json.loads(target.read_text())
    data["data"][0][0]["re"] = 1e300
    target.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "mubkit.cli", "verify", "--in", str(out)],
                          capture_output=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (EXIT_FAIL, "")
    report = json.loads(proc.stdout, parse_constant=_refuse_constant)
    assert {c["check"] for c in report["checks"] if c["worst_deviation"] is None} == overflowed
    assert not any(c["pass"] for c in report["checks"] if c["check"] in overflowed)


def test_emit_refuses_a_non_finite_value_before_writing(capsys):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _emit({"command": "verify", "worst_deviation": float("inf")})
    assert capsys.readouterr().out == ""


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["mub"])
    assert err.value.code == 2

"""Tests for state reconstruction from MUB measurement statistics."""

import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubkit.classes import build_set, coefficient_vectors
from mubkit.mub import builtin_family, family_for
from mubkit.tomography import (
    MeasurementRecord,
    coefficients,
    coefficients_from_probabilities,
    derive_seed,
    fidelity,
    probabilities,
    project_psd,
    random_density,
    read_record,
    reconstruct,
    reconstruct_from_record,
    record_from_json,
    record_to_json,
    sample_shots,
    trace_distance,
    write_record,
)
from mubkit.tomography import _basis_words, _seed_words
from helpers import max_abs

ALL_DIMS = (2, 3, 4, 5, 7)
SUPPORTED_DIMS = (2, 3, 4, 5, 7, 11, 13, 17, 19, 23)  # every supported d <= 23
MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("d", ALL_DIMS)
def test_random_density_is_a_state(d):
    for seed in range(5):
        rho = random_density(d, seed)
        assert rho.shape == (d, d)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert max_abs(rho - rho.conj().T) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert np.array_equal(random_density(d, 3), random_density(d, 3))
    assert not np.array_equal(random_density(d, 3), random_density(d, 4))


@pytest.mark.parametrize("d", ALL_DIMS)
def test_expansion_round_trip(d):
    opset = build_set(family_for(d))
    for seed in range(10):
        rho = random_density(d, seed)
        a = coefficients(rho, opset)
        assert a.shape == (d * d - 1,)
        back = reconstruct(a, opset)
        assert max_abs(back - rho) < 1e-12


def test_coefficients_refuse_non_hermitian_state():
    # Tr(rho A_i) of a Hermitian rho is real; an imaginary part above 1e-8 is refused
    opset = build_set(family_for(3))
    rho = random_density(3, 0)
    skew = 1j * np.diag([1.0, 0.0, -1.0])  # Tr(skew A_1) = i sqrt(6), A_1 = sqrt(3/2) Jz
    with pytest.raises(ValueError, match="imaginary parts up to 2.449e-03"):
        coefficients(rho + 1e-3 * skew, opset)
    # below the bound the imaginary parts are dropped
    assert max_abs(coefficients(rho + 1e-12 * skew, opset) - coefficients(rho, opset)) < 1e-11


@pytest.mark.parametrize("d", ALL_DIMS)
def test_probability_route_matches_trace_route(d):
    family = family_for(d)
    opset = build_set(family)
    for seed in range(5):
        rho = random_density(d, seed)
        record = probabilities(rho, family)
        assert record.shots is None
        assert record.probs.shape == (d + 1, d)
        assert max_abs(record.probs.sum(axis=1) - 1.0) < 1e-12
        assert record.probs.min() >= 0.0
        direct = coefficients(rho, opset)
        viaprobs = coefficients_from_probabilities(record, opset)
        assert max_abs(direct - viaprobs) < 1e-12


def loop_coefficients(rho, s):
    return np.array([np.trace(rho @ op) for op in s.operators])


def loop_reconstruct(a, s):
    rho = np.eye(s.dim, dtype=np.complex128)
    for ai, op in zip(a, s.operators):
        rho = rho + ai * op
    return rho / s.dim


def loop_probabilities(rho, family):
    rows = [np.clip(np.einsum("id,ij,jd->d", b.matrix.conj(), rho, b.matrix).real, 0.0, 1.0)
            for b in family.bases]
    return MeasurementRecord(family.dim, family.labels, np.array(rows), None)


@pytest.mark.parametrize("d", ALL_DIMS + (11,))
def test_stacked_tomography_matches_loop_definitions(d):
    """coefficients, reconstruct and probabilities read the stacked operator
    array; each must agree with its one-operator-at-a-time definition."""
    family = family_for(d)
    opset = build_set(family)
    for seed in range(5):
        rho = random_density(d, seed)
        want = loop_coefficients(rho, opset)
        a = coefficients(rho, opset)
        assert max_abs(a - want.real) < 1e-13
        assert max_abs(reconstruct(a, opset) - loop_reconstruct(a, opset)) < 1e-13
        exact = probabilities(rho, family)
        reference = loop_probabilities(rho, family)
        assert max_abs(exact.probs - reference.probs) < 1e-13
        for shot_seed in range(3):
            assert np.array_equal(sample_shots(exact, 1000, shot_seed).probs,
                                  sample_shots(reference, 1000, shot_seed).probs)


def test_probabilities_of_basis_state_are_deterministic_and_flat():
    family = builtin_family(3)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    record = probabilities(rho, family)
    assert np.allclose(record.probs[0], [1, 0, 0], atol=1e-12)
    # unbiasedness: every other basis sees the flat distribution
    assert np.allclose(record.probs[1:], 1 / 3, atol=1e-12)


def test_sample_shots_deterministic_and_consistent():
    family = builtin_family(3)
    record = probabilities(random_density(3, 0), family)
    s1 = sample_shots(record, 4096, seed=5)
    s2 = sample_shots(record, 4096, seed=5)
    s3 = sample_shots(record, 4096, seed=6)
    assert np.array_equal(s1.probs, s2.probs)
    assert not np.array_equal(s1.probs, s3.probs)
    assert s1.shots == 4096
    assert max_abs(s1.probs.sum(axis=1) - 1.0) < 1e-12


def test_sample_shots_converges_to_exact():
    family = builtin_family(4)
    record = probabilities(random_density(4, 1), family)
    sampled = sample_shots(record, 1_000_000, seed=0)
    assert max_abs(sampled.probs - record.probs) < 5e-3


def test_sample_shots_requires_exact_record():
    family = builtin_family(2)
    record = probabilities(random_density(2, 0), family)
    sampled = sample_shots(record, 100, seed=0)
    with pytest.raises(ValueError):
        sample_shots(sampled, 100, seed=0)


def test_sample_shots_validates_count():
    family = builtin_family(2)
    record = probabilities(random_density(2, 0), family)
    with pytest.raises(ValueError):
        sample_shots(record, 0, seed=0)
    # no truncation to an integer, and nothing beyond numpy's int64 count
    for n in (2.7, True, 1000.0, "1000", None):
        with pytest.raises(ValueError, match="shot count must be an integer"):
            sample_shots(record, n, seed=0)
    with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
        sample_shots(record, 2 ** 63, seed=0)
    assert sample_shots(record, 2 ** 63 - 1, seed=0).shots == 2 ** 63 - 1
    assert sample_shots(record, np.int64(7), seed=0).shots == 7


def test_seeds_must_be_integers():
    record = probabilities(random_density(2, 0), builtin_family(2))
    for seed in (1.9, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            derive_seed(seed, 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            random_density(2, seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_shots(record, 10, seed)
    # negative seeds and seeds >= 2**64 keep reducing mod 2**64
    assert derive_seed(-1, 0) == derive_seed(MASK64, 0)
    assert derive_seed(2 ** 64 + 5, 0) == derive_seed(5, 0) == derive_seed(np.uint64(5), 0)


def test_trace_distance_known_values():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    maximally_mixed = np.eye(2, dtype=complex) / 2
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, maximally_mixed) == pytest.approx(0.5)


def test_fidelity_pure_reference():
    rho = random_density(3, 2)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    want = rho[0, 0].real
    assert fidelity(rho, psi) == pytest.approx(want)
    # pure density-matrix reference is accepted too
    assert fidelity(rho, np.outer(psi, psi.conj())) == pytest.approx(want)


def test_fidelity_rejects_mixed_reference():
    rho = random_density(3, 2)
    with pytest.raises(ValueError, match="not pure"):
        fidelity(rho, np.eye(3, dtype=complex) / 3)
    # a zero or NaN state vector has no projector; both raise instead of giving NaN
    with pytest.raises(ValueError, match="zero norm"):
        fidelity(rho, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        fidelity(rho, np.array([np.nan, 1.0, 0.0]))
    with pytest.raises(ValueError, match="does not fit dimension 3"):
        fidelity(rho, np.ones(2))


def _exact_record(d):
    return probabilities(np.eye(d) / d, family_for(d))


TOMOGRAPHY_REFUSALS = {
    "coefficients-dim": (lambda: coefficients(np.eye(2) / 2, build_set(family_for(3))),
                         r"dimension mismatch: state \(2, 2\) vs set dim 3"),
    "reconstruct-count": (lambda: reconstruct(np.zeros(3), build_set(family_for(3))),
                          "expected 8 coefficients, got 3"),
    # a NaN or inf coefficient would give a NaN estimate, not an error
    "reconstruct-nan": (lambda: reconstruct([np.nan] * 8, build_set(family_for(3))),
                        r"coefficients must be finite \(no NaN/Inf\)"),
    "reconstruct-inf": (lambda: reconstruct([0.0] * 7 + [np.inf], build_set(family_for(3))),
                        r"coefficients must be finite \(no NaN/Inf\)"),
    "probabilities-dim": (lambda: probabilities(np.eye(2) / 2, family_for(3)),
                          r"dimension mismatch: state \(2, 2\) vs family dim 3"),
    "from-probabilities-dim": (lambda: coefficients_from_probabilities(
                                   _exact_record(3), build_set(family_for(2))),
                               "dimension mismatch: record 3 vs set 2"),
    # a record of the set's dimension but of other bases would give another state's coefficients
    "from-probabilities-labels": (lambda: coefficients_from_probabilities(
                                      MeasurementRecord(3, ("B2", "B1", "B3", "B4"),
                                                        _exact_record(3).probs),
                                      build_set(family_for(3))),
                                  r"^record bases \['B2', 'B1', 'B3', 'B4'\] do not match the "
                                  r"family's bases \['B1', 'B2', 'B3', 'B4'\] in order$"),
    "random-density-d1": (lambda: random_density(1, 0), "dimension must be >= 2, got 1"),
    "trace-distance-shapes": (lambda: trace_distance(np.eye(2), np.eye(3)),
                              r"shape mismatch: \(2, 2\) vs \(3, 3\)"),
    "reconstruct-record-dim": (lambda: reconstruct_from_record(_exact_record(3),
                                                               build_set(family_for(2))),
                               "dimension mismatch: record 3 vs set 2"),
    "project-psd-collapse": (lambda: project_psd(-np.eye(2)), "projection collapsed to zero"),
    # every matrix argument passes matcore.checked's rule: a non-numeric, ragged,
    # non-square or empty one is refused by name, not by numpy or by a wrong result
    "probabilities-non-numeric": (lambda: probabilities(object(), family_for(3)),
                                  r"^a family in dimension 3 needs a state of shape \(3, 3\): "),
    "coefficients-ragged": (lambda: coefficients([[1, 0, 0], [0, 1]], build_set(family_for(3))),
                            r"^an operator set in dimension 3 needs a state of shape \(3, 3\): "
                            r".*inhomogeneous shape"),
    "fidelity-non-square": (lambda: fidelity(np.ones((2, 3)), [1, 0]),
                            r"^fidelity needs a square matrix of shape \('n', 'n'\), "
                            r"got \(2, 3\)$"),
    "project-psd-non-square": (lambda: project_psd(np.ones((2, 3))),
                               r"^project_psd needs a square matrix of shape \('n', 'n'\), "
                               r"got \(2, 3\)$"),
    # the parent returned 0.0 here: a - b is zero whatever its shape
    "trace-distance-non-square": (lambda: trace_distance(np.ones((2, 3)), np.ones((2, 3))),
                                  r"^trace_distance needs a square matrix of shape \('n', 'n'\), "
                                  r"got \(2, 3\)$"),
    "fidelity-empty": (lambda: fidelity(np.zeros((0, 0)), np.zeros(0)),
                       r"^fidelity needs a square matrix with at least one entry, got shape "
                       r"\(0, 0\)$"),
    "fidelity-ragged-reference": (lambda: fidelity(np.eye(2) / 2, [[1, 0], [1]]),
                                  r"^a comparison in dimension 2 needs a reference of shape "
                                  r"\(2, 2\): .*inhomogeneous shape"),
    # a one-dimensional reference is refused naming the state-vector shape
    "reference-non-numeric-vector": (lambda: fidelity(np.eye(3) / 3, ["x", 1, 0]),
                                     r"^a comparison in dimension 3 needs a reference of shape "
                                     r"\(3,\): "),
    "reference-non-numeric": (lambda: reconstruct_from_record(_exact_record(3),
                                                              build_set(family_for(3)),
                                                              reference=object()),
                              r"^a comparison in dimension 3 needs a reference of shape "
                              r"\(3, 3\): "),
    # the same refusal for a reference given as a nested list
    "reference-non-numeric-list": (lambda: reconstruct_from_record(_exact_record(3),
                                                                   build_set(family_for(3)),
                                                                   reference=[[object()] * 3] * 3),
                                   r"^a comparison in dimension 3 needs a reference of shape "
                                   r"\(3, 3\): "),
}


@pytest.mark.parametrize("call, message", TOMOGRAPHY_REFUSALS.values(), ids=TOMOGRAPHY_REFUSALS)
def test_tomography_refuses_mismatched_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_project_psd_restores_state():
    rho = random_density(3, 7)
    # linear noise can push eigenvalues negative
    noisy = rho + 0.05 * np.diag([1.0, -1.0, 0.0])
    fixed = project_psd(noisy)
    assert abs(np.trace(fixed) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(fixed).min() >= -1e-12
    # projection is idempotent on valid states
    assert max_abs(project_psd(rho) - rho) < 1e-12


@pytest.mark.parametrize("d", ALL_DIMS)
def test_reconstruct_from_exact_record(d):
    family = family_for(d)
    opset = build_set(family)
    rho = random_density(d, 9)
    record = probabilities(rho, family)
    report = reconstruct_from_record(record, opset, reference=rho)
    assert report.trace_distance < 1e-10
    assert report.shots is None
    assert not report.projected
    assert max_abs(report.estimate - rho) < 1e-10


def test_reconstruct_from_sampled_record_improves_with_shots():
    family = builtin_family(3)
    opset = build_set(family)
    rho = random_density(3, 4)
    record = probabilities(rho, family)
    coarse = reconstruct_from_record(
        sample_shots(record, 1_000, seed=1), opset, reference=rho)
    fine = reconstruct_from_record(
        sample_shots(record, 1_000_000, seed=1), opset, reference=rho)
    assert fine.trace_distance < coarse.trace_distance
    assert coarse.shots == 1_000 and fine.shots == 1_000_000


def test_reconstruct_with_projection_reports_flag():
    family = builtin_family(3)
    opset = build_set(family)
    rho = random_density(3, 4)
    record = sample_shots(probabilities(rho, family), 500, seed=2)
    raw = reconstruct_from_record(record, opset, reference=rho)
    proj = reconstruct_from_record(record, opset, project=True, reference=rho)
    assert proj.projected and not raw.projected
    assert np.linalg.eigvalsh(proj.estimate).min() >= -1e-12
    data = proj.to_dict()
    assert set(data) == {"trace_distance", "fidelity", "shots", "projected"}
    assert data["fidelity"] is None  # mixed reference has no fidelity entry


def test_reconstruction_report_fidelity_for_pure_reference():
    family = builtin_family(2)
    opset = build_set(family)
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    record = probabilities(rho, family)
    report = reconstruct_from_record(record, opset, reference=psi)
    assert report.fidelity == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="zero norm"):
        reconstruct_from_record(record, opset, reference=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        reconstruct_from_record(record, opset, reference=np.array([np.nan, 1.0]))


@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_report_metrics_are_the_public_metrics(d):
    # reconstruct_from_record checks the reference once and scores its own
    # estimate; the values are those of the public trace_distance and fidelity
    family = family_for(d)
    opset = build_set(family)
    rho = random_density(d, d)
    record = sample_shots(probabilities(rho, family), 1000, seed=d)
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real  # the projector of psi
    for project in (False, True):
        for reference, state in ((rho, rho), (pure, pure), (psi, pure)):
            report = reconstruct_from_record(record, opset, project=project, reference=reference)
            assert report.trace_distance == trace_distance(report.estimate, state)
            if reference is rho:
                assert report.fidelity is None
            else:
                assert report.fidelity == fidelity(report.estimate, reference)
            # a reference given as a nested list gives the same report bytes
            from_list = reconstruct_from_record(record, opset, project=project,
                                                reference=reference.tolist())
            assert json.dumps(from_list.to_dict()) == json.dumps(report.to_dict())
            assert from_list.estimate.tobytes() == report.estimate.tobytes()
    bad = np.eye(d, dtype=complex) / d
    bad[0, 1] = np.nan
    refusals = (
        (bad, r"^matrix entries must be finite \(no NaN/Inf\)$"),
        ([[1] * d, [1]], rf"^a comparison in dimension {d} needs a reference of shape "
                         rf"\({d}, {d}\): .*inhomogeneous shape"),
        (np.ones(d + 1), rf"^reference of shape \({d + 1},\) does not fit dimension {d}$"),
        (np.eye(d - 1), rf"^reference of shape \({d - 1}, {d - 1}\) does not fit dimension {d}$"),
    )
    for reference, message in refusals:
        # each as given, and an array as a nested list
        listed = reference.tolist() if isinstance(reference, np.ndarray) else reference
        for form in (reference, listed):
            with pytest.raises(ValueError, match=message):
                reconstruct_from_record(record, opset, reference=form)


def test_measurement_record_copies_the_callers_array():
    # a write after construction must not slip an invalid distribution past
    # the validation into record.probs
    labels = ("B1", "B2", "B3")
    p = np.full((3, 2), 0.5)
    big = np.stack([p, p])
    own, view = MeasurementRecord(2, labels, p), MeasurementRecord(2, labels, big[0])
    assert p.flags.writeable and big.flags.writeable
    p[0] = big[0, 0] = [1.5, -0.5]
    for record in (own, view):
        assert np.array_equal(record.probs, np.full((3, 2), 0.5))
        assert not record.probs.flags.writeable


def test_measurement_record_validation(tmp_path):
    good = np.full((3, 2), 0.5)
    MeasurementRecord(2, ("B1", "B2", "B3"), good)
    with pytest.raises(ValueError):
        MeasurementRecord(2, ("B1", "B2"), good)  # label count mismatch
    with pytest.raises(ValueError):
        MeasurementRecord(2, ("B1", "B2", "B3"), np.full((3, 2), 0.4))
    bad = good.copy()
    bad[0] = [1.2, -0.2]
    with pytest.raises(ValueError):
        MeasurementRecord(2, ("B1", "B2", "B3"), bad)
    # shots follow the sampler's rule, so no record holds a count no sampler can draw
    for value in (0, -1, 2 ** 63, 10 ** 20):
        with pytest.raises(ValueError, match=r"^shot count must satisfy 1 <= n <= 2\*\*63 - 1, "
                                             f"got {value}$"):
            MeasurementRecord(2, ("B1", "B2", "B3"), good, shots=value)
    for value in (np.nan, np.inf):
        bad = good.copy()
        bad[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            MeasurementRecord(2, ("B1", "B2", "B3"), bad)
    # dim and shots follow the JSON integer rule, so every record can be written and read back
    for value in (2.5, True, 2.0, "5"):
        with pytest.raises(ValueError, match="dim must be an integer"):
            MeasurementRecord(value, ("B1", "B2", "B3"), good)
        with pytest.raises(ValueError, match="shots must be an integer"):
            MeasurementRecord(2, ("B1", "B2", "B3"), good, shots=value)
    # labels follow the record file's string rule, so every record that builds reads back
    for labels in ((1, 2, 3), ("B1", None, "B3"), ("B1", "B2", ["B3"])):
        with pytest.raises(ValueError, match="^basis label must be a string, got "):
            MeasurementRecord(2, labels, good)
    # a record with no probabilities is refused by name, not by a numpy reduction
    for dim, labels, probs in ((3, (), np.zeros((0, 3))), (0, ("B1",), np.zeros((1, 0)))):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"a record of {len(labels)} bases in dimension {dim} needs probabilities with "
                f"at least one entry, got shape {probs.shape}") + "$"):
            MeasurementRecord(dim, labels, probs)
    record = MeasurementRecord(np.int64(2), ["B1", "B2", "B3"], good, shots=np.int64(1000))
    assert type(record.dim) is int and type(record.shots) is int
    assert record.labels == ("B1", "B2", "B3")
    path = tmp_path / "record.json"
    write_record(path, record)
    back = read_record(path)
    assert (back.dim, back.labels, back.shots) == (2, ("B1", "B2", "B3"), 1000)
    assert np.array_equal(back.probs, good)
    path.write_text(path.read_text().replace('"shots": 1000', '"shots": 100000000000000000000'))
    with pytest.raises(ValueError, match=r"^malformed measurement record: shot count must "
                                         r"satisfy 1 <= n <= 2\*\*63 - 1, got 10{20}$"):
        read_record(path)


def test_record_json_round_trip(tmp_path):
    family = builtin_family(3)
    record = sample_shots(probabilities(random_density(3, 0), family), 1000, 3)
    data = record_to_json(record)
    assert data["dim"] == 3 and data["shots"] == 1000
    assert [b["label"] for b in data["bases"]] == list(record.labels)
    back = record_from_json(data)
    assert np.array_equal(back.probs, record.probs)
    exact = probabilities(random_density(3, 0), family)
    assert record_to_json(exact)["shots"] is None
    path = tmp_path / "record.json"
    write_record(path, record)
    # the package's one file layout: indent=2, UTF-8, no trailing newline
    assert path.read_text(encoding="utf-8") == json.dumps(data, indent=2)
    again = read_record(path)
    assert np.array_equal(again.probs, record.probs)
    assert (again.dim, again.labels, again.shots) == (3, record.labels, 1000)


@settings(deadline=None)
@given(st.sampled_from(SUPPORTED_DIMS), st.integers(),
       st.integers(0, 2 ** 64 - 1), st.integers(1, 10 ** 6))
def test_sampled_records_are_valid_and_round_trip_bit_exact(tmp_path_factory, d, state_seed,
                                                            shot_seed, n):
    exact = probabilities(random_density(d, state_seed), family_for(d))
    sampled = sample_shots(exact, n, shot_seed)
    counts = np.rint(sampled.probs * n)
    assert np.array_equal(counts / n, sampled.probs)
    assert np.array_equal(counts.sum(axis=1), np.full(d + 1, n))
    path = tmp_path_factory.getbasetemp() / "round_trip_record.json"
    for record in (exact, sampled):
        write_record(path, record)
        back = read_record(path)
        assert back.probs.tobytes() == record.probs.tobytes()
        assert (back.labels, back.dim, back.shots) == (record.labels, record.dim, record.shots)


def test_record_from_json_rejects_malformed():
    family = builtin_family(2)
    data = record_to_json(probabilities(random_density(2, 0), family))
    for value in (float("nan"), float("inf")):
        bad = json.loads(json.dumps(data))
        bad["bases"][0]["p"][0] = value
        with pytest.raises(ValueError, match="finite"):
            record_from_json(bad)
    # integer fields take JSON integers only: no truncation, no bools, no TypeError
    for field, value in (("shots", 2.5), ("shots", True), ("shots", [1]), ("shots", {}),
                         ("shots", "5"), ("dim", 2.0), ("dim", 3.9)):
        bad = json.loads(json.dumps(data))
        bad[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            record_from_json(bad)
    # entries follow matrix_from_json's number rule, and labels must be strings
    for where, value in (("p", "0.5"), ("p", True), ("p", None), ("p", 10 ** 400),
                         ("label", 7), ("label", None), ("label", ["B1"])):
        bad = json.loads(json.dumps(data))
        if where == "p":
            bad["bases"][0]["p"][0] = value
        else:
            bad["bases"][0]["label"] = value
        with pytest.raises(ValueError, match="malformed measurement record: "):
            record_from_json(bad)
    del data["bases"][0]["p"]
    with pytest.raises(ValueError):
        record_from_json(data)


def test_derive_seed_is_the_one_seed_path():
    mask = (1 << 64) - 1
    for seed in (0, -3, 2**64 + 5):
        for key in ((), (0,), (1,), (0, 0), (0, 1), (7, 1), (3, 2, 1)):
            # the formula the CLI used for its per-trial seeds
            want = np.random.SeedSequence([seed & mask, *key]).generate_state(1, np.uint64)[0]
            assert derive_seed(seed, *key) == int(want)
        # the basis streams of random_density and sample_shots share the derivation
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & mask, 0])))
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ g.conj().T
        assert np.array_equal(random_density(3, seed), rho / np.trace(rho).real)
    assert derive_seed(-3, 1) == derive_seed(2**64 - 3, 1)
    assert derive_seed(5, 0, 0) != derive_seed(5, 0, 1)


@pytest.mark.parametrize("relabel", [
    lambda labels, probs: (labels[::-1], probs[::-1]),
    lambda labels, probs: (("X",) + labels[1:], probs),
], ids=["reversed", "relabelled"])
def test_reconstruction_rejects_record_with_foreign_basis_order(relabel):
    family = builtin_family(3)
    opset = build_set(family)
    record = probabilities(random_density(3, 0), family)
    labels, probs = relabel(record.labels, record.probs)
    with pytest.raises(ValueError, match="do not match"):
        reconstruct_from_record(MeasurementRecord(3, labels, probs), opset)


@settings(deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70), st.lists(st.integers(0, 2 ** 70 - 1), max_size=3))
# each integer becomes one word, or more at each 32-bit boundary; a zero is one word
@example(0, [0])
@example(1, [])
@example(2 ** 32 - 1, [2 ** 32 - 1, 0])
@example(2 ** 32, [2 ** 32])
@example(2 ** 64 - 1, [2 ** 64 - 1, 2 ** 64])
@example(-5, [1, 2])
def test_seed_sequence_pool_matches_the_list_form(seed, key):
    want = np.random.SeedSequence([seed & MASK64, *key]).pool
    assert np.array_equal(np.random.SeedSequence(_seed_words(seed, *key)).pool, want)


@settings(deadline=None, max_examples=50)
@given(st.integers(-2 ** 70, 2 ** 70))
@example(0)
@example(1)
@example(2 ** 32 - 1)
@example(2 ** 32)
@example(2 ** 64 - 1)
@example(2 ** 64 + 5)
@example(-1)
@example(-5)
def test_basis_words_are_the_per_basis_rule(seed):
    # sample_shots builds one word array per record; row b must seed the stream
    # that (seed, b) alone seeds, for every base count of a supported d
    for bases in range(3, 28):
        rows = [[(b % 5 + 1) / 16, (b % 3 + 2) / 16] for b in range(bases)]
        record = MeasurementRecord(3, tuple(f"B{b}" for b in range(bases)),
                                   [row + [1 - sum(row)] for row in rows])
        sampled = sample_shots(record, 1000, seed)
        words = _basis_words(seed, bases)
        for b in range(bases):
            want = np.random.SeedSequence([seed & MASK64, b])
            pool = np.random.SeedSequence(words[b]).pool
            assert np.array_equal(pool, want.pool)
            assert np.array_equal(pool, np.random.SeedSequence(_seed_words(seed, b)).pool)
            counts = np.random.Generator(np.random.PCG64(want)).multinomial(1000, record.probs[b])
            assert np.array_equal(sampled.probs[b], counts / 1000.0)


def test_seed_keys_must_be_non_negative_integers():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(0, -1)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(0, 3, -2 ** 40)
    with pytest.raises(ValueError, match="seed key must be an integer"):
        derive_seed(0, 1.5)


# Pinned sampling. A record depends only on the exact probabilities, on n and
# on (seed mod 2**64, basis index); these digests hold it to the bytes the
# parent implementation sampled. The rows are dyadic (k / 1024, summing to
# exactly 1) and no matrix product is involved, so the digests do not depend
# on the BLAS kernel.
PIN_SEEDS = (0, 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 5, -1)
SAMPLE_PINS = {
    2: "cfba344ed6af0afd0fa55b23785f8891a43a3fd1d51e1129e3b4cb8377d6fb92",
    3: "42cd1a7231be064606d5ada31457fbd067b8051572614a3af9e76ba8df385836",
    4: "f27bac418a9371e9db7e8d7ee46e94616d4cfe9c084956eb2430c0c5879ee360",
    5: "8c4a91076244e49df66989cd704532b71f9573a6f5565fe71838134a41734568",
    7: "0a45aaa618f5f354c58916d4d2cac5f4606fa0934d8cbcb7a14d79f57b73b5bf",
    11: "3abc4b2778fdb5bc8f35e60575459e5b5598e1e924c6b6f066030fd324ffae20",
    13: "d7cca0f690ea72f4005035efaddda0e6ae06aec7f7d239c1da832d1fcb7e99c8",
    23: "4e146313ccf1c60771de67547a799113e72fb1112154d9cedbf89d5fffa4701f",
}
# seed: derive_seed(seed, *key) for the keys (0,), (3, 1) and (2**40,)
DERIVE_PINS = {
    0: (15793235383387715774, 4245091184500617293, 4046324455346189379),
    1: (7434755675892716031, 17001506023429570679, 2648639702266984948),
    2 ** 32: (5836529245451711556, 9865651986321309836, 15072961098575185552),
    2 ** 64 - 1: (12591116029944179981, 1907199784401707484, 1764645679410443479),
    2 ** 64 + 5: (12631478326263854183, 471450922708169230, 15140673199806763723),
    -1: (12591116029944179981, 1907199784401707484, 1764645679410443479),
}


def dyadic_record(d):
    unit = 1024 // (8 * d)
    rows = []
    for b in range(d + 1):
        counts = [((3 * b + 5 * i) % 7) * unit for i in range(d - 1)]
        rows.append(counts + [1024 - sum(counts)])
    return MeasurementRecord(d, tuple(f"B{b + 1}" for b in range(d + 1)),
                             np.array(rows) / 1024)


@pytest.mark.parametrize("d", sorted(SAMPLE_PINS))
def test_sampled_records_are_pinned(d):
    record = dyadic_record(d)
    assert np.array_equal(record.probs.sum(axis=1), np.ones(d + 1))
    digest = hashlib.sha256()
    for seed in PIN_SEEDS:
        for n in (1, 1000):
            digest.update(sample_shots(record, n, seed).probs.tobytes())
    assert digest.hexdigest() == SAMPLE_PINS[d]


def test_derived_seeds_are_pinned():
    for seed, want in DERIVE_PINS.items():
        assert tuple(derive_seed(seed, *key) for key in ((0,), (3, 1), (2 ** 40,))) == want


@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_exact_records_satisfy_the_purity_identity(d):
    """sum_b sum_i (p_i^b)**2 = 1 + Tr rho**2 for d+1 MUBs (Wootters & Fields 1989)."""
    family = family_for(d)
    for seed in range(5):
        rho = random_density(d, seed)
        purity = float(np.trace(rho @ rho).real)
        total = float((probabilities(rho, family).probs ** 2).sum())
        assert abs(total - (1.0 + purity)) < 1e-12


def chebyshev_rows(d):
    """The integer discrete Chebyshev rows t_1..t_(d-1) on x = 0..d-1, from
    t_0 = 1 and (n+1) t_(n+1) = (2n+1)(2x-d+1) t_n - n(d^2-n^2) t_(n-1)."""
    rows, prev, t = [], [0] * d, [1] * d
    for n in range(d - 1):
        nxt = [Fraction((2 * n + 1) * (2 * x - d + 1) * a - n * (d * d - n * n) * b, n + 1)
               for x, (a, b) in enumerate(zip(t, prev))]
        assert all(v.denominator == 1 for v in nxt)
        prev, t = t, [int(v) for v in nxt]
        rows.append(t)
    return rows


# the expansion is the MUB frame inversion (README): with the identity row,
# the coefficient rows, each of squared norm d, are an orthogonal basis, so
# c^T c = d I - J, J the all-ones matrix
@pytest.mark.parametrize("d", range(2, 27))
def test_coefficient_gram_is_the_frame_identity(d):
    rows = chebyshev_rows(d)
    weights = [Fraction(d, sum(v * v for v in t)) for t in rows]
    for i in range(d):
        for j in range(d):
            entry = sum(w * t[i] * t[j] for w, t in zip(weights, rows))
            assert entry == d * (i == j) - 1
    # coefficient_vectors holds the same rows scaled to squared norm d, with
    # the sign (-1)^k of T(k, 0)
    c = coefficient_vectors(d)
    for k, (row, t, w) in enumerate(zip(c, rows, weights), start=1):
        assert max_abs(row - (-1) ** k * np.sqrt(float(w)) * np.array(t, dtype=float)) < 1e-14
    assert max_abs(c.T @ c - (d * np.eye(d) - 1.0)) < 1e-14


# so reconstruct_from_record gives rho = sum_b B_b diag(p_b) B_b^dag - I,
# on exact and on sampled records alike
@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_reconstruction_is_the_mub_frame_inversion(d):
    family = family_for(d)
    opset = build_set(family)
    m = family.array
    for seed in range(3):
        exact = probabilities(random_density(d, seed), family)
        for record in (exact, sample_shots(exact, 1000, seed)):
            frame = np.einsum("bij,bj,bkj->ik", m, record.probs, m.conj()) - np.eye(d)
            assert max_abs(reconstruct_from_record(record, opset).estimate - frame) < 1e-14

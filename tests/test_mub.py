"""Tests for MUB family construction and certification."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit.classes import OperatorSet, build_set, coefficient_vectors
from mubkit.matcore import DEFAULT_TOL, root_of_unity
from mubkit.mub import (
    BUILTIN_DIMS,
    MAX_DIM,
    Basis,
    BasisTransform,
    MubFamily,
    UnsupportedDimensionError,
    builtin_family,
    canonical_basis,
    check_family,
    family_for,
    fourier_basis,
    odd_prime_family,
    one_axis_twist,
    unitary_between,
)
from mubkit.tomography import MeasurementRecord
from helpers import max_abs

ALL_DIMS = (2, 3, 4, 5, 7, 11)
GENERATED_DIMS = (3, 5, 7, 11, 13)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
SUPPORTED_DIMS = (2, 3, 4, 5, 7, 11, 13, 17, 19, 23)


def overlap_deviation(a, b):
    overlaps = np.abs(a.conj().T @ b) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / a.shape[0])))


def scalar_phase_basis(d, b):
    """Component k of vector j is w^(b k^2 + j k)/sqrt(d), one root_of_unity
    call per entry: the definition the phase table must reproduce."""
    m = np.empty((d, d), dtype=np.complex128)
    for k in range(d):
        for j in range(d):
            m[k, j] = root_of_unity(d, b * k * k + j * k)
    return m / np.sqrt(d)


def per_basis_family(d):
    """The odd-prime family one quadratic-phase basis b at a time, each with
    its own root-of-unity table: odd_prime_family must reproduce its bytes."""
    k = np.arange(d)[:, np.newaxis]
    mats = [np.eye(d, dtype=np.complex128)]
    for b in range(d):
        powers = np.array([root_of_unity(d, p) for p in range(d)])
        exponents = b * k * k + np.arange(d) * k
        mats.append(powers[exponents % d] / np.sqrt(len(exponents)))
    return np.array(mats)


def reference_family_checks(family, tol=DEFAULT_TOL):
    """check_family's values as one Gram product per basis and one overlap
    product per basis pair: the definition the batched product must reproduce."""
    eye = np.eye(family.dim)
    orth = 0.0
    for b in family.bases:
        orth = max(orth, float(np.abs(b.matrix.conj().T @ b.matrix - eye).max()))
    unb = 0.0
    for i, a in enumerate(family.bases):
        for b in family.bases[i + 1:]:
            unb = max(unb, overlap_deviation(a.matrix, b.matrix))
    return [("member_count", 0.0, True), ("orthonormality", orth, orth <= tol),
            ("unbiasedness", unb, unb <= tol)]


def perturbed(family, index, row, col, delta):
    bad = family.bases[index].matrix.copy()
    bad[row, col] += delta
    basis = Basis(family.dim, bad, family.bases[index].label)
    return MubFamily(family.dim, family.bases[:index] + (basis,) + family.bases[index + 1:])


def test_canonical_basis_is_identity():
    basis = canonical_basis(4)
    assert np.array_equal(basis.matrix, np.eye(4))
    assert basis.label == "B1"
    assert np.array_equal(basis.vector(2), np.eye(4)[:, 2])
    proj = basis.projector(1)
    assert proj[1, 1] == 1.0 and np.abs(proj).sum() == 1.0


@pytest.mark.parametrize("d", [2, 3, 5, 8, 11])
def test_fourier_basis_unitary_and_unbiased(d):
    f = fourier_basis(d)
    assert max_abs(f.matrix.conj().T @ f.matrix - np.eye(d)) < 1e-12
    assert overlap_deviation(canonical_basis(d).matrix, f.matrix) < 1e-12
    # entry convention: F[k, j] = w^(jk) / sqrt(d)
    assert f.matrix[1, 1] == pytest.approx(root_of_unity(d, 1) / np.sqrt(d))


@pytest.mark.parametrize("d", GENERATED_DIMS)
def test_odd_prime_family_certifies(d):
    family = odd_prime_family(d)
    assert len(family.bases) == d + 1
    assert family.labels == tuple(f"B{i + 1}" for i in range(d + 1))
    report = check_family(family)
    assert report.passed, report.to_dicts()
    assert report.result("unbiasedness").worst_deviation <= 1e-12


@pytest.mark.parametrize("d", BUILTIN_DIMS)
def test_builtin_family_certifies(d):
    family = builtin_family(d)
    assert len(family.bases) == d + 1
    report = check_family(family)
    assert report.passed, report.to_dicts()
    for name in ("member_count", "orthonormality", "unbiasedness"):
        assert report.result(name).worst_deviation <= 1e-12


def test_builtin_d2_matches_pauli_eigenbases():
    family = builtin_family(2)
    b2, b3 = family.bases[1].matrix, family.bases[2].matrix
    want_x = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    want_y = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
    assert max_abs(b2 - want_x) < 1e-15
    assert max_abs(b3 - want_y) < 1e-15


def test_builtin_d5_equals_quadratic_construction():
    builtin = builtin_family(5)
    generated = odd_prime_family(5)
    assert builtin.labels == generated.labels
    for a, b in zip(builtin.bases, generated.bases):
        assert np.array_equal(a.matrix, b.matrix)


def test_fourier_basis_equals_scalar_loop():
    for d in range(2, 27):
        assert np.array_equal(fourier_basis(d).matrix, scalar_phase_basis(d, 0)), d


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_odd_prime_family_equals_scalar_loop(p):
    family = odd_prime_family(p)
    assert np.array_equal(family.bases[0].matrix, np.eye(p))
    for b, basis in enumerate(family.bases[1:]):
        assert np.array_equal(basis.matrix, scalar_phase_basis(p, b)), b


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_family_bytes_equal_per_basis_reference(p):
    want = per_basis_family(p)
    assert odd_prime_family(p).array.tobytes() == want.tobytes()
    assert fourier_basis(p).matrix.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("d", [5.0, True, "5", None])
@pytest.mark.parametrize("constructor", [odd_prime_family, builtin_family, family_for,
                                         coefficient_vectors])
def test_dimension_must_be_an_integer(constructor, d):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        constructor(d)


@pytest.mark.parametrize("constructor", [odd_prime_family, builtin_family, family_for,
                                         coefficient_vectors])
def test_dimension_accepts_numpy_integers(constructor):
    got = constructor(np.int64(5))
    dim = got.shape[1] if isinstance(got, np.ndarray) else got.dim
    assert type(dim) is int and dim == 5


@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_check_family_equals_per_pair_loop(d):
    rng = np.random.default_rng(d)
    family = family_for(d)
    bad = perturbed(family, int(rng.integers(d + 1)), *rng.integers(d, size=2), 3e-7 - 2e-7j)
    for f in (family, bad):
        got = [(r.check, r.worst_deviation, r.passed) for r in check_family(f)]
        assert got == reference_family_checks(f)
    assert not check_family(bad).passed


@pytest.mark.parametrize("d", [6])
def test_dimension_six_refused_by_all_constructors(d):
    for constructor in (builtin_family, odd_prime_family):
        with pytest.raises(UnsupportedDimensionError) as err:
            constructor(d)
        assert err.value.dim == 6
        assert "no complete MUB family known" in str(err.value)
        assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("constructor,d", [
    (builtin_family, 7),
    (builtin_family, 1),
    (odd_prime_family, 2),
    (odd_prime_family, 4),
    (odd_prime_family, 9),
    (odd_prime_family, 15),
])
def test_out_of_range_dimensions_refused(constructor, d):
    with pytest.raises(UnsupportedDimensionError) as err:
        constructor(d)
    assert err.value.dim == d


MUB_REFUSALS = {
    "family-basis-dim": (lambda: MubFamily(3, family_for(3).bases[:3]
                                           + (Basis(4, np.eye(4), "B4"),)),
                         "basis 'B4' has dimension 4, expected 3"),
    "transform-shape": (lambda: BasisTransform(3, np.eye(2)),
                        r"^a transform in dimension 3 needs a matrix of shape \(3, 3\), "
                        r"got \(2, 2\)$"),
    "canonical-d1": (lambda: canonical_basis(1), "dimension must be >= 2, got 1"),
    "fourier-d1": (lambda: fourier_basis(1), "dimension must be >= 2, got 1"),
    "twist-d1": (lambda: one_axis_twist(1, 0.5), "dimension must be >= 2, got 1"),
    "unitary-dims": (lambda: unitary_between(canonical_basis(2), canonical_basis(3)),
                     "dimension mismatch: 2 vs 3"),
}


@pytest.mark.parametrize("call, message", MUB_REFUSALS.values(), ids=MUB_REFUSALS)
def test_mub_constructors_and_checks_refuse_bad_dimensions(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_check_family_flags_perturbed_member():
    family = odd_prime_family(3)
    bad = family.bases[1].matrix.copy()
    bad[0, 0] += 1e-6
    bases = (family.bases[0], Basis(3, bad, "B2")) + family.bases[2:]
    report = check_family(MubFamily(3, bases))
    assert not report.passed
    assert not report.result("orthonormality").passed


def test_family_validation_errors():
    bases = tuple(odd_prime_family(3).bases[:3])
    with pytest.raises(ValueError):
        MubFamily(3, bases)  # wrong member count
    with pytest.raises(ValueError, match="at least 2, got 1"):
        MubFamily(1, (Basis(1, np.eye(1), "B1"), Basis(1, np.eye(1), "B2")))
    with pytest.raises(ValueError, match="at least 2, got -1"):
        MubFamily(-1, ())
    with pytest.raises(ValueError):
        Basis(3, np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        Basis(2, np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^a basis in dimension 0 needs a matrix with at least "
                                         r"one entry, got shape \(0, 0\)$"):
        Basis(0, np.zeros((0, 0)))


@pytest.mark.parametrize("d", ALL_DIMS)
def test_bases_are_read_only_views_of_one_array(d):
    family = family_for(d)
    a = family.array
    assert a.shape == (d + 1, d, d)
    assert a.dtype == np.complex128
    assert not a.flags.writeable
    for i, basis in enumerate(family.bases):
        assert np.shares_memory(a, basis.matrix)
        assert np.shares_memory(a[i], basis.matrix)
    with pytest.raises(ValueError):
        family.array[1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        family.bases[-1].matrix[0, 1] += 1.0


@pytest.mark.parametrize("d", ALL_DIMS)
def test_family_array_holds_the_callers_matrices_in_order(d):
    # bases passed in reverse order keep that order, and a later write to the
    # caller's matrices leaves the family as built
    mats = [b.matrix.copy() for b in family_for(d).bases][::-1]
    labels = tuple(f"B{i + 1}" for i in range(d + 1))[::-1]
    family = MubFamily(d, tuple(Basis(d, m, label) for m, label in zip(mats, labels)))
    assert family.labels == labels
    want = [m.copy() for m in mats]
    for m in mats:
        m[0, 0] += 1.0
    for i, m in enumerate(want):
        assert np.array_equal(family.array[i], m)
        assert np.array_equal(family.bases[i].matrix, m)


@pytest.mark.parametrize("d", ALL_DIMS)
def test_tampered_basis_shows_in_array_and_fails(d):
    family = family_for(d)
    index = d // 2
    bad = perturbed(family, index, 0, d - 1, 1e-3)
    assert np.array_equal(bad.array[index], bad.bases[index].matrix)
    assert bad.array[index, 0, d - 1] == family.array[index, 0, d - 1] + 1e-3
    assert np.array_equal(np.delete(bad.array, index, axis=0),
                          np.delete(family.array, index, axis=0))
    assert check_family(family).passed
    assert not check_family(bad).passed


def transformed(family, seed):
    """U B_b diag(e^{i phi_b}) for every basis b, with U from the QR of a
    Ginibre matrix: a global unitary and per-column phases."""
    d = family.dim
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.exp(2j * np.pi * rng.random((d + 1, d)))
    return MubFamily(d, tuple(Basis(d, u @ b.matrix * phi, b.label)
                              for b, phi in zip(family.bases, phases)))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((2, 3, 4, 5, 7, 11, 13)), st.integers(0, 2 ** 32 - 1))
def test_check_family_invariant_under_unitary_and_column_phases(d, seed):
    # orthonormality and unbiasedness are invariant under B_b -> U B_b D_b
    # (Durt, Englert, Bengtsson & Zyczkowski, arXiv:1004.3348)
    family = family_for(d)
    index, row, col = np.random.default_rng(seed).integers(d + 1), seed % d, seed // d % d
    bad = perturbed(family, index, row, col, 1e-3)
    for f, passes in ((family, True), (bad, False)):
        before, after = check_family(f), check_family(transformed(f, seed))
        assert before.passed == after.passed == passes
        for x, y in zip(before, after, strict=True):
            assert (x.check, x.passed) == (y.check, y.passed)
            assert abs(x.worst_deviation - y.worst_deviation) <= 1e-12


def test_family_refuses_repeated_label():
    family = odd_prime_family(3)
    bases = (family.bases[0], Basis(3, family.bases[1].matrix, "B1")) + family.bases[2:]
    with pytest.raises(ValueError, match="repeats basis label B1"):
        MubFamily(3, bases)


LABEL_REFUSALS = {
    "basis-int": lambda: Basis(3, np.eye(3), 0),
    "basis-none": lambda: Basis(3, np.eye(3), None),
    "transform-source": lambda: BasisTransform(3, np.eye(3), 1, "B2"),
    "transform-target": lambda: BasisTransform(3, np.eye(3), "B1", ["B2"]),
    # numbered like a family's bases, which an export writes and no reader accepts
    "family-of-numbered-bases": lambda: MubFamily(3, tuple(
        Basis(3, b.matrix, i) for i, b in enumerate(family_for(3).bases))),
}


@pytest.mark.parametrize("call", LABEL_REFUSALS.values(), ids=LABEL_REFUSALS)
def test_basis_labels_must_be_strings(call):
    # the rule a record label, a family manifest and an operator manifest follow
    with pytest.raises(ValueError, match="^basis label must be a string, got "):
        call()


def test_basis_matrix_read_only():
    basis = canonical_basis(3)
    with pytest.raises(ValueError):
        basis.matrix[0, 0] = 5.0


@functools.cache
def _d3_set():
    return build_set(builtin_family(3))


# every array a container stores, through the one rule of matcore.frozen:
# (the container built on an array, a valid array, the field that stores it)
STORED_ARRAYS = {
    "Basis.matrix": (lambda a: Basis(3, a), lambda: np.eye(3), "matrix"),
    "BasisTransform.matrix": (lambda a: BasisTransform(3, a), lambda: np.eye(3), "matrix"),
    "OperatorSet.array": (lambda a: OperatorSet(3, a, _d3_set().family, _d3_set().coefficients),
                          lambda: _d3_set().array, "array"),
    "OperatorSet.coefficients": (lambda a: OperatorSet(3, _d3_set().array, _d3_set().family, a),
                                 lambda: _d3_set().coefficients, "coefficients"),
    "MeasurementRecord.probs": (lambda a: MeasurementRecord(3, ("B1", "B2", "B3", "B4"), a),
                                lambda: np.full((4, 3), 1 / 3), "probs"),
}


@pytest.mark.parametrize("make, good, field", STORED_ARRAYS.values(), ids=STORED_ARRAYS)
def test_stored_arrays_are_frozen_copies(make, good, field):
    # the caller's array stays writable, and a later write to it or to its
    # base never reaches the stored (read-only) array
    a = np.array(good())
    big = np.stack([a, a])
    own, view = make(a), make(big[0])
    assert a.flags.writeable and big.flags.writeable
    a.flat[0] = big.flat[0] = 0.5
    for obj in (own, view):
        stored = getattr(obj, field)
        assert np.array_equal(stored, good())
        assert not stored.flags.writeable


@pytest.mark.parametrize("make, good, field", STORED_ARRAYS.values(), ids=STORED_ARRAYS)
def test_stored_arrays_refuse_malformed_input(make, good, field):
    a = good()
    for value in (np.nan, np.inf):
        bad = np.array(a)
        bad.flat[1] = value
        with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
            make(bad)
    # a wrong shape, 1-D input, ragged input and a 0 x 0 matrix
    ragged = [*a[:-1], a[-1][:-1]]
    for bad in (a[:-1], a.ravel(), ragged, np.zeros((0, 0))):
        with pytest.raises(ValueError, match=r"^an? .* in dimension 3 needs .* of shape \("):
            make(bad)


def test_one_axis_twist_advances_builtin_d3_labels():
    # e^{-i m^2 t} at t = 2*pi/3 maps each non-canonical d=3 table to the
    # next one, column by column, up to one global phase per basis
    d = 3
    family = builtin_family(d)
    twist = one_axis_twist(d, 2 * np.pi / 3)
    w2 = root_of_unity(3, 2)
    for b in range(1, d):
        src = family.bases[b].matrix
        dst = family.bases[b + 1].matrix
        mapped = twist.matrix @ src
        phases = []
        for col in range(d):
            ratio = mapped[:, col] / dst[:, col]
            assert np.std(np.abs(ratio)) < 1e-12
            phases.append(ratio[0])
        # global phase: identical for every column, here equal to w^2
        assert np.max(np.abs(np.array(phases) - phases[0])) < 1e-12
        assert phases[0] == pytest.approx(w2)


def test_one_axis_twist_unitary_and_diagonal():
    twist = one_axis_twist(5, 0.7)
    m = twist.matrix
    assert max_abs(m - np.diag(np.diag(m))) == 0.0
    assert max_abs(m.conj().T @ m - np.eye(5)) < 1e-12


def test_one_axis_twist_maps_fourier_into_family():
    # the twisted Fourier basis reproduces the last quadratic basis as a
    # set of columns, and stays unbiased against the other members
    d = 3
    family = odd_prime_family(d)
    twisted = one_axis_twist(d, 2 * np.pi / 3).matrix @ fourier_basis(d).matrix
    target = family.bases[3].matrix
    overlaps = np.abs(target.conj().T @ twisted) ** 2
    # permutation matrix: each twisted column equals one target column
    assert max_abs(np.sort(overlaps, axis=0)[-1] - 1.0) < 1e-12
    assert max_abs(overlaps.sum(axis=0) - 1.0) < 1e-12
    for other in family.bases[:3]:
        dev = overlap_deviation(other.matrix, twisted)
        assert dev < 1e-12


@pytest.mark.parametrize("d", ODD_PRIMES)
def test_one_axis_twist_certificate_at_every_odd_prime(d):
    # exp(i m^2 2 pi b/d) turns Fourier column j into quadratic basis b's
    # column j + b, up to a phase, so B_{b+2} = twist @ Fourier as columns
    family = odd_prime_family(d)
    fourier = fourier_basis(d).matrix
    for b in range(d):
        twisted = one_axis_twist(d, -2 * np.pi * b / d).matrix @ fourier
        target = family.bases[b + 1].matrix
        match = np.argmax(np.abs(target.conj().T @ twisted), axis=0)
        assert sorted(match) == list(range(d)), b
        for col, row in enumerate(match):
            phase = np.vdot(target[:, row], twisted[:, col])
            assert abs(abs(phase) - 1.0) < 1e-12
            assert max_abs(twisted[:, col] - phase * target[:, row]) < 1e-12, (b, col)


def test_unitary_between_maps_bases():
    family = odd_prime_family(5)
    a, b = family.bases[1], family.bases[3]
    u = unitary_between(a, b)
    assert max_abs(u.matrix.conj().T @ u.matrix - np.eye(5)) < 1e-12
    assert max_abs(u.matrix @ a.matrix - b.matrix) < 1e-12
    assert u.source_label == a.label and u.target_label == b.label


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 11, 13])
def test_family_for_picks_builtin_tables_then_odd_primes(d):
    source = builtin_family if d in BUILTIN_DIMS else odd_prime_family
    got, want = family_for(d), source(d)
    assert got.labels == want.labels
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(got.bases, want.bases))


@pytest.mark.parametrize("d", [1, 6, 8, 9, 15, 29, 31])
def test_family_for_refuses_other_dimensions(d):
    with pytest.raises(UnsupportedDimensionError) as info:
        family_for(d)
    assert info.value.dim == d
    if d == 6:
        assert "no complete MUB family known for dimension 6" in str(info.value)
    if d > MAX_DIM:
        assert f"odd primes up to {MAX_DIM}" in str(info.value)

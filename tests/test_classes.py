"""Tests for commuting-class operator construction and verification."""

import dataclasses
import functools

import numpy as np
import pytest

from mubkit.classes import (
    NONCOMMUTING_FLOOR,
    CommutingClass,
    OperatorSet,
    build_class,
    build_set,
    coefficient_vectors,
    conjugate_class,
    verify_set,
)
from mubkit.matcore import DEFAULT_TOL
from mubkit.mub import (
    Basis,
    BasisTransform,
    MubFamily,
    UnsupportedDimensionError,
    builtin_family,
    canonical_basis,
    family_for,
    fourier_basis,
    odd_prime_family,
    one_axis_twist,
    unitary_between,
)
from mubkit.tomography import random_density
from helpers import max_abs
from reference_tables import PAULI_X, PAULI_Y, PAULI_Z, alpha_d3

ALL_DIMS = (2, 3, 4, 5, 7, 11)
# every d <= 26 that family_for supports: the d = 2..5 tables and the odd primes
SUPPORTED_DIMS = ALL_DIMS + (13, 17, 19, 23)


@pytest.mark.parametrize("d", range(2, 27))
def test_coefficient_vectors_golden(d):
    # the independent Racah route, not the recurrence coefficient_vectors runs
    from mubkit.tensors import spherical_tensor

    j = (d - 1) / 2
    coeffs = coefficient_vectors(d)
    assert type(coeffs) is np.ndarray and coeffs.dtype == np.float64
    assert coeffs.shape == (d - 1, d) and not coeffs.flags.writeable
    racah = np.array([np.diag(spherical_tensor(j, k, 0)).real for k in range(1, d)])
    assert coeffs.tobytes() == racah.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5, 11, 26])
def test_coefficient_vectors_traceless_orthogonal(d):
    vectors = coefficient_vectors(d)
    assert max_abs(vectors.sum(axis=1)) < 1e-10
    gram = vectors @ vectors.T
    assert max_abs(gram - d * np.eye(d - 1)) < 1e-9


def test_coefficient_vectors_dimension_bounds():
    # no coefficient vectors exist outside 2 <= d <= 26: the ValueError the
    # CLI reports as unsupported, naming the dimension
    for d in (1, 27):
        with pytest.raises(UnsupportedDimensionError, match=f"^dimension must satisfy "
                                                            f"2 <= d <= 26, got {d}$") as err:
            coefficient_vectors(d)
        assert err.value.dim == d


def test_coefficient_vectors_read_only():
    coeffs = coefficient_vectors(3)
    with pytest.raises(ValueError):
        coeffs[0, 0] = 1.0


def test_coefficient_vectors_copy_the_callers_array():
    # an operator set keeps a read-only copy of the coefficients it is given
    opset = build_set(builtin_family(3))
    v = np.array(coefficient_vectors(3))
    big = np.stack([v, v])
    own, view = (OperatorSet(3, opset.array, opset.family, c) for c in (v, big[0]))
    assert v.flags.writeable and big.flags.writeable
    v[0, 0] = big[0, 0, 0] = 7.0
    for s in (own, view):
        assert s.coefficients[0, 0] == coefficient_vectors(3)[0, 0]
        assert not s.coefficients.flags.writeable


@pytest.mark.parametrize("d", ALL_DIMS)
def test_operator_count(d):
    opset = build_set(family_for(d))
    assert len(opset) == d * d - 1
    assert len(opset.classes) == d + 1
    for cls in opset.classes:
        assert len(cls.operators) == d - 1


def test_spin_half_set_is_pauli():
    opset = build_set(builtin_family(2))
    ops = opset.operators
    assert max_abs(ops[0] - PAULI_Z) < 1e-12
    assert max_abs(ops[1] - PAULI_X) < 1e-12
    assert max_abs(ops[2] - PAULI_Y) < 1e-12


def test_d3_set_matches_tabulated_operators():
    ops = build_set(builtin_family(3)).operators
    for got, want in zip(ops, alpha_d3()):
        assert max_abs(got - want) < 1e-12


@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_verify_set_passes(d):
    opset = build_set(family_for(d))
    report = verify_set(opset)
    assert report.passed, report.to_dicts()
    names = [r.check for r in report]
    assert names == ["hermiticity", "tracelessness", "hs_orthogonality",
                     "within_class_commutation", "eigen_relation",
                     "cross_class_witness", "completeness"]


@pytest.mark.parametrize("d", ALL_DIMS)
def test_conjugation_route_equals_projector_route(d):
    # operators of class b via unitary transport of class 1 must agree
    # with the direct projector decomposition in basis b
    family = family_for(d)
    first = build_class(family.bases[0])
    for basis in family.bases[1:]:
        transform = unitary_between(family.bases[0], basis)
        moved = conjugate_class(first, transform)
        direct = build_class(basis)
        assert moved.basis_label == basis.label
        for a, b in zip(moved.operators, direct.operators):
            assert max_abs(a - b) < 1e-12


def test_conjugate_class_keeps_label_without_target():
    family = builtin_family(3)
    cls = build_class(family.bases[0])
    transform = BasisTransform(3, family.bases[1].matrix)
    moved = conjugate_class(cls, transform)
    assert moved.basis_label == cls.basis_label


def test_build_set_rejects_non_mub_family():
    family = odd_prime_family(3)
    bad = family.bases[2].matrix.copy()
    bad[0, 0] += 1e-3
    bases = family.bases[:2] + (Basis(3, bad, "B3"),) + family.bases[3:]
    with pytest.raises(ValueError, match="fails MUB verification"):
        build_set(MubFamily(3, bases))


def replace_class_operators(opset, index, ops):
    cls = opset.classes[index]
    classes = list(opset.classes)
    classes[index] = CommutingClass(cls.basis_label, tuple(ops))
    return OperatorSet(opset.dim, tuple(classes), opset.family, opset.coefficients)


def identity_replacement(opset):
    ops = opset.classes[1].operators
    return replace_class_operators(opset, 1, (np.eye(opset.dim, dtype=complex),) + ops[1:])


def duplicate_operator(opset):
    ops = opset.classes[1].operators
    return replace_class_operators(opset, 1, (ops[1], ops[1]) + ops[2:])


def non_hermitian_perturbation(opset):
    ops = opset.classes[1].operators
    bumped = ops[0].copy()
    bumped[0, 1] += 1e-6 + 1e-6j
    return replace_class_operators(opset, 1, (bumped,) + ops[1:])


def test_verify_set_flags_identity_replacement():
    # an identity inserted in place of an operator keeps HS orthogonality
    # against the traceless rest but breaks trace, eigen and completeness
    report = verify_set(identity_replacement(build_set(builtin_family(3))))
    assert not report.passed
    assert not report.result("tracelessness").passed
    assert not report.result("eigen_relation").passed
    assert not report.result("completeness").passed
    assert report.result("hs_orthogonality").passed


def test_verify_set_flags_duplicate_operator():
    report = verify_set(duplicate_operator(build_set(builtin_family(3))))
    assert not report.result("hs_orthogonality").passed
    assert not report.passed


@pytest.mark.parametrize("d", ALL_DIMS)
def test_operators_are_read_only_views_of_one_array(d):
    opset = build_set(family_for(d))
    a = opset.array
    assert a.shape == (d + 1, d - 1, d, d)
    assert a.dtype == np.complex128
    assert not a.flags.writeable
    for i, cls in enumerate(opset.classes):
        for k, op in enumerate(cls.operators):
            assert np.shares_memory(op, a[i, k])
    for n, op in enumerate(opset.operators):
        assert np.shares_memory(op, a[n // (d - 1), n % (d - 1)])
    with pytest.raises(ValueError):
        opset.classes[1].operators[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        opset.operators[-1][0, 1] += 1.0


def test_set_owns_its_array():
    # a later write to the arrays a set was built from leaves the set as built
    opset = build_set(builtin_family(3))
    ops = [op.copy() for op in opset.classes[1].operators]
    s = replace_class_operators(opset, 1, ops)
    ops[0][0, 0] += 1.0
    assert np.array_equal(s.array, opset.array)


def test_set_refuses_coefficients_of_another_dimension():
    opset = build_set(builtin_family(3))
    with pytest.raises(ValueError, match=r"an operator set in dimension 3 needs coefficients of "
                                         r"shape \(2, 3\), got \(3, 4\)"):
        OperatorSet(3, opset.classes, opset.family, coefficient_vectors(4))


def reachable_arrays(obj):
    """Every numpy array reachable from obj through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from reachable_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from reachable_arrays(getattr(obj, f.name))


@pytest.mark.parametrize("d", ALL_DIMS)
def test_every_array_a_set_reaches_is_read_only(d):
    opset = build_set(family_for(d))
    arrays = list(reachable_arrays(opset)) + list(reachable_arrays(opset.classes))
    # array and its operator views, family.array and its basis views, the coefficients
    assert len(arrays) == 1 + (d + 1) * (d - 1) + 1 + (d + 1) + 1
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_classes_and_stack_build_the_same_set(d):
    # a tuple of classes is an array-like of the set's shape, so both forms meet one check
    opset = supported_set(d)
    from_classes = OperatorSet(d, opset.classes, opset.family, opset.coefficients)
    from_stack = OperatorSet(d, opset.array.copy(), opset.family, opset.coefficients)
    assert from_classes.array.tobytes() == from_stack.array.tobytes() == opset.array.tobytes()
    assert [c.basis_label for c in opset.classes] == list(opset.family.labels)


def test_classes_take_the_family_labels():
    # a class's label is its basis's: the set stores operators, not labels
    opset = build_set(builtin_family(3))
    renamed = tuple(CommutingClass(f"X{i}", c.operators) for i, c in enumerate(opset.classes))
    s = OperatorSet(3, renamed, opset.family, opset.coefficients)
    assert [c.basis_label for c in s.classes] == ["B1", "B2", "B3", "B4"]


def test_classes_keep_no_projectors():
    opset = build_set(builtin_family(3))
    basis = opset.family.bases[1]
    passed = tuple(CommutingClass(cls.basis_label, cls.operators,
                                  tuple(basis.projector(i) for i in range(3)))
                   for cls in opset.classes)
    rebuilt = OperatorSet(3, passed, opset.family, opset.coefficients)
    cls = build_class(basis)
    moved = conjugate_class(cls, unitary_between(basis, opset.family.bases[2]))
    assert all(c.projectors is None for c in opset.classes + rebuilt.classes + (cls, moved))


# the three values would build a set whose dim is not an int, or fail inside numpy
DIMENSION_CALLS = {
    "canonical_basis": canonical_basis,
    "fourier_basis": fourier_basis,
    "one_axis_twist": lambda d: one_axis_twist(d, 1),
    "random_density": lambda d: random_density(d, 1),
    "Basis": lambda d: Basis(d, np.eye(5)),
    "BasisTransform": lambda d: BasisTransform(d, np.eye(5)),
    "MubFamily": lambda d: MubFamily(d, family_for(5).bases),
    "OperatorSet": lambda d: OperatorSet(d, supported_set(5).classes, supported_set(5).family,
                                         supported_set(5).coefficients),
}


@pytest.mark.parametrize("call", DIMENSION_CALLS.values(), ids=DIMENSION_CALLS)
def test_dimension_follows_one_integer_rule(call):
    for bad in (5.0, True, "5"):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            call(bad)
    built = call(np.int64(5))
    dim = built.shape[0] if isinstance(built, np.ndarray) else built.dim
    assert type(dim) is int and dim == 5


def _operator_of_wrong_shape():
    opset = supported_set(3)
    return replace_class_operators(opset, 1, (np.eye(2),) + opset.classes[1].operators[1:])


CLASS_REFUSALS = {
    "set-family-dim": (lambda: OperatorSet(3, supported_set(3).classes, family_for(5),
                                           supported_set(3).coefficients),
                       "family dimension 5 does not match set dimension 3"),
    # numpy refuses to stack a ragged set of operators
    "set-operator-shape": (_operator_of_wrong_shape,
                           r"^an operator set in dimension 3 needs an array of shape "
                           r"\(4, 2, 3, 3\): .*inhomogeneous shape"),
    "set-array-shape": (lambda: OperatorSet(3, supported_set(3).array[:3], family_for(3),
                                            supported_set(3).coefficients),
                        r"an operator set in dimension 3 needs an array of shape "
                        r"\(4, 2, 3, 3\), got \(3, 2, 3, 3\)"),
    # a basis above the ceiling has no coefficient vectors to weight its projectors with
    "build-class-dim": (lambda: build_class(canonical_basis(27)),
                        "dimension must satisfy 2 <= d <= 26, got 27"),
    "conjugate-class-dim": (lambda: conjugate_class(supported_set(3).classes[0],
                                                    one_axis_twist(5, 1)),
                            r"dimension mismatch: class \(3, 3\) vs transform 5"),
}


@pytest.mark.parametrize("call, message", CLASS_REFUSALS.values(), ids=CLASS_REFUSALS)
def test_class_constructors_refuse_mismatched_dimensions(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("tamper", [identity_replacement, duplicate_operator,
                                    non_hermitian_perturbation])
def test_tampering_through_constructors_shows_in_array(tamper):
    opset = build_set(builtin_family(3))
    bad = tamper(opset)
    for i, cls in enumerate(bad.classes):
        assert np.array_equal(bad.array[i], np.array(cls.operators))
    assert not np.array_equal(bad.array[1], opset.array[1])
    assert np.array_equal(np.delete(bad.array, 1, axis=0), np.delete(opset.array, 1, axis=0))


def reference_checks(s, tol=DEFAULT_TOL):
    """verify_set's seven metrics as one loop per operator or operator pair:
    the definition the stacked implementation must reproduce."""
    d = s.dim
    ops = list(s.operators)
    results = []

    dev = max(float(np.abs(a - a.conj().T).max()) for a in ops)
    results.append(("hermiticity", dev, dev <= tol))

    dev = max(abs(complex(np.trace(a))) for a in ops)
    results.append(("tracelessness", dev, dev <= tol))

    stack = np.array([a.conj().ravel() for a in ops])
    gram = stack @ np.array([a.ravel() for a in ops]).T
    dev = float(np.abs(gram - d * np.eye(len(ops))).max())
    results.append(("hs_orthogonality", dev, dev <= tol))

    dev = 0.0
    for cls in s.classes:
        for i in range(len(cls.operators)):
            for j in range(i + 1, len(cls.operators)):
                a, b = cls.operators[i], cls.operators[j]
                dev = max(dev, float(np.abs(a @ b - b @ a).max()))
    results.append(("within_class_commutation", dev, dev <= tol))

    dev = 0.0
    for cls, basis in zip(s.classes, s.family.bases):
        for k, op in enumerate(cls.operators):
            want = s.coefficients[k][np.newaxis, :] * basis.matrix
            dev = max(dev, float(np.abs(op @ basis.matrix - want).max()))
    results.append(("eigen_relation", dev, dev <= tol))

    witness = np.inf
    n = len(s.classes)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = s.classes[i].operators[0], s.classes[j].operators[0]
            witness = min(witness, float(np.abs(a @ b - b @ a).max()))
    results.append(("cross_class_witness", float(witness), witness >= NONCOMMUTING_FLOOR))

    full = [np.eye(d, dtype=np.complex128)] + ops
    stack = np.array([a.conj().ravel() for a in full])
    gram = stack @ np.array([a.ravel() for a in full]).T
    dev = float(np.abs(gram - d * np.eye(len(full))).max())
    results.append(("completeness", dev, dev <= tol))
    return results


def assert_matches_reference(s):
    got = [(r.check, r.worst_deviation, r.passed) for r in verify_set(s)]
    want = reference_checks(s)
    assert [(name, ok) for name, _, ok in got] == [(name, ok) for name, _, ok in want]
    for (name, value, _), (_, expected, _) in zip(got, want):
        assert abs(value - expected) <= 1e-12, name


@pytest.mark.parametrize("d", ALL_DIMS + (13,))
def test_verify_set_matches_loop_reference(d):
    assert_matches_reference(build_set(family_for(d)))


@pytest.mark.parametrize("tamper", [identity_replacement, duplicate_operator,
                                    non_hermitian_perturbation])
@pytest.mark.parametrize("d", [3, 5])
def test_verify_set_matches_loop_reference_on_tampered_sets(d, tamper):
    assert_matches_reference(tamper(build_set(family_for(d))))


def real_perturbation(opset):
    ops = opset.classes[0].operators
    bumped = ops[0].copy()
    bumped[0, 1] += 1e-6
    return replace_class_operators(opset, 0, (bumped,) + ops[1:])


def per_class_commutator_maxima(ops):
    """The p x p matrix of the largest entry of |[ops[k], ops[l]]|, from one
    (p*d, d) @ (d, p*d) product reduced per operator pair."""
    p, d, _ = ops.shape
    x = (ops.reshape(p * d, d) @ ops.transpose(1, 0, 2).reshape(d, p * d)).reshape(p, d, p, d)
    return np.abs(x - x.transpose(2, 1, 0, 3)).max(axis=(1, 3))


def per_class_checks(s, tol=DEFAULT_TOL):
    """verify_set's seven metrics with the same GEMM calls as verify_set, but
    the commutator checks reduced per operator pair and per class: the
    stacked implementation must reproduce these values bit for bit, on any
    BLAS kernel, for finite sets."""
    d, a = s.dim, s.array
    n, m = a.shape[:2]
    results = []
    dev = float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
    results.append(("hermiticity", dev, dev <= tol))
    dev = float(np.abs(np.trace(a, axis1=-2, axis2=-1)).max())
    results.append(("tracelessness", dev, dev <= tol))
    full = np.concatenate([np.eye(d, dtype=np.complex128).reshape(1, -1),
                           a.reshape(n * m, d * d)])
    gram = full.conj() @ full.T
    gram[np.diag_indices_from(gram)] -= d
    dev = float(np.abs(gram[1:, 1:]).max())
    results.append(("hs_orthogonality", dev, dev <= tol))
    dev = float(max(per_class_commutator_maxima(ops).max() for ops in a))
    results.append(("within_class_commutation", dev, dev <= tol))
    bases = s.family.array
    want = s.coefficients[np.newaxis, :, np.newaxis, :] * bases[:, np.newaxis]
    got = (a.reshape(n, m * d, d) @ bases).reshape(n, m, d, d)
    dev = float(np.abs(got - want).max())
    results.append(("eigen_relation", dev, dev <= tol))
    dev = float(per_class_commutator_maxima(a[:, 0])[np.triu_indices(n, 1)].min())
    results.append(("cross_class_witness", dev, dev >= NONCOMMUTING_FLOOR))
    dev = float(np.abs(gram).max())
    results.append(("completeness", dev, dev <= tol))
    return results


def per_basis_classes(family, coeffs):
    """Operators one basis at a time: the projectors of the basis columns,
    then the operators summed over them in order i = 0..d-1 with the real
    coefficients."""
    d = family.dim
    ops = []
    for m in family.array:
        b = m.T
        proj = b[:, :, np.newaxis] * b.conj()[:, np.newaxis, :]
        acc = np.zeros((d - 1, d, d), dtype=np.complex128)
        for i in range(d):
            acc += coeffs[:, i, np.newaxis, np.newaxis] * proj[i]
        ops.append(acc)
    return np.array(ops)


@functools.cache
def supported_set(d):
    return build_set(family_for(d))


@pytest.mark.parametrize("d", SUPPORTED_DIMS)
def test_build_set_bytes_equal_per_basis_reference(d):
    opset = supported_set(d)
    ops = per_basis_classes(opset.family, opset.coefficients)
    assert opset.array.tobytes() == ops.tobytes()
    for i, basis in enumerate(opset.family.bases):
        cls = build_class(basis)
        assert cls.basis_label == basis.label
        assert np.array(cls.operators).tobytes() == ops[i].tobytes()


TAMPERINGS = (None, identity_replacement, duplicate_operator, non_hermitian_perturbation,
              real_perturbation)


# duplicate_operator needs two operators per class, so it starts at d = 3
@pytest.mark.parametrize("d,tamper", [(d, t) for d in SUPPORTED_DIMS for t in TAMPERINGS
                                      if d > 2 or t is not duplicate_operator])
def test_verify_set_values_equal_per_class_reference(d, tamper):
    opset = supported_set(d) if tamper is None else tamper(supported_set(d))
    got = [(r.check, r.worst_deviation, r.passed) for r in verify_set(opset)]
    assert got == per_class_checks(opset)


# classes 0 and 5 are the first and the last class at d = 5; a NaN or an inf
# would pass into every estimate a set reconstructs, so no set holds one
@pytest.mark.parametrize("index", [0, 5])
def test_nan_operator_in_any_class_is_refused(index):
    opset = build_set(family_for(5))
    for bad in (np.nan, np.inf):
        ops = list(opset.classes[index].operators)
        ops[1] = ops[1].copy()
        ops[1][0, 1] = bad
        with pytest.raises(ValueError, match=r"matrix entries must be finite \(no NaN/Inf\)"):
            replace_class_operators(opset, index, ops)


# rows 0 and -1 are the first and the last coefficient vector; a set holding a
# NaN or an inf weight would fail only its eigen-relation check and reconstruct
# through a non-converging SVD, so no set holds one
@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("d", [3, 5])
def test_non_finite_coefficients_are_refused(d, row):
    opset = supported_set(d)
    for bad in (np.nan, np.inf):
        c = np.array(opset.coefficients)
        c[row, 1] = bad
        with pytest.raises(ValueError, match=r"matrix entries must be finite \(no NaN/Inf\)"):
            OperatorSet(d, opset.array, opset.family, c)


# build_set and verify_set take their scratch afresh on every call: no set
# aliases scratch, no call writes into a set, and no call sees another's values
def test_sets_built_back_to_back_share_no_memory():
    family = family_for(5)
    s1, s2 = build_set(family), build_set(family)
    assert not np.shares_memory(s1.array, s2.array)
    assert s1.array.tobytes() == s2.array.tobytes()


@pytest.mark.parametrize("d", [2, 5, 11])
def test_verify_set_leaves_the_set_untouched(d):
    opset = build_set(family_for(d))
    before = opset.array.tobytes()
    verify_set(opset)
    assert opset.array.tobytes() == before
    assert not opset.array.flags.writeable


def test_sets_verified_alternately_report_what_each_reports_alone():
    sets = (supported_set(5), non_hermitian_perturbation(supported_set(5)), supported_set(7))
    alone = [verify_set(s).to_dicts() for s in sets]
    assert alone[0] != alone[1]
    for _ in range(2):
        assert [verify_set(s).to_dicts() for s in sets] == alone


def all_pairs_witness(s):
    """Min over class pairs of the largest commutator entry over all operator pairs."""
    witness = np.inf
    n = len(s.classes)
    for i in range(n):
        for j in range(i + 1, n):
            best = 0.0
            for a in s.classes[i].operators:
                for b in s.classes[j].operators:
                    best = max(best, float(np.abs(a @ b - b @ a).max()))
            witness = min(witness, best)
    return witness


@pytest.mark.parametrize("d", ALL_DIMS + (13,))
def test_cross_class_witness_is_a_lower_bound_of_all_pairs(d):
    opset = build_set(family_for(d))
    witness = verify_set(opset).result("cross_class_witness").worst_deviation
    assert NONCOMMUTING_FLOOR <= witness <= all_pairs_witness(opset)


@pytest.mark.parametrize("d", [3, 5])
def test_verify_set_flags_commuting_first_operators(d):
    # class 1 keeps operators that fail to commute with class 0, but its first
    # operator is class 0's first, so the fixed pair of that class pair commutes
    opset = build_set(family_for(d))
    ops = opset.classes[1].operators
    bad = replace_class_operators(opset, 1, (opset.classes[0].operators[0],) + ops[1:])
    assert all_pairs_witness(bad) >= NONCOMMUTING_FLOOR
    report = verify_set(bad)
    assert not report.result("cross_class_witness").passed
    assert not report.passed


@pytest.mark.parametrize("d", ALL_DIMS + (13,))
def test_build_set_equals_projector_sum(d):
    opset = build_set(family_for(d))
    c = opset.coefficients
    for cls, basis in zip(opset.classes, opset.family.bases):
        projectors = [basis.projector(i) for i in range(d)]
        for k, op in enumerate(cls.operators):
            assert np.array_equal(op, sum(c[k, i] * projectors[i] for i in range(d)))


def test_flat_ordering_is_class_major():
    d = 4
    opset = build_set(builtin_family(d))
    coeffs = coefficient_vectors(d)
    # the first class is canonical, so its operators are the coefficient
    # vectors placed on the diagonal
    for k in range(d - 1):
        assert max_abs(opset.operators[k] - np.diag(coeffs[k])) < 1e-12


def test_first_class_eigenvalues_descend_from_coefficients():
    d = 5
    opset = build_set(builtin_family(d))
    coeffs = opset.coefficients
    for k, op in enumerate(opset.classes[0].operators):
        assert np.allclose(np.diag(op).real, coeffs[k], atol=1e-12)


def test_coefficient_container_validation():
    opset = build_set(builtin_family(3))
    for shape in ((3, 3), (2, 4), (6,)):  # wrong row count, wrong dimension, flat
        with pytest.raises(ValueError, match=r"an operator set in dimension 3 needs "
                                             r"coefficients of shape \(2, 3\), got "):
            OperatorSet(3, opset.array, opset.family, np.zeros(shape))

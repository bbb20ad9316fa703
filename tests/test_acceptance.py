"""Acceptance suite: one test per release criterion.

Each test prints one CRITERION line with its measured deviations so a
full run documents the package's quantitative guarantees in one place.
Criterion 3 compares the coupling-coefficient diagonals against an
independently tabulated set of j = 2 vectors; the k = 1..4 rows of that
tabulation are internally inconsistent (they are neither normalized to
Tr(tau^k dag tau^k) = 2j+1 nor orthogonal to each other), so the j = 2
clause fails and is expected to keep failing until the tabulation is
corrected.  The j = 1 and j = 3/2 clauses pass.
"""

import time

import numpy as np
import pytest

from mubkit.classes import (
    build_class,
    build_set,
    coefficient_vectors,
    conjugate_class,
    verify_set,
)
from mubkit.cli import EXIT_UNSUPPORTED, main
from mubkit.matcore import max_abs, root_of_unity
from mubkit.mub import (
    UnsupportedDimensionError,
    builtin_family,
    check_family,
    family_for,
    odd_prime_family,
    unitary_between,
)
from mubkit.tensors import (
    angular_momentum,
    rank3_tensor_polynomial,
    spherical_tensor,
    tensor_diagonal,
)
from mubkit.tomography import (
    probabilities,
    random_density,
    reconstruct_from_record,
    sample_shots,
)
from reference_tables import (
    J2_TABULATED_VECTORS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    alpha_d3,
)


def report(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_builtin_d3_reproduces_tabulated_operators():
    start = time.perf_counter()
    ops = build_set(builtin_family(3)).operators
    elapsed = time.perf_counter() - start
    worst = max(max_abs(got - want) for got, want in zip(ops, alpha_d3()))
    w = root_of_unity(3, 1)
    pinned = abs(ops[2][0, 1] - (-1j * w / np.sqrt(2)))
    ok = worst <= 1e-12 and pinned <= 1e-12 and elapsed < 1.0
    report(1, ok, f"worst dev {worst:.3e}, pinned entry dev {pinned:.3e}, "
                  f"runtime {elapsed:.3f}s")
    assert worst <= 1e-12
    assert pinned <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_spin_half_reduction():
    ops = build_set(builtin_family(2)).operators
    devs = [max_abs(ops[0] - PAULI_Z), max_abs(ops[1] - PAULI_X),
            max_abs(ops[2] - PAULI_Y)]
    ok = max(devs) <= 1e-12
    report(2, ok, f"deviations from (sz, sx, sy): "
                  f"{', '.join(f'{d:.3e}' for d in devs)}")
    assert max(devs) <= 1e-12


def test_criterion_03_tensor_diagonals_match_reference_vectors():
    dev_j1 = max(
        max_abs(tensor_diagonal(1.0, 1) - np.sqrt(3 / 2) * np.array([1, 0, -1])),
        max_abs(tensor_diagonal(1.0, 2) - np.array([1, -2, 1]) / np.sqrt(2)))
    dev_j32 = max(
        max_abs(tensor_diagonal(1.5, 1) - np.array([3, 1, -1, -3]) / np.sqrt(5)),
        max_abs(tensor_diagonal(1.5, 2) - np.array([1, -1, -1, 1])),
        max_abs(tensor_diagonal(1.5, 3) - np.array([1, -3, 3, -1]) / np.sqrt(5)))
    dev_j2 = max(
        max_abs(tensor_diagonal(2.0, k) - J2_TABULATED_VECTORS[k])
        for k in range(1, 5))
    ok = max(dev_j1, dev_j32, dev_j2) <= 1e-12
    report(3, ok, f"j=1 dev {dev_j1:.3e}, j=3/2 dev {dev_j32:.3e}, "
                  f"j=2 tabulated-vector dev {dev_j2:.3e}")
    assert dev_j1 <= 1e-12
    assert dev_j32 <= 1e-12
    # expected to fail: the tabulated j=2 vectors are not reproducible
    # from the coupling-coefficient definition used everywhere else
    assert dev_j2 <= 1e-12


def test_criterion_04_closed_form_cross_checks():
    jx, jy, jz = angular_momentum(1.0)
    jsq = jx @ jx + jy @ jy + jz @ jz
    dev1 = max_abs(np.sqrt(3 / 2) * jz - spherical_tensor(1.0, 1))
    dev2 = max_abs((3 * jz @ jz - jsq) / np.sqrt(2) - spherical_tensor(1.0, 2))
    # the quoted spin-3/2 cubic is evaluated under both bracket readings
    # and its mismatch is recorded here, not asserted
    tau = spherical_tensor(1.5, 3)
    gap_product = max_abs(rank3_tensor_polynomial(1.5, "product") - tau)
    gap_difference = max_abs(rank3_tensor_polynomial(1.5, "difference") - tau)
    ok = dev1 <= 1e-12 and dev2 <= 1e-12
    report(4, ok, f"Jz identity dev {dev1:.3e}, quadrupole identity dev "
                  f"{dev2:.3e}; cubic polynomial gap recorded: "
                  f"product {gap_product:.4f}, difference {gap_difference:.4f}")
    assert dev1 <= 1e-12
    assert dev2 <= 1e-12
    assert np.isfinite(gap_product) and np.isfinite(gap_difference)


def test_criterion_05_operator_counts():
    counts = {d: len(build_set(family_for(d)).operators)
              for d in (2, 3, 4, 5, 7)}
    want = {2: 3, 3: 8, 4: 15, 5: 24, 7: 48}
    ok = counts == want
    report(5, ok, f"counts {counts}")
    assert counts == want
    assert all(n == d * d - 1 for d, n in counts.items())


def test_criterion_06_mub_certification():
    worst = {}
    for d in (2, 3, 4, 5):
        rep = check_family(builtin_family(d))
        assert rep.passed, rep.to_dicts()
        worst[d] = rep.result("unbiasedness").worst_deviation
    for d in (7,):
        rep = check_family(odd_prime_family(d))
        assert rep.passed, rep.to_dicts()
        worst[d] = rep.result("unbiasedness").worst_deviation
    start = time.perf_counter()
    rep11 = check_family(odd_prime_family(11))
    elapsed = time.perf_counter() - start
    assert rep11.passed, rep11.to_dicts()
    worst[11] = rep11.result("unbiasedness").worst_deviation
    peak = max(worst.values())
    ok = peak <= 1e-12 and elapsed < 5.0
    report(6, ok, f"worst unbiasedness dev {peak:.3e}, "
                  f"d=11 runtime {elapsed:.3f}s")
    assert peak <= 1e-12
    assert elapsed < 5.0


def test_criterion_07_algebraic_property_suite():
    route_worst = 0.0
    for d in (2, 3, 4, 5, 7, 11):
        family = family_for(d)
        opset = build_set(family)
        rep = verify_set(opset)
        assert rep.passed, (d, rep.to_dicts())
        coeffs = coefficient_vectors(d)
        first = build_class(family.bases[0], coeffs)
        for basis in family.bases[1:]:
            transform = unitary_between(family.bases[0], basis)
            moved = conjugate_class(first, transform)
            direct = build_class(basis, coeffs)
            for a, b in zip(moved.operators, direct.operators):
                route_worst = max(route_worst, max_abs(a - b))
    ok = route_worst <= 1e-12
    report(7, ok, f"all checks pass for d in (2,3,4,5,7,11); "
                  f"route-equivalence worst dev {route_worst:.3e}")
    assert route_worst <= 1e-12


def test_criterion_08_exact_tomography_round_trip():
    worst = 0.0
    for d in (2, 3, 4, 5, 7):
        family = family_for(d)
        opset = build_set(family)
        for seed in range(100):
            rho = random_density(d, seed)
            record = probabilities(rho, family)
            result = reconstruct_from_record(record, opset, reference=rho)
            worst = max(worst, result.trace_distance)
    ok = worst <= 1e-10
    report(8, ok, f"worst trace distance over 500 states {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_09_shot_noise_scaling():
    start = time.perf_counter()
    family = builtin_family(3)
    opset = build_set(family)
    states = 60
    coarse, fine = [], []
    for seed in range(states):
        rho = random_density(3, seed)
        record = probabilities(rho, family)
        low = sample_shots(record, 10_000, seed=seed)
        high = sample_shots(record, 1_000_000, seed=states + seed)
        coarse.append(
            reconstruct_from_record(low, opset, reference=rho).trace_distance)
        fine.append(
            reconstruct_from_record(high, opset, reference=rho).trace_distance)
    ratio = float(np.median(coarse) / np.median(fine))
    elapsed = time.perf_counter() - start
    ok = 5.0 <= ratio <= 20.0 and elapsed < 60.0
    report(9, ok, f"median TD {np.median(coarse):.3e} -> {np.median(fine):.3e},"
                  f" ratio {ratio:.2f} over {states} states, "
                  f"runtime {elapsed:.1f}s")
    assert 5.0 <= ratio <= 20.0
    assert elapsed < 60.0


def test_criterion_10_dimension_six_refusal(capsys):
    details = []
    for constructor in (builtin_family, odd_prime_family):
        with pytest.raises(UnsupportedDimensionError) as err:
            constructor(6)
        assert err.value.dim == 6
        assert "no complete MUB family known" in str(err.value)
        details.append(constructor.__name__)
    for argv in (["mub", "--dim", "6"], ["operators", "--dim", "6"],
                 ["tomo", "--dim", "6"]):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == EXIT_UNSUPPORTED
        assert "no complete MUB family known" in out
    ok = True
    report(10, ok, f"structured refusal from {', '.join(details)} "
                   f"and the CLI entry points")
    assert ok

"""Tests for angular momentum matrices and spherical tensor operators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit import classes
from mubkit.tensors import (
    _doubled,
    angular_momentum,
    clebsch_gordan,
    rank3_tensor_polynomial,
    spherical_tensor,
    tensor_diagonal,
)
from helpers import max_abs

# frozen coupling coefficients, keyed by doubled quantum numbers
# (2j1, 2m1, 2j2, 2m2, 2j, 2m); reference values from an independent
# computer-algebra evaluation of the Racah closed form
_CG_ORACLE = {
    (1, 1, 2, 0, 1, 1): 0.5773502691896257,
    (1, -1, 2, 0, 1, -1): -0.5773502691896257,
    (2, 2, 2, 0, 2, 2): 0.7071067811865476,
    (2, 0, 2, 0, 2, 0): 0.0,
    (2, 2, 4, 0, 2, 2): 0.31622776601683794,
    (2, 0, 4, 0, 2, 0): -0.6324555320336759,
    (3, 3, 2, 0, 3, 3): 0.7745966692414834,
    (3, 1, 6, 0, 3, 1): -0.50709255283711,
    (4, 4, 8, 0, 4, 4): 0.0890870806374748,
    (4, 0, 8, 0, 4, 0): 0.5345224838248488,
    (4, 2, 4, 2, 4, 4): -0.6546536707079771,
    (4, -2, 6, 4, 4, 2): 0.0,
    (2, 2, 2, -2, 0, 0): 0.5773502691896257,
    (2, 2, 2, -2, 2, 0): 0.7071067811865476,
    (2, 2, 2, -2, 4, 0): 0.408248290463863,
    (1, 1, 1, 1, 2, 2): 1.0,
    (3, -3, 6, 2, 3, -1): -0.3380617018914066,
    (4, 4, 6, -2, 2, 2): 0.1690308509457033,
    (25, 25, 8, 0, 25, 25): 0.6794075356703324,
    (25, 1, 8, 0, 25, 1): 0.3721971717150517,
    (5, 3, 4, -2, 3, 1): -0.13801311186847084,
    (6, 4, 4, 0, 6, 4): 0.0,
}

# reference tensor diagonals; prefactor times integer pattern
_DIAGONAL_ORACLE = {
    (1.0, 1): np.sqrt(3 / 2) * np.array([1, 0, -1]),
    (1.0, 2): np.array([1, -2, 1]) / np.sqrt(2),
    (1.5, 1): np.array([3, 1, -1, -3]) / np.sqrt(5),
    (1.5, 2): np.array([1, -1, -1, 1], dtype=float),
    (1.5, 3): np.array([1, -3, 3, -1]) / np.sqrt(5),
    (2.0, 1): np.array([2, 1, 0, -1, -2]) / np.sqrt(2),
    (2.0, 2): np.sqrt(5 / 14) * np.array([2, -1, -2, -1, 2]),
    (2.0, 3): np.array([1, -2, 0, 2, -1]) / np.sqrt(2),
    (2.0, 4): np.array([1, -4, 6, -4, 1]) / np.sqrt(14),
}


@pytest.mark.parametrize("key", sorted(_CG_ORACLE))
def test_clebsch_gordan_oracle_bit_exact(key):
    tj1, tm1, tj2, tm2, tj, tm = key
    got = clebsch_gordan(tj1 / 2, tj2 / 2, tj / 2, tm1 / 2, tm2 / 2, tm / 2)
    assert got == _CG_ORACLE[key]


def test_clebsch_gordan_selection_rules():
    # projection mismatch and triangle violation give exactly zero
    assert clebsch_gordan(1, 1, 2, 1, 0, 0) == 0.0
    assert clebsch_gordan(1, 1, 3, 1, 1, 2) == 0.0
    assert clebsch_gordan(0.5, 0.5, 2, 0.5, 0.5, 1) == 0.0


def test_clebsch_gordan_invalid_arguments():
    with pytest.raises(ValueError):
        clebsch_gordan(-1, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        clebsch_gordan(1, 1, 1, 2, -1, 1)  # |m1| > j1
    with pytest.raises(ValueError):
        clebsch_gordan(1, 1, 1, 0.5, 0.5, 1)  # parity mismatch
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 1, 1, 0.3, 0, 0.3)  # not half-integer


@pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1, 0.5), (1, 1), (1.5, 1), (2, 2)])
def test_clebsch_gordan_rows_orthonormal(j1, j2):
    # sum over m1, m2 of C(.. J M) C(.. J' M') = delta_JJ' delta_MM'
    m1s = np.arange(-j1, j1 + 1)
    m2s = np.arange(-j2, j2 + 1)
    couples = []
    jtot = abs(j1 - j2)
    while jtot <= j1 + j2 + 1e-9:
        for m in np.arange(-jtot, jtot + 1):
            couples.append((jtot, m))
        jtot += 1
    for ja, ma in couples:
        for jb, mb in couples:
            total = sum(
                clebsch_gordan(j1, j2, ja, m1, m2, ma)
                * clebsch_gordan(j1, j2, jb, m1, m2, mb)
                for m1 in m1s for m2 in m2s)
            want = 1.0 if (ja == jb and ma == mb) else 0.0
            assert total == pytest.approx(want, abs=1e-12)


@st.composite
def _coupling(draw):
    """Doubled (j1, j2, J) with J in the triangle of j1 and j2, 2j1, 2j2 <= 25."""
    tj1, tj2 = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    tj = draw(st.sampled_from(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)))
    return tj1, tj2, tj


@settings(deadline=None)
@given(_coupling(), st.data())
def test_clebsch_gordan_exchange_symmetry_is_exact(coupling, data):
    # C(j1 j2 J; m1 m2 M) = (-1)^(j1+j2-J) C(j2 j1 J; m2 m1 M), bit for bit
    tj1, tj2, tj = coupling
    tm1 = data.draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    tm2 = data.draw(st.sampled_from(range(-tj2, tj2 + 1, 2)))
    tm = tm1 + tm2
    if abs(tm) > tj:
        tm = data.draw(st.sampled_from(range(-tj, tj + 1, 2)))  # a selection-rule zero
    sign = -1 if (tj1 + tj2 - tj) // 2 % 2 else 1
    got = clebsch_gordan(tj1 / 2, tj2 / 2, tj / 2, tm1 / 2, tm2 / 2, tm / 2)
    assert got == sign * clebsch_gordan(tj2 / 2, tj1 / 2, tj / 2, tm2 / 2, tm1 / 2, tm / 2)


@settings(deadline=None)
@given(_coupling(), st.data())
def test_clebsch_gordan_rows_orthonormal_over_the_whole_range(coupling, data):
    # sum over m1 of C(j1 j2 J; m1, M-m1, M) C(j1 j2 J'; m1, M-m1, M) = delta_JJ'
    tj1, tj2, tj = coupling
    tj_other = data.draw(st.sampled_from(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)))
    tm = data.draw(st.sampled_from(range(-min(tj, tj_other), min(tj, tj_other) + 1, 2)))
    total = 0.0
    for tm1 in range(-tj1, tj1 + 1, 2):
        if abs(tm - tm1) <= tj2:
            args = tj1 / 2, tj2 / 2
            ms = tm1 / 2, (tm - tm1) / 2, tm / 2
            total += clebsch_gordan(*args, tj / 2, *ms) * clebsch_gordan(*args, tj_other / 2, *ms)
    assert total == pytest.approx(1.0 if tj == tj_other else 0.0, abs=1e-12)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5, 3, 5])
def test_angular_momentum_algebra(j):
    jx, jy, jz = angular_momentum(j)
    d = int(round(2 * j + 1))
    assert jx.shape == (d, d)
    assert max_abs(jx @ jy - jy @ jx - 1j * jz) < 1e-12
    assert max_abs(jy @ jz - jz @ jy - 1j * jx) < 1e-12
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert max_abs(casimir - j * (j + 1) * np.eye(d)) < 1e-12
    # m-descending: Jz diagonal runs j, j-1, ..., -j
    assert np.allclose(np.diag(jz).real, np.arange(j, -j - 1, -1))


def test_angular_momentum_invalid():
    with pytest.raises(ValueError):
        angular_momentum(-0.5)
    with pytest.raises(ValueError):
        angular_momentum(0.7)


@pytest.mark.parametrize("key", sorted(_DIAGONAL_ORACLE))
def test_tensor_diagonal_reference_values(key):
    j, k = key
    assert max_abs(tensor_diagonal(j, k) - _DIAGONAL_ORACLE[key]) < 1e-12


@pytest.mark.parametrize("two_j", range(26))
def test_tensor_diagonal_recurrence_matches_racah_bytes(two_j):
    # the discrete-Chebyshev recurrence and the Racah sum reach the same
    # exact rational and round it the same way, so every byte agrees
    j = two_j / 2
    for k in range(two_j + 1):
        racah = np.ascontiguousarray(np.diag(spherical_tensor(j, k, 0)).real)
        assert tensor_diagonal(j, k).tobytes() == racah.tobytes(), k


@pytest.mark.parametrize("spin", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_spins_refused(spin):
    message = "must be an integer or half-integer"
    calls = [
        lambda: clebsch_gordan(spin, 1, 1, 0, 0, 0),
        lambda: clebsch_gordan(1, 1, 1, spin, 0, 0),
        lambda: angular_momentum(spin),
        lambda: spherical_tensor(spin, 1, 0),
        lambda: tensor_diagonal(spin, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("spin", ["1", True, np.bool_(True), 1 + 1e-10, 10 ** 400, None, 2.25,
                                  Fraction(7, 4)],
                         ids=["string", "bool", "numpy-bool", "near-integer", "huge", "none",
                              "quarter", "fraction-quarter"])
def test_spin_must_be_an_exact_half_integer(spin):
    # each of these used to pass as spin 1, or to overflow, instead of raising
    calls = [
        lambda: tensor_diagonal(spin, 1),
        lambda: angular_momentum(spin),
        lambda: spherical_tensor(spin, 1, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="j must be an integer or half-integer"):
            call()


def test_exact_half_integer_spin_types_accepted():
    for spin in (1.5, np.float64(1.5), np.float32(1.5), Fraction(3, 2)):
        assert np.array_equal(tensor_diagonal(spin, 2), tensor_diagonal(3 / 2, 2))
    assert np.array_equal(tensor_diagonal(Fraction(7, 2), 3), tensor_diagonal(3.5, 3))
    assert np.array_equal(tensor_diagonal(np.float32(2.5), 4), tensor_diagonal(2.5, 4))
    assert np.array_equal(angular_momentum(np.int64(2))[2], angular_momentum(2)[2])
    # the largest finite spins are exact too; tensor_diagonal(1e308, 1) would
    # build rows of length 2e308, so the doubling is checked directly
    for spin, want in ((1e308, 2 * int(1e308)), (np.float32(2.5), 5), (Fraction(7, 2), 7),
                       (np.int64(3), 6), (2 ** 1000, 2 ** 1001)):
        got = _doubled(spin)
        assert got == want and type(got) is int, spin
    with pytest.raises(ValueError, match="spin must be an integer or half-integer"):
        _doubled(10 ** 400)


_NON_INTEGER_INDICES = [
    (tensor_diagonal, (1, 1.5), "rank k"),
    (tensor_diagonal, (1, "1"), "rank k"),
    (tensor_diagonal, (1, True), "rank k"),
    (tensor_diagonal, (1, np.bool_(True)), "rank k"),
    (tensor_diagonal, (1, float("nan")), "rank k"),
    (spherical_tensor, (1, 2, 0.7), "component q"),
    (spherical_tensor, (1, 2.5, 0), "rank k"),
    (spherical_tensor, (1, 1, "0"), "component q"),
    (spherical_tensor, (1, 1, False), "component q"),
]


@pytest.mark.parametrize("func,args,name", _NON_INTEGER_INDICES,
                         ids=[f"{f.__name__}{a!r}" for f, a, _ in _NON_INTEGER_INDICES])
def test_non_integer_rank_or_component_refused(func, args, name):
    # truncating such a value would silently give a different, valid tensor
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        func(*args)


def test_tensor_diagonal_returns_a_fresh_writable_copy():
    first = tensor_diagonal(1.5, 2)
    want = first.tobytes()
    assert first.flags.writeable
    first[:] = 7.0
    again = tensor_diagonal(1.5, 2)
    assert again.tobytes() == want
    assert not np.shares_memory(first, again)


def test_kept_rows_do_not_bypass_validation():
    # True == 1 and hash(True) == hash(1): a row kept for (1, 1) must not let
    # a bool spin or rank through
    tensor_diagonal(1, 1)
    for args, name in (((True, 1), "j"), ((1, True), "rank k")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            tensor_diagonal(*args)


def test_coefficient_vectors_call_tensor_diagonal_once_per_rank(monkeypatch):
    # the benchmark's trace counts one tensors.tensor_diagonal span per rank
    calls = []

    def counted(j, k):
        calls.append((j, k))
        return tensor_diagonal(j, k)

    monkeypatch.setattr(classes, "tensor_diagonal", counted)
    classes.coefficient_vectors(3)
    assert calls == [(1.0, 1), (1.0, 2)]


def test_integral_rank_and_component_types_accepted():
    assert np.array_equal(tensor_diagonal(1, 2.0), tensor_diagonal(1, 2))
    assert np.array_equal(tensor_diagonal(1.5, np.int64(3)), tensor_diagonal(1.5, 3))
    assert np.array_equal(spherical_tensor(1, np.int32(2), -1.0), spherical_tensor(1, 2, -1))


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 7])
def test_spherical_tensor_orthonormality(two_j):
    # Tr(tau_k_q^dag tau_k'_q') = (2j+1) delta_kk' delta_qq'
    j = two_j / 2
    d = two_j + 1
    tensors = {(k, q): spherical_tensor(j, k, q)
               for k in range(min(two_j, 4) + 1) for q in range(-k, k + 1)}
    for (k1, q1), t1 in tensors.items():
        for (k2, q2), t2 in tensors.items():
            want = d if (k1, q1) == (k2, q2) else 0.0
            assert abs(np.vdot(t1, t2) - want) < 1e-11  # vdot(a, b) = Tr(a^dag b)


@pytest.mark.parametrize("two_j", range(1, 26))
def test_spherical_tensor_adjoint_symmetry(two_j):
    # tau_k_q^dag = (-1)^q tau_k_{-q}, exactly, for every spin the package reaches
    j = two_j / 2
    for k in range(two_j + 1):
        for q in range(-k, k + 1):
            t = spherical_tensor(j, k, q)
            assert np.array_equal(t.conj().T, (-1) ** q * spherical_tensor(j, k, -q)), (k, q)


@pytest.mark.parametrize("two_j", [1, 2, 3, 5])
def test_spherical_tensor_trace_and_identity(two_j):
    j = two_j / 2
    d = two_j + 1
    assert max_abs(spherical_tensor(j, 0, 0) - np.eye(d)) < 1e-15
    for k in range(1, two_j + 1):
        assert abs(np.trace(spherical_tensor(j, k, 0))) < 1e-12


def test_spherical_tensor_invalid_rank_component():
    with pytest.raises(ValueError):
        spherical_tensor(1, 3)  # k > 2j
    with pytest.raises(ValueError):
        spherical_tensor(1, -1)
    with pytest.raises(ValueError):
        spherical_tensor(1, 1, 2)  # |q| > k
    with pytest.raises(ValueError, match="spin must be nonnegative, got -1"):
        spherical_tensor(-1, 0)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5])
def test_diagonal_tensors_span_diagonals(two_j):
    # identity plus the d-1 diagonal tensors form a nonsingular system
    j = two_j / 2
    d = two_j + 1
    rows = np.vstack([tensor_diagonal(j, k) for k in range(d)])
    assert np.linalg.matrix_rank(rows) == d


# ---------------------------------------------------------------------------
# Independent construction of the q = 0 tensors from the differential route
#
#   T(k, 0) = N_kj * [ (J . grad)^k  r^k Y_k0(theta, phi) ]_{r -> J},
#
# evaluated by expanding r^k Y_k0 as a polynomial in z and r^2 = x^2+y^2+z^2
# (Legendre coefficients, kept as exact rationals) and replacing each
# monomial x^a y^b z^c by the fully symmetrized product of Jx, Jy, Jz. The
# symmetrization is what (J . grad)^k produces; dropping it is wrong because
# e.g. Sym(z r^2) maps to J^2 Jz - Jz/3, not J^2 Jz.

def _legendre_coeffs(k: int) -> dict[int, Fraction]:
    """Exact expansion r^k P_k(z/r) = sum_i c_i z^(k-2i) (r^2)^i with
    c_i = (-1)^i C(k,i) C(2k-2i,k) / 2^k; returns {k-2i: c_i}.
    """
    out: dict[int, Fraction] = {}
    for i in range(k // 2 + 1):
        c = Fraction((-1) ** i * math.comb(k, i) * math.comb(2 * k - 2 * i, k), 2 ** k)
        out[k - 2 * i] = c
    return out


def _symmetrized_words(jx: np.ndarray, jy: np.ndarray, jz: np.ndarray):
    """Return a memoized W(a,b,c): the sum of all (a+b+c)!/(a!b!c!) distinct
    operator words containing a letters Jx, b letters Jy, c letters Jz, each
    word once. Recursion splits on the leftmost letter.
    """
    d = jx.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    cache: dict[tuple[int, int, int], np.ndarray] = {(0, 0, 0): eye}

    def w(a: int, b: int, c: int) -> np.ndarray:
        if a < 0 or b < 0 or c < 0:
            return np.zeros_like(eye)
        key = (a, b, c)
        if key not in cache:
            cache[key] = (jx @ w(a - 1, b, c)) + (jy @ w(a, b - 1, c)) + (jz @ w(a, b, c - 1))
        return cache[key]

    return w


def weyl_tensor(j, k: int) -> np.ndarray:
    """T(k, 0) for a spin j and a rank 0 <= k <= 2j, taken as given, built
    through the symmetrized differential construction.

    Float cancellation between the large symmetrized-word weights bounds its
    agreement with spherical_tensor(j, k, 0). The worst deviation over all k
    was measured at 1.1e-16 for 2j = 1, 4.7e-13 for 2j = 10, 3.8e-12 for
    2j = 11 and 3.6e-5 for 2j = 25.
    """
    tj = round(2 * j)
    jx, jy, jz = angular_momentum(j)
    w = _symmetrized_words(jx, jy, jz)

    total = np.zeros_like(jz)
    for zpow, coeff in _legendre_coeffs(k).items():
        rpow = (k - zpow) // 2  # power of r^2 = x^2 + y^2 + z^2
        # expand (x^2+y^2+z^2)^rpow * z^zpow into monomials x^(2a) y^(2b) z^(2c+zpow)
        for a in range(rpow + 1):
            for b in range(rpow - a + 1):
                c = rpow - a - b
                mult = Fraction(math.factorial(rpow),
                                math.factorial(a) * math.factorial(b) * math.factorial(c))
                alpha, beta, gamma = 2 * a, 2 * b, 2 * c + zpow
                # (J.grad)^k on x^alpha y^beta z^gamma leaves alpha!beta!gamma!
                # times the sum over all letter orders, which is W
                weight = coeff * mult * (math.factorial(alpha)
                                         * math.factorial(beta) * math.factorial(gamma))
                total = total + float(weight) * w(alpha, beta, gamma)

    # N_kj * sqrt((2k+1)/4pi) with the 4pi of the harmonic normalization
    # cancelled symbolically against the one inside N_kj
    scale = (2.0 ** k / math.factorial(k)) * math.sqrt(float(Fraction(
        math.factorial(tj - k) * (tj + 1) * (2 * k + 1),
        math.factorial(tj + k + 1),
    )))
    return scale * total


@pytest.mark.parametrize("two_j,k", [
    (tj, k) for tj in range(1, 11) for k in range(tj + 1)
])
def test_weyl_route_matches_coupling_route(two_j, k):
    # the float oracle holds 1e-12 up to 2j = 10 only (see weyl_tensor)
    j = two_j / 2
    assert max_abs(weyl_tensor(j, k) - spherical_tensor(j, k)) < 1e-12


def test_weyl_tensor_spin_half_is_pauli_z():
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    assert max_abs(weyl_tensor(0.5, 1) - sz) < 1e-14


def test_rank3_polynomial_variants_recorded():
    # the two bracket readings of the quoted cubic both miss tau_3_0;
    # the frozen gaps guard against silent changes in either evaluation
    tau = spherical_tensor(1.5, 3)
    product = rank3_tensor_polynomial(1.5, "product")
    difference = rank3_tensor_polynomial(1.5, "difference")
    assert np.all(np.isfinite(product)) and np.all(np.isfinite(difference))
    assert max_abs(product - tau) == pytest.approx(2.3408836639450925, abs=1e-6)
    assert max_abs(difference - tau) == pytest.approx(0.7826237921249266, abs=1e-6)


def test_rank3_polynomial_restricted_to_spin_three_half():
    with pytest.raises(ValueError):
        rank3_tensor_polynomial(1.0)
    with pytest.raises(ValueError):
        rank3_tensor_polynomial(1.5, "other")

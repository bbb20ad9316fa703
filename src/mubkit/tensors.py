"""Angular-momentum algebra: Clebsch-Gordan coefficients, irreducible
spherical tensor operators and their T(k, 0) diagonals, plus the quoted
spin-3/2 closed-form polynomial, kept so its discrepancy can be measured.

Conventions
-----------
* Spins are integers or half-integers; internally everything is tracked as
  doubled integers so no quantum number ever touches floating point.
* Basis order is m-descending: row/column 0 is m = +j, the last is m = -j.
* Tensors follow the Condon-Shortley/Madison normalization

      <j m'| T(k, q) |j m> = sqrt(2k+1) * C(j k j; m q m'),

  so Tr(T(k,q)^dag T(k',q')) = (2j+1) delta_kk' delta_qq' and
  T(k,q)^dag = (-1)^q T(k,-q).
* Clebsch-Gordan coefficients, and through them spherical_tensor, are
  evaluated with the Racah factorial sum in exact rational arithmetic and
  rounded to float once at the end; they are accurate to a few ulp for every
  spin this package reaches (j <= 25/2).
* tensor_diagonal takes the diagonal of T(k, 0) from the integer three-term
  recurrence of the discrete Chebyshev polynomials (the Hahn polynomials with
  alpha = beta = 0, DLMF 18.19-18.22). It reaches the same exact rational as
  the Racah sum and rounds it the same way, so the two routes agree bit for
  bit; spherical_tensor(j, k, 0) is the independent check. Each (2j, k)
  runs the recurrence once; later calls copy the kept row.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction

import numpy as np

__all__ = [
    "angular_momentum",
    "clebsch_gordan",
    "rank3_tensor_polynomial",
    "spherical_tensor",
    "tensor_diagonal",
]


def _doubled(x, name: str = "spin") -> int:
    """Twice x as an int. x must be a real number of float range (not a bool
    or a string) whose double is exactly integral; anything else raises
    ValueError naming the argument."""
    try:
        real = (not isinstance(x, (bool, np.bool_)) and isinstance(x, numbers.Real)
                and math.isfinite(float(x)))
    except OverflowError:  # an int or fraction beyond float range
        real = False
    if real:
        num, den = ((x.numerator, x.denominator) if isinstance(x, numbers.Rational)
                    else float(x).as_integer_ratio())  # exact, in lowest terms
        if den in (1, 2):
            return int(num) if den == 2 else 2 * int(num)
    raise ValueError(f"{name} must be an integer or half-integer, got {x!r}")


def _integer(x, name: str) -> int:
    """x as an int. Integers and integral floats pass; bools, strings and
    fractional or non-finite numbers raise ValueError naming the argument."""
    if (isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real)
            or not (isinstance(x, numbers.Integral) or float(x).is_integer())):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _tensor_indices(j, k, q) -> tuple[int, int, int]:
    """(2j, k, q) for T(k, q) of spin j, validated: 0 <= k <= 2j, |q| <= k."""
    tj = _doubled(j, "j")
    if tj < 0:
        raise ValueError(f"spin must be nonnegative, got {j!r}")
    k = _integer(k, "rank k")
    q = _integer(q, "component q")
    if not 0 <= k <= tj:
        raise ValueError(f"rank must satisfy 0 <= k <= 2j = {tj}, got k={k}")
    if abs(q) > k:
        raise ValueError(f"component must satisfy |q| <= k = {k}, got q={q}")
    return tj, k, q


def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tj3: int, tm3: int) -> float:
    """C(j1 j2 j3; m1 m2 m3) with all arguments doubled."""
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if tj < 0:
            raise ValueError(f"negative angular momentum {tj}/2")
        if abs(tm) > tj or (tj + tm) % 2:
            raise ValueError(f"projection {tm}/2 is not a valid m for spin {tj}/2")
    if tm1 + tm2 != tm3:
        return 0.0
    if tj3 < abs(tj1 - tj2) or tj3 > tj1 + tj2 or (tj1 + tj2 + tj3) % 2:
        return 0.0

    f = math.factorial
    t1 = (tj1 + tj2 - tj3) // 2
    t2 = (tj1 - tj2 + tj3) // 2
    t3 = (-tj1 + tj2 + tj3) // 2
    norm2 = Fraction(
        (tj3 + 1) * f(t1) * f(t2) * f(t3)
        * f((tj1 + tm1) // 2) * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2)
        * f((tj3 + tm3) // 2) * f((tj3 - tm3) // 2),
        f((tj1 + tj2 + tj3) // 2 + 1),
    )
    lo = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    hi = min(t1, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for nu in range(lo, hi + 1):
        den = (f(nu) * f(t1 - nu)
               * f((tj1 - tm1) // 2 - nu) * f((tj2 + tm2) // 2 - nu)
               * f((tj3 - tj2 + tm1) // 2 + nu) * f((tj3 - tj1 - tm2) // 2 + nu))
        total += Fraction(-1 if nu % 2 else 1, den)
    if total == 0:
        return 0.0
    # norm2 * total^2 is an exact rational; one rounding at the conversion.
    mag = math.sqrt(float(norm2 * total * total))
    return mag if total > 0 else -mag


def clebsch_gordan(j1, j2, j, m1, m2, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> (Condon-Shortley).

    Returns 0.0 when m1 + m2 != m or the triangle rule fails; raises
    ValueError for quantum numbers that are not half-integers or have
    |m| > j or m inconsistent with j by a non-integer.
    """
    return _cg_doubled(_doubled(j1, "j1"), _doubled(m1, "m1"),
                       _doubled(j2, "j2"), _doubled(m2, "m2"),
                       _doubled(j, "j"), _doubled(m, "m"))


def angular_momentum(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (Jx, Jy, Jz) for spin j in the m-descending basis."""
    tj = _doubled(j, "j")
    if tj < 0:
        raise ValueError(f"spin must be nonnegative, got {j!r}")
    d = tj + 1
    m = (tj - 2.0 * np.arange(d)) / 2.0
    jz = np.diag(m).astype(np.complex128)
    jj = (tj / 2.0) * (tj / 2.0 + 1.0)
    jplus = np.zeros((d, d), dtype=np.complex128)
    # J+ |j m> = sqrt(j(j+1) - m(m+1)) |j m+1>: column m feeds the row above
    jplus[np.arange(d - 1), np.arange(1, d)] = np.sqrt(jj - m[1:] * (m[1:] + 1.0))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return jx, jy, jz


def spherical_tensor(j, k: int, q: int = 0) -> np.ndarray:
    """Irreducible spherical tensor T(k, q) for spin j as a dense matrix.

    Requires 0 <= k <= 2j (integer k) and |q| <= k.
    """
    tj, k, q = _tensor_indices(j, k, q)
    d = tj + 1
    out = np.zeros((d, d), dtype=np.complex128)
    scale = math.sqrt(2.0 * k + 1.0)
    for col in range(d):
        tm = tj - 2 * col
        tmp = tm + 2 * q
        if abs(tmp) <= tj:
            row = (tj - tmp) // 2
            out[row, col] = scale * _cg_doubled(tj, tm, 2 * k, 2 * q, tj, tmp)
    return out


def tensor_diagonal(j, k: int) -> np.ndarray:
    """Real diagonal of T(k, 0), m-descending; equal bit for bit to the
    diagonal of spherical_tensor(j, k, 0). Each call returns a fresh,
    writable array.

    With d = 2j + 1, entry x (m = j - x) is

        (-1)^k t_k(x) sqrt((2k+1) / prod_{i=1..k} (d^2 - i^2)),

    where t_k is the discrete Chebyshev polynomial on x = 0..d-1: t_0 = 1 and
    (n+1) t_{n+1} = (2n+1) u t_n - n (d^2 - n^2) t_{n-1} with u = 2x - d + 1,
    which stays in the integers (DLMF 18.22).
    """
    tj, k, _ = _tensor_indices(j, k, 0)
    return _diagonal(tj, k).copy()


# 512 rows hold every (2j, k) up to the support ceiling 2j = 25 (351 pairs)
@functools.lru_cache(maxsize=512)
def _diagonal(tj: int, k: int) -> np.ndarray:
    """tensor_diagonal for validated (2j, k), computed once per pair and read-only."""
    d = tj + 1
    u = [2 * x - tj for x in range(d)]
    t_prev, t = [0] * d, [1] * d
    norm = 1
    for n in range(k):
        c = n * (d * d - n * n)
        t_prev, t = t, [((2 * n + 1) * ux * a - c * b) // (n + 1)
                        for ux, a, b in zip(u, t, t_prev)]
        norm *= d * d - (n + 1) ** 2
    scale = math.sqrt(2.0 * k + 1.0)
    out = np.zeros(d)
    for x, v in enumerate(t):
        if v:
            # int / int is correctly rounded, as is float(Fraction(v*v, norm)),
            # the rounding the Racah route applies to the same rational
            mag = scale * math.sqrt(v * v / norm)
            out[x] = mag if (v > 0) == (k % 2 == 0) else -mag
    out.setflags(write=False)
    return out


def rank3_tensor_polynomial(j, variant: str = "product") -> np.ndarray:
    """Closed-form spin-operator polynomial quoted for the spin-3/2 rank-3
    diagonal tensor, evaluated literally.

    Two readings of the bracketed expression are implemented:

    * "product" (verbatim): (1/(3*sqrt(5))) * [4 Jz^3 - A @ B]
    * "difference":         (1/(3*sqrt(5))) * [4 Jz^3 - A - B]

    with A = Jz Jx^2 + Jx^2 Jz + Jx Jz Jx and B the same with y in place
    of x. Neither reading reproduces T(3, 0); this function exists so the
    discrepancy can be measured, not hidden. Only spin 3/2 is accepted.
    """
    if _doubled(j, "j") != 3:
        raise ValueError(f"the rank-3 closed form is specific to spin 3/2, got j={j!r}")
    if variant not in ("product", "difference"):
        raise ValueError(f"variant must be 'product' or 'difference', got {variant!r}")
    jx, jy, jz = angular_momentum(1.5)
    a = jz @ jx @ jx + jx @ jx @ jz + jx @ jz @ jx
    b = jz @ jy @ jy + jy @ jy @ jz + jy @ jz @ jy
    cube = 4.0 * (jz @ jz @ jz)
    bracket = cube - a @ b if variant == "product" else cube - a - b
    return bracket / (3.0 * math.sqrt(5.0))


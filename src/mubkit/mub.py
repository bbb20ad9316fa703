"""Construction and verification of complete mutually unbiased basis (MUB)
families.

Two orthonormal bases are mutually unbiased when every cross overlap has
|<a_i|b_j>|^2 = 1/d; a complete family in dimension d holds d+1 such bases.
Families come from two sources here:

* built-in tables for d in {2, 3, 4, 5} (the canonical basis, Fourier-type
  bases, and their twisted companions, exactly as published for those
  spins), and
* a generated quadratic-phase construction for any odd prime d, with basis
  b = 0..d-1, vector j, component k equal to w^(b k^2 + j k)/sqrt(d).

Whether a complete family exists at all is open beyond prime powers; d = 6
is the first unknown case and is conjectured to top out at three bases, so
constructors refuse it (UnsupportedDimensionError) rather than guess.

Basis convention: columns are the basis vectors; row index is m-descending
(row 0 is m = +j). Labels B1..B{d+1} with B1 the canonical basis. A family
is its labels and one (d+1, d, d) array of basis matrices, built directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    CheckResult,
    VerificationReport,
    dimension,
    frozen,
    json_int,
    json_str,
    root_of_unity,
    validate_tolerance,
)

__all__ = [
    "BUILTIN_DIMS",
    "Basis",
    "BasisTransform",
    "MubFamily",
    "UnsupportedDimensionError",
    "builtin_family",
    "canonical_basis",
    "check_family",
    "family_for",
    "fourier_basis",
    "odd_prime_family",
    "one_axis_twist",
    "unitary_between",
]

BUILTIN_DIMS = (2, 3, 4, 5)

# The exact integer recurrence underneath tensor_diagonal is comfortable far
# beyond this, but 26 (= spin 25/2) is the stated support ceiling, so larger
# requests are refused rather than silently accepted.
MAX_DIM = 26


class UnsupportedDimensionError(ValueError):
    """Requested construction does not exist (or is not known) at this dimension."""

    def __init__(self, dim: int, message: str):
        super().__init__(message)
        self.dim = dim


def _refuse(dim: int, context: str) -> UnsupportedDimensionError:
    if dim == 6:
        msg = ("no complete MUB family known for dimension 6 (at most three"
               f" mutually unbiased bases are conjectured to exist); {context}")
    else:
        msg = f"{context}: dimension {dim} is not supported"
    return UnsupportedDimensionError(dim, msg)


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis stored as the d x d matrix of column vectors.

    Orthonormality is the maintained invariant of every constructor in this
    module; it is not re-checked on plain construction so that data read
    back from disk can be run through check_family and fail there instead
    of at load time.
    """

    dim: int
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", json_int(self.dim, "dimension"))
        json_str(self.label, "basis label")
        object.__setattr__(self, "matrix", frozen(self.matrix, np.complex128, (self.dim,) * 2,
                                                  f"a basis in dimension {self.dim}", "a matrix"))

    def vector(self, i: int) -> np.ndarray:
        return self.matrix[:, i]

    def projector(self, i: int) -> np.ndarray:
        v = self.matrix[:, i]
        return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class MubFamily:
    """d+1 bases intended to be pairwise unbiased (certified by check_family).

    A family is its labels and one read-only complex array of shape
    (d+1, d, d): ``array[i]`` is the matrix of the basis ``labels[i]``, in
    family order. ``array`` may be given as any array-like of that shape.
    """

    dim: int
    labels: tuple[str, ...]
    array: np.ndarray = field(repr=False)  # shape (d+1, d, d)

    def __post_init__(self):
        d = json_int(self.dim, "dimension")
        object.__setattr__(self, "dim", d)
        if d < 2:
            raise ValueError(f"a family needs dimension at least 2, got {d}")
        labels = tuple(json_str(label, "basis label") for label in self.labels)
        if len(labels) != d + 1:
            raise ValueError(f"a complete family in dimension {d} needs "
                             f"{d + 1} bases, got {len(labels)}")
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"family repeats basis label {label}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "array", frozen(self.array, np.complex128, (d + 1, d, d),
                                                 f"a family in dimension {d}", "bases"))

    @property
    def bases(self) -> tuple[Basis, ...]:
        """Basis i as ``labels[i]`` and a read-only copy of ``array[i]``."""
        return tuple(Basis(self.dim, m, label) for m, label in zip(self.array, self.labels))


@dataclass(frozen=True, eq=False)
class BasisTransform:
    """Unitary u carrying the source basis columnwise onto the target basis."""

    dim: int
    matrix: np.ndarray
    source_label: str = ""
    target_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", json_int(self.dim, "dimension"))
        for label in (self.source_label, self.target_label):
            json_str(label, "basis label")
        object.__setattr__(self, "matrix", frozen(self.matrix, np.complex128, (self.dim,) * 2,
                                                  f"a transform in dimension {self.dim}",
                                                  "a matrix"))


# ---------------------------------------------------------------------------
# constructors

def canonical_basis(d: int) -> Basis:
    """Columns of the identity (the |j m> basis, m-descending), labelled B1."""
    d = dimension(d)
    return Basis(d, np.eye(d, dtype=np.complex128), "B1")


def fourier_basis(d: int) -> Basis:
    """Discrete Fourier basis, labelled B2: column j has components w^(jk)/sqrt(d)."""
    d = dimension(d)
    return Basis(d, _quadratic_phases(d, 0), "B2")


def _phase_matrix(d: int, exponents) -> np.ndarray:
    """w^(exponents mod d)/sqrt(n) for a (..., n, n) integer exponent grid, w = exp(2 pi i/d)."""
    powers = np.array([root_of_unity(d, p) for p in range(d)])
    exponents = np.asarray(exponents)
    return powers[exponents % d] / np.sqrt(exponents.shape[-1])


def _quadratic_phases(d: int, b) -> np.ndarray:
    """Component k of vector j is w^(b k^2 + j k)/sqrt(d), one d x d matrix per
    entry of b (a scalar or an array); b = 0 is the Fourier basis."""
    k = np.arange(d)[:, np.newaxis]
    return _phase_matrix(d, np.multiply.outer(b, k * k) + np.arange(d) * k)


def one_axis_twist(d: int, t: float) -> BasisTransform:
    """One-axis twisting unitary exp(-i Jz^2 t): diagonal phases exp(-i m^2 t)
    in the canonical basis, m = j..-j with j = (d-1)/2.
    """
    d = dimension(d)
    tj = d - 1
    m = (tj - 2.0 * np.arange(d)) / 2.0
    phases = np.exp(-1j * (m * m) * float(t))
    return BasisTransform(d, np.diag(phases).astype(np.complex128))


def odd_prime_family(d: int) -> MubFamily:
    """Complete family for odd prime d: canonical basis plus the d
    quadratic-phase bases b = 0..d-1, as one stack of matrices.
    """
    d = json_int(d, "dimension")
    if not _is_odd_prime(d):
        raise _refuse(d, "quadratic-phase construction requires an odd prime dimension")
    phases = _quadratic_phases(d, np.arange(d))
    return MubFamily(d, tuple(f"B{i + 1}" for i in range(d + 1)), [np.eye(d), *phases])


def _builtin_2() -> tuple[np.ndarray, ...]:
    s = 1.0 / np.sqrt(2.0)
    b2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) * s
    b3 = np.array([[1, 1], [1j, -1j]], dtype=np.complex128) * s
    return np.eye(2, dtype=np.complex128), b2, b3


def _builtin_3() -> tuple[np.ndarray, ...]:
    # row-major exponent grids over w = exp(2 pi i/3)
    grids = (
        ((0, 0, 0), (0, 2, 1), (0, 1, 2)),
        ((0, 0, 0), (1, 0, 2), (0, 1, 2)),
        ((0, 0, 0), (2, 1, 0), (0, 1, 2)),
    )
    return (np.eye(3, dtype=np.complex128),) + tuple(_phase_matrix(3, g) for g in grids)


def _builtin_4() -> tuple[np.ndarray, ...]:
    i = 1j
    tables = (
        ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)),
        ((1, 1, 1, 1), (i, -i, i, -i), (i, i, -i, -i), (-1, 1, 1, -1)),
        ((1, 1, 1, 1), (i, -i, i, -i), (1, 1, -1, -1), (-i, i, i, -i)),
        ((1, 1, 1, 1), (1, -1, 1, -1), (i, i, -i, -i), (-i, i, i, -i)),
    )
    out = [np.eye(4, dtype=np.complex128)]
    out += [np.array(t, dtype=np.complex128) / 2.0 for t in tables]
    return tuple(out)


def builtin_family(d: int) -> MubFamily:
    """Complete family from the built-in tables, d in {2, 3, 4, 5}."""
    d = json_int(d, "dimension")
    if d not in BUILTIN_DIMS:
        raise _refuse(d, f"built-in tables cover dimensions {BUILTIN_DIMS}")
    if d == 5:
        # the published dim-5 tables coincide exactly with the quadratic-phase construction,
        # so they are generated rather than typed out; some tabulations print the first
        # basis with a spurious 1/sqrt(5) prefactor on the identity, which cannot be right
        # for unit vectors, so B1 is the exact canonical basis here
        return odd_prime_family(5)
    mats = {2: _builtin_2, 3: _builtin_3, 4: _builtin_4}[d]()
    return MubFamily(d, tuple(f"B{i + 1}" for i in range(d + 1)), mats)


def family_for(d: int) -> MubFamily:
    """The complete family for d: the built-in tables for d in BUILTIN_DIMS,
    else the quadratic-phase family for odd prime d <= MAX_DIM.
    """
    d = json_int(d, "dimension")
    if d in BUILTIN_DIMS:
        return builtin_family(d)
    if _is_odd_prime(d) and d <= MAX_DIM:
        return odd_prime_family(d)
    raise _refuse(
        d, "operator construction needs a complete MUB family; available"
        f" sources cover dimensions {BUILTIN_DIMS} and odd primes up to {MAX_DIM}")


# ---------------------------------------------------------------------------
# checks and transforms

def check_family(f: MubFamily, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Certify a family: member count, per-basis orthonormality, pairwise
    unbiasedness. Failures are report entries, never exceptions.
    """
    tol = validate_tolerance(tol)
    n, d = len(f.labels), f.dim
    results = [CheckResult("member_count", float(abs(n - (d + 1))), n == d + 1)]
    # the blocks B_a^dag B_b of the pairs a <= b: first the n Gram matrices
    # a == b, then the overlaps of the distinct pairs a < b
    a, b = np.concatenate([np.diag_indices(n), np.triu_indices(n, 1)], axis=1)
    m = f.array
    g = m.conj().transpose(0, 2, 1)[a] @ m[b]
    worst_orth = float(np.abs(g[:n] - np.eye(d)).max())
    results.append(CheckResult("orthonormality", worst_orth, worst_orth <= tol))
    dev = np.abs(g[n:])  # one real array, taken through every step in place
    np.square(dev, out=dev)
    np.subtract(dev, 1.0 / d, out=dev)
    worst_unb = float(np.abs(dev, out=dev).max())
    results.append(CheckResult("unbiasedness", worst_unb, worst_unb <= tol))
    return VerificationReport(tuple(results))


def unitary_between(a: Basis, b: Basis) -> BasisTransform:
    """The unitary u = sum_i |b_i><a_i| mapping a's columns onto b's, in order.

    Columnwise exact (no phase freedom): u a_i = b_i.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    u = b.matrix @ a.matrix.conj().T
    return BasisTransform(a.dim, u, a.label, b.label)

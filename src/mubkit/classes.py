"""Maximally commuting operator classes built from a MUB family.

Each basis of a complete family contributes one class of d-1 commuting
Hermitian traceless operators: weight the basis projectors P_i = |b_i><b_i|
with fixed coefficient vectors, the diagonals of the rank-k tensors T(k, 0)
for k = 1..d-1 (so the class built on the canonical basis consists of the
diagonal tensors themselves, and every operator's expectation value is a
k-th moment in its own basis). Across the whole family this yields d^2 - 1
operators that are pairwise Hilbert-Schmidt orthogonal with Tr(A^dag B) =
d delta, and together with the identity they span the full operator space.

verify_set re-derives every claimed property numerically; failures come
back as report entries, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    CheckResult,
    VerificationReport,
    frozen,
    json_int,
    validate_tolerance,
)
from .mub import (MAX_DIM, Basis, BasisTransform, MubFamily, UnsupportedDimensionError,
                  check_family)
from .tensors import tensor_diagonal

__all__ = [
    "CommutingClass",
    "OperatorSet",
    "build_class",
    "build_set",
    "coefficient_vectors",
    "conjugate_class",
    "verify_set",
]

# cross-class pairs must contain at least one visibly non-commuting pair;
# in practice the witness is O(1), so the floor is generous
NONCOMMUTING_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class CommutingClass:
    """One basis's worth of operators: d-1 commuting Hermitian matrices."""

    basis_label: str
    operators: tuple[np.ndarray, ...]
    projectors: None = None  # unused: a class's projectors are its basis columns

    def __array__(self, dtype=None, copy=None):
        """The operators as one (d-1, d, d) array: a tuple of classes stacks to a set's array."""
        return np.array(self.operators, dtype=dtype)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """All d+1 classes of a family, flat view class-major.

    The operators are stored once, as the read-only complex array
    ``array[i, k]`` = operator k of class i, of shape (d+1, d-1, d, d): class i
    belongs to basis i of the family, in family order. ``array`` may be given
    as any array-like of that shape, a tuple of classes included. No array a
    set reaches is writable.
    """

    dim: int
    array: np.ndarray = field(repr=False)  # shape (d+1, d-1, d, d)
    family: MubFamily
    coefficients: np.ndarray  # shape (d-1, d), real

    def __post_init__(self):
        d = json_int(self.dim, "dimension")
        object.__setattr__(self, "dim", d)
        if self.family.dim != d:
            raise ValueError(f"family dimension {self.family.dim} does not match set dimension {d}")
        owner = f"an operator set in dimension {d}"
        object.__setattr__(self, "array", frozen(self.array, np.complex128,
                                                 (d + 1, d - 1, d, d), owner, "an array"))
        object.__setattr__(self, "coefficients", frozen(self.coefficients, np.float64,
                                                        (d - 1, d), owner, "coefficients"))

    @property
    def classes(self) -> tuple[CommutingClass, ...]:
        """Class i as basis i's label and read-only views of ``array[i]``."""
        return tuple(CommutingClass(label, tuple(ops))
                     for label, ops in zip(self.family.labels, self.array))

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(self.array.reshape(-1, self.dim, self.dim))

    def __len__(self) -> int:
        return self.array.shape[0] * self.array.shape[1]


def coefficient_vectors(d: int) -> np.ndarray:
    """Diagonals of T(k, 0), k = 1..d-1, for spin j = (d-1)/2, as the rows of
    a read-only real (d-1, d) array.

    Each vector sums to zero, they are pairwise orthogonal, and vector k has
    squared norm d.
    """
    d = json_int(d, "dimension")
    if not 2 <= d <= MAX_DIM:
        raise UnsupportedDimensionError(d, f"dimension must satisfy 2 <= d <= {MAX_DIM}, got {d}")
    j = (d - 1) / 2.0
    return frozen([tensor_diagonal(j, k) for k in range(1, d)], np.float64)


def _operators(bases: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """For a stack of n bases: the operators ops[c, k] = sum_i coeffs[k][i]
    |b_i><b_i| of basis c, summed in order i = 0..d-1 for all classes at once.
    Each step writes its projectors and weighted terms into the same two
    buffers."""
    w = coeffs.astype(np.complex128)
    n, d = bases.shape[:2]
    ops = np.zeros((n, d - 1, d, d), dtype=np.complex128)
    term = np.empty_like(ops)
    proj = np.empty((n, d, d), dtype=np.complex128)
    for i in range(d):
        col = bases[:, :, i]  # |b_i> of every basis
        np.multiply(col[:, :, np.newaxis], col.conj()[:, np.newaxis, :], out=proj)
        np.multiply(w[:, i, np.newaxis, np.newaxis], proj[:, np.newaxis], out=term)
        ops += term
    return ops


def build_class(basis: Basis) -> CommutingClass:
    """Operators A_k = sum_i c[k][i] |b_i><b_i|, c = coefficient_vectors(d); Hermitian
    and traceless by construction, commuting because they share the basis eigenvectors.
    """
    ops = _operators(basis.matrix[np.newaxis], coefficient_vectors(basis.dim))[0]
    return CommutingClass(basis.label, tuple(ops))


def build_set(family: MubFamily) -> OperatorSet:
    """One class per basis, all sharing coefficient_vectors(d); flat order is
    class-major in family order. The family must certify at DEFAULT_TOL first.
    """
    report = check_family(family)
    if not report.passed:
        worst = max(r.worst_deviation for r in report)
        raise ValueError(f"family fails MUB verification (worst deviation {worst:.3e})")
    coeffs = coefficient_vectors(family.dim)
    return OperatorSet(family.dim, _operators(family.array, coeffs), family, coeffs)


def conjugate_class(cls: CommutingClass, transform: BasisTransform) -> CommutingClass:
    """Carry a class along a basis transform: A -> u A u^dag.

    Equals build_class on the transformed basis, because the projectors of
    u|b_i> are u P_i u^dag and per-column phases cancel in the projectors.
    """
    dim = transform.dim
    if cls.operators and cls.operators[0].shape != (dim, dim):
        raise ValueError(f"dimension mismatch: class {cls.operators[0].shape} vs transform {dim}")
    u = transform.matrix
    ud = u.conj().T
    return CommutingClass(transform.target_label or cls.basis_label,
                          tuple(u @ op @ ud for op in cls.operators))


def _views(block: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive, non-overlapping views of the start of a flat scratch block."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(block[start:start + size].reshape(shape))
        start += size
    return views


def _moduli(z: np.ndarray, spent: np.ndarray) -> np.ndarray:
    """|z| entrywise, written over the start of spent: complex scratch whose
    values are no longer needed, at least as large as z, not overlapping it."""
    return np.abs(z, out=spent.reshape(-1).view(np.float64)[:z.size].reshape(z.shape))


def _commutators(ops: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of p d x d operators: diff[k, r, l, c] = [ops[k], ops[l]][r, c]
    from x[k, r, l, c] = (ops[k] @ ops[l])[r, c], one (p*d, d) @ (d, p*d) product
    of copies of ops; every array lives in block. Returns (diff, x)."""
    p, d, _ = ops.shape
    lhs, rhs, x, diff = _views(block, (p, d, d), (d, p, d), (p, d, p, d), (p, d, p, d))
    np.copyto(lhs, ops)
    np.copyto(rhs, ops.transpose(1, 0, 2))
    np.matmul(lhs.reshape(p * d, d), rhs.reshape(d, p * d), out=x.reshape(p * d, p * d))
    return np.subtract(x, x.transpose(2, 1, 0, 3), out=diff), x


def verify_set(s: OperatorSet, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Re-derive every claimed property of an operator set numerically.

    Checks: (a) Hermiticity, (b) tracelessness, (c) HS orthogonality
    Tr(A_i^dag A_j) = d delta_ij, (d) within-class commutation, (e) the
    eigen-relation A_k |b_i> = c[k][i] |b_i> against the family's bases,
    (f) a cross-class non-commutation witness per class pair, taken from the
    first operator of each class: the reported value is the smallest over
    class pairs of the largest entry of |[A_1, A'_1]|, a lower bound of the
    maximum over all operator pairs, and pass means every class pair's first
    operators visibly fail to commute, (g) completeness: identity plus the
    set spans all of operator space (Gram matrix stays d*I).

    Every set-sized product, difference and modulus is written into views of
    one scratch block that this call allocates and drops.
    """
    tol = validate_tolerance(tol)
    d = s.dim
    m = d - 1
    a = s.array
    n = a.shape[0]
    q = d * d  # entries of one operator, and rows of the Gram check (n*m + 1)
    # sized for the larger of the Gram check (three q x q arrays) and the
    # witness (two (n, d, d) copies, an (n*d, n*d) product and its difference)
    block = np.empty(max(3 * q * q, 2 * n * q * (n + 1)), dtype=np.complex128)
    results = []

    diff, spent = _views(block, a.shape, a.shape)
    np.conjugate(a.swapaxes(-1, -2), out=diff)
    dev = float(_moduli(np.subtract(a, diff, out=diff), spent).max())
    results.append(CheckResult("hermiticity", dev, dev <= tol))

    dev = float(np.abs(np.trace(a, axis1=-2, axis2=-1)).max())
    results.append(CheckResult("tracelessness", dev, dev <= tol))

    # Gram matrix of identity plus the flat operator list; the operator block
    # alone is the HS check, the whole matrix the completeness check
    full, conj, gram = _views(block, (q, q), (q, q), (q, q))
    full[0] = np.eye(d).reshape(q)
    full[1:] = a.reshape(n * m, q)
    np.matmul(np.conjugate(full, out=conj), full.T, out=gram)
    gram[np.diag_indices_from(gram)] -= d
    moduli = _moduli(gram, conj)
    dev = float(moduli[1:, 1:].max())
    results.append(CheckResult("hs_orthogonality", dev, dev <= tol))
    completeness = float(moduli.max())

    # |x - y| = |y - x|, so one maximum over each block covers every pair;
    # np.max lets a NaN in any class through
    dev = float(np.max([_moduli(*_commutators(ops, block)).max() for ops in a]))
    results.append(CheckResult("within_class_commutation", dev, dev <= tol))

    bases = s.family.array
    got, want = _views(block, (n, m * d, d), (n, m, d, d))
    np.multiply(s.coefficients[np.newaxis, :, np.newaxis, :], bases[:, np.newaxis], out=want)
    np.matmul(a.reshape(n, m * d, d), bases, out=got)
    dev = float(_moduli(np.subtract(got.reshape(want.shape), want, out=want), got).max())
    results.append(CheckResult("eigen_relation", dev, dev <= tol))

    # the commutator of the first operators of classes k and l is the block
    # [k, :, l, :] of the difference
    pairs = _moduli(*_commutators(a[:, 0], block)).max(axis=(1, 3))
    witness = float(pairs[np.triu_indices(n, 1)].min())
    results.append(CheckResult("cross_class_witness", witness,
                               witness >= NONCOMMUTING_FLOOR))

    results.append(CheckResult("completeness", completeness, completeness <= tol))

    return VerificationReport(tuple(results))

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
from .mub import MAX_DIM, Basis, BasisTransform, MubFamily, check_family
from .tensors import tensor_diagonal

__all__ = [
    "CoefficientVectors",
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
class CoefficientVectors:
    """The d-1 projector-weight vectors: row k-1 is the diagonal of T(k, 0)."""

    dim: int
    vectors: np.ndarray  # shape (d-1, d), real

    def __post_init__(self):
        object.__setattr__(self, "dim", json_int(self.dim, "dimension"))
        v = frozen(self.vectors, np.float64)
        if v.shape != (self.dim - 1, self.dim):
            raise ValueError(f"expected shape {(self.dim - 1, self.dim)}, got {v.shape}")
        object.__setattr__(self, "vectors", v)


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
    coefficients: CoefficientVectors

    def __post_init__(self):
        d = json_int(self.dim, "dimension")
        object.__setattr__(self, "dim", d)
        if self.family.dim != d:
            raise ValueError(f"family dimension {self.family.dim} does not match set dimension {d}")
        if self.coefficients.dim != d:
            raise ValueError(f"coefficient dimension {self.coefficients.dim} does not match "
                             f"set dimension {d}")
        a = frozen(self.array, np.complex128)
        if a.shape != (d + 1, d - 1, d, d):
            raise ValueError(f"an operator set in dimension {d} needs an array of shape "
                             f"{(d + 1, d - 1, d, d)}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        object.__setattr__(self, "array", a)

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


def coefficient_vectors(d: int) -> CoefficientVectors:
    """Diagonals of T(k, 0), k = 1..d-1, for spin j = (d-1)/2.

    Each vector sums to zero, they are pairwise orthogonal, and vector k has
    squared norm d.
    """
    d = json_int(d, "dimension")
    if not 2 <= d <= MAX_DIM:
        raise ValueError(f"dimension must satisfy 2 <= d <= {MAX_DIM}, got {d}")
    j = (d - 1) / 2.0
    return CoefficientVectors(d, np.array([tensor_diagonal(j, k) for k in range(1, d)]))


def _operators(bases: np.ndarray, coeffs: CoefficientVectors) -> np.ndarray:
    """For a stack of n bases: the operators ops[c, k] = sum_i coeffs[k][i]
    |b_i><b_i| of basis c, summed in order i = 0..d-1 for all classes at once."""
    w = coeffs.vectors.astype(np.complex128)
    n, d = bases.shape[:2]
    ops = np.zeros((n, d - 1, d, d), dtype=np.complex128)
    for i in range(d):
        col = bases[:, :, i]  # |b_i> of every basis
        proj = col[:, :, np.newaxis] * col.conj()[:, np.newaxis, :]
        ops += w[:, i, np.newaxis, np.newaxis] * proj[:, np.newaxis]
    return ops


def build_class(basis: Basis, coeffs: CoefficientVectors) -> CommutingClass:
    """Operators A_k = sum_i coeffs[k][i] |b_i><b_i|; Hermitian and traceless
    by construction, commuting because they share the basis eigenvectors.
    """
    if basis.dim != coeffs.dim:
        raise ValueError(f"dimension mismatch: basis {basis.dim} vs coefficients {coeffs.dim}")
    return CommutingClass(basis.label, tuple(_operators(basis.matrix[np.newaxis], coeffs)[0]))


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


def _products(ops: np.ndarray) -> np.ndarray:
    """For a stack of p d x d operators: x[k, r, l, c] = (ops[k] @ ops[l])[r, c],
    from one (p*d, d) @ (d, p*d) product, so [ops[k], ops[l]] is x - x[l, r, k, c]."""
    p, d, _ = ops.shape
    return (ops.reshape(p * d, d) @ ops.transpose(1, 0, 2).reshape(d, p * d)).reshape(p, d, p, d)


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
    """
    tol = validate_tolerance(tol)
    d = s.dim
    m = d - 1
    a = s.array
    n = a.shape[0]
    results = []

    dev = float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
    results.append(CheckResult("hermiticity", dev, dev <= tol))

    dev = float(np.abs(np.trace(a, axis1=-2, axis2=-1)).max())
    results.append(CheckResult("tracelessness", dev, dev <= tol))

    # Gram matrix of identity plus the flat operator list; the operator block
    # alone is the HS check, the whole matrix the completeness check
    full = np.concatenate([np.eye(d, dtype=np.complex128).reshape(1, -1),
                           a.reshape(n * m, d * d)])
    gram = full.conj() @ full.T
    gram[np.diag_indices_from(gram)] -= d
    dev = float(np.abs(gram[1:, 1:]).max())
    results.append(CheckResult("hs_orthogonality", dev, dev <= tol))
    completeness = float(np.abs(gram).max())

    # |x - y| = |y - x|, so one maximum over each block covers every pair;
    # np.max lets a NaN in any class through
    dev = float(np.max([np.abs(x - x.transpose(2, 1, 0, 3)).max() for x in map(_products, a)]))
    results.append(CheckResult("within_class_commutation", dev, dev <= tol))

    bases = s.family.array
    want = s.coefficients.vectors[np.newaxis, :, np.newaxis, :] * bases[:, np.newaxis]
    got = (a.reshape(n, m * d, d) @ bases).reshape(n, m, d, d)
    dev = float(np.abs(got - want).max())
    results.append(CheckResult("eigen_relation", dev, dev <= tol))

    # x[k, l] = A_k A_l for the first operators, so the commutator of each
    # class pair is one contiguous d*d block of the difference
    x = _products(a[:, 0]).transpose(0, 2, 1, 3)
    pairs = np.abs(x - x.transpose(1, 0, 2, 3)).reshape(n, n, d * d).max(axis=2)
    witness = float(pairs[np.triu_indices(n, 1)].min())
    results.append(CheckResult("cross_class_witness", witness,
                               witness >= NONCOMMUTING_FLOOR))

    results.append(CheckResult("completeness", completeness, completeness <= tol))

    return VerificationReport(tuple(results))

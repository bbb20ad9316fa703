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

import functools
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
    return frozen([tensor_diagonal(j, k) for k in range(1, d)], np.float64, (d - 1, d),
                  f"coefficient vectors in dimension {d}", "rows")


def _operators(bases: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """For a stack of n bases: the operators ops[c, k] = sum_i coeffs[k][i]
    |b_i><b_i| of basis c, summed in order i = 0..d-1 for all classes at once,
    as an (n, d-1, d, d) view.

    Step i forms the projectors of column i of every basis (a complex
    product), then weights them in real arithmetic: one real row times the
    projector stack read as float64 pairs. A real weight gives both parts
    of (c + 0j) * p up to the sign of a zero, which the zeroed accumulator
    drops, so the sum has the bytes of the complex weighted sum. Each step
    writes its projectors and weighted terms into the same two buffers."""
    n, d = bases.shape[:2]
    row = n * d * 2 * d  # the float64 entries of one projector stack
    acc = np.zeros((d - 1, row))
    term = np.empty_like(acc)
    proj = np.empty((n, d, d), dtype=np.complex128)
    flat = proj.view(np.float64).reshape(1, row)
    for i in range(d):
        col = bases[:, :, i]  # |b_i> of every basis
        np.multiply(col[:, :, np.newaxis], col.conj()[:, np.newaxis, :], out=proj)
        np.multiply(coeffs[:, i, np.newaxis], flat, out=term)
        acc += term
    return acc.view(np.complex128).reshape(d - 1, n, d, d).transpose(1, 0, 2, 3)


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
    values are no longer needed, of at least z.size / 2 entries, not
    overlapping z."""
    return np.abs(z, out=spent.reshape(-1).view(np.float64)[:z.size].reshape(z.shape))


@functools.lru_cache(maxsize=16)
def _pair_rows(p: int, d: int) -> np.ndarray:
    """Read-only row numbers of the product x of _commutators, read as the
    (p*d*p, d) rows x[k, r, l, :]: the d rows of ops[k] @ ops[l] for every
    pair k < l in np.triu_indices(p, 1) order, then those of ops[l] @ ops[k]."""
    k, l = (i[:, np.newaxis] for i in np.triu_indices(p, 1))
    r = np.arange(d)
    rows = np.concatenate([((k * d + r) * p + l).ravel(), ((l * d + r) * p + k).ravel()])
    rows.setflags(write=False)
    return rows


def _commutators(ops: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of p d x d operators: the commutators [ops[k], ops[l]] of
    every pair k < l, as a (p(p-1)/2, d, d) stack in np.triu_indices(p, 1)
    order. All products come from one (p*d, d) @ (d, p*d) product of copies
    of ops, x[k, r, l, c] = (ops[k] @ ops[l])[r, c]; the products of the pairs
    are gathered from it row by row and differenced in place. Every array
    lives in block. Returns (diff, x): x is spent once diff holds the stack."""
    p, d, _ = ops.shape
    rows = _pair_rows(p, d)
    lhs, rhs, x, pairs = _views(block, (p, d, d), (d, p, d), (p, d, p, d),
                                (2, p * (p - 1) // 2, d, d))
    np.copyto(lhs, ops)
    np.copyto(rhs, ops.transpose(1, 0, 2))
    np.matmul(lhs.reshape(p * d, d), rhs.reshape(d, p * d), out=x.reshape(p * d, p * d))
    # every row number is in range; mode="clip" lets take write straight into pairs
    np.take(x.reshape(-1, d), rows, axis=0, out=pairs.reshape(-1, d), mode="clip")
    return np.subtract(pairs[0], pairs[1], out=pairs[0]), x


def _dense_gram(a: np.ndarray) -> tuple[float, float]:
    """The largest entry of |G - d I| over the operator block and over the whole
    Gram matrix G of identity plus the flat operator list of a: the dense
    hs_orthogonality and completeness values, formed in a scratch block of
    their own."""
    n, m, d, _ = a.shape
    q = d * d  # n*m + 1 rows
    full, conj, gram = _views(np.empty(3 * q * q, dtype=np.complex128), (q, q), (q, q), (q, q))
    full[0] = np.eye(d).reshape(q)
    full[1:] = a.reshape(n * m, q)
    np.matmul(np.conjugate(full, out=conj), full.T, out=gram)
    gram[np.diag_indices_from(gram)] -= d
    moduli = _moduli(gram, conj)
    return float(moduli[1:, 1:].max()), float(moduli.max())


@np.errstate(all="ignore")  # an overflow is a failed check, never a warning or an exception
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

    (c), (d) and (g) pass on certified upper bounds of their dense values,
    derived in O(d^5) from the eigen residual R = A B - B diag(c[k]) and the
    family overlaps G = W^dag W, W = [B_1 ... B_n]. With eps_b the Frobenius
    norm of B_b^dag B_b - I, every operator lies within
    e = |R|_F sqrt(1 + eps_b) + |A|_F eps_b of B diag(c[k]) B^dag, whose HS
    products are c O c^T with O = |G|^2 entrywise. A check whose bound
    exceeds tol runs its dense definition instead and reports that value, so
    every pass flag is the dense definition's.

    Every set-sized product, difference and modulus is written into views of
    one scratch block that this call allocates and drops. The commutator
    checks visit each pair k < l once.
    """
    tol = validate_tolerance(tol)
    d = s.dim
    m = d - 1
    a = s.array
    n = a.shape[0]
    nd = n * d
    # sized for the largest of: the witness (two (n, d, d) copies, an
    # (n*d, n*d) product and the n(n-1) products of its class pairs, n(2n+1)
    # operators in all), the two set-sized arrays of the Hermiticity and
    # eigen checks, and the overlaps (W, W^dag, G and |G|^2)
    block = np.empty(n * (2 * n + 1) * d * d, dtype=np.complex128)

    diff, spent = _views(block, a.shape, a.shape)
    np.conjugate(a.swapaxes(-1, -2), out=diff)
    hermiticity = float(_moduli(np.subtract(a, diff, out=diff), spent).max())

    trace = float(np.abs(np.trace(a, axis1=-2, axis2=-1)).max())

    c = s.coefficients
    bases = s.family.array
    got, want = _views(block, (n, m * d, d), (n, m, d, d))
    np.multiply(c[np.newaxis, :, np.newaxis, :], bases[:, np.newaxis], out=want)
    np.matmul(a.reshape(n, m * d, d), bases, out=got)
    residual = _moduli(np.subtract(got.reshape(want.shape), want, out=want), got)
    eigen = float(residual.max())
    r_norm = np.sqrt(np.einsum("bkij,bkij->bk", residual, residual))
    flat = a.view(np.float64)  # real and imaginary parts side by side
    a_norm = np.sqrt(np.einsum("bkij,bkij->bk", flat, flat))

    # G[b*d + i, b'*d + j] = <b_i|b'_j>; its diagonal blocks give eps_b
    w_dag, w, g, spent = _views(block, (nd, d), (d, nd), (nd, nd), (nd * nd // 2,))
    np.conjugate(bases.transpose(0, 2, 1), out=w_dag.reshape(n, d, d))
    np.copyto(w.reshape(d, n, d), bases.transpose(1, 0, 2))
    np.matmul(w_dag, w, out=g)
    blocks = np.arange(n)
    eps = np.linalg.norm(g.reshape(n, d, n, d)[blocks, :, blocks, :] - np.eye(d), axis=(1, 2))
    overlaps = _moduli(g, spent)
    np.square(overlaps, out=overlaps)
    # c O c^T, block (b, b') = c O_bb' c^T, as two batched products over
    # the spent W, W^dag and G
    co, coc = _views(block.view(np.float64), (n, m, nd), (n, m, n, m))
    np.matmul(c, overlaps.reshape(n, d, nd), out=co)
    np.matmul(co.reshape(n, m, n, d), c.T, out=coc)
    coc.reshape(n * m, n * m)[np.diag_indices(n * m)] -= d

    # each bound adds the rounding of the dense products it stands in for:
    # a k-term complex inner product is within sqrt(2) gamma_(k+2) of the
    # sum of its terms' moduli (Higham, ch. 3), and (k + 2) ulp exceeds that
    ulp = float(np.finfo(np.float64).eps)
    e = r_norm * np.sqrt(1.0 + eps)[:, np.newaxis] + a_norm * eps[:, np.newaxis]
    e_max = float(e.max())
    a_max = float(a_norm.max())
    c_max = float(np.abs(c).max())
    hs = (float(np.abs(coc, out=coc).max()) + e_max * (2.0 * a_max + e_max)
          + (d * d + 2) * ulp * a_max * a_max)
    # [B D_k B^dag, B D_l B^dag] = B (D_k F D_l - D_l F D_k) B^dag with
    # F = B^dag B - I, and |A|_2 <= h + e_max
    h = (1.0 + float(eps.max())) * c_max
    within = 0.0 if m < 2 else (2.0 * (2.0 * e_max * h + e_max * e_max)
                                + 2.0 * float(((1.0 + eps) * eps).max()) * c_max * c_max
                                + 2.0 * (d + 2) * ulp * (h + e_max) ** 2)
    # the identity row of the dense Gram sums each diagonal in another order
    # than np.trace: the two sums lie within sqrt(2) (d - 1) ulp sum |A_ii| of
    # each other
    diagonals = float(np.abs(np.diagonal(a, axis1=-2, axis2=-1)).sum(axis=-1).max())
    completeness = max(hs, trace + 2.0 * d * ulp * diagonals)

    # a bound above tol (or NaN) falls back to the dense definition
    if not (hs <= tol and completeness <= tol):
        dense_hs, dense_completeness = _dense_gram(a)
        hs = hs if hs <= tol else dense_hs
        completeness = completeness if completeness <= tol else dense_completeness
    if not within <= tol:
        # [A_l, A_k] = -[A_k, A_l] entry for entry, so the pairs k < l cover
        # every pair; at d = 2 a class has no pair; np.max lets a NaN through
        within = float(np.max([_moduli(*_commutators(ops, block)).max(initial=0.0)
                               for ops in a]))

    # the commutators of the first operators of every class pair k < l
    witness = float(_moduli(*_commutators(a[:, 0], block)).max(axis=(1, 2)).min())

    return VerificationReport((
        CheckResult("hermiticity", hermiticity, hermiticity <= tol),
        CheckResult("tracelessness", trace, trace <= tol),
        CheckResult("hs_orthogonality", hs, hs <= tol),
        CheckResult("within_class_commutation", within, within <= tol),
        CheckResult("eigen_relation", eigen, eigen <= tol),
        CheckResult("cross_class_witness", witness, witness >= NONCOMMUTING_FLOOR),
        CheckResult("completeness", completeness, completeness <= tol),
    ))

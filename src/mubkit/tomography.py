"""State determination with the MUB operator set: expansion coefficients,
measurement probabilities, shot sampling, and reconstruction.

The two reconstruction routes are kept deliberately separate so they can
check each other:

* coefficients(rho, set) reads a_i = Tr(rho A_i) directly off the state;
* probabilities(rho, family) -> coefficients_from_probabilities(record, set)
  recovers the same numbers from the d+1 measured distributions, using only
  the set's coefficients c (a_k^(b) = sum_i c[k][i] p_i^(b)), not its operators.

Either way, rho = (1/d)(I + sum_i a_i A_i). Sampling is multinomial with
one independent PCG64 stream per basis derived from (seed, basis index), so
records are reproducible regardless of evaluation order: a sampled record
depends only on the exact probabilities, on the shot count n, and on
(seed mod 2**64, basis index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import OperatorSet
from .matcore import (_json_number, as_matrix, dimension, frozen, json_int, json_str, read_json,
                      write_json)
from .mub import MubFamily

__all__ = [
    "MeasurementRecord",
    "ReconstructionReport",
    "coefficients",
    "coefficients_from_probabilities",
    "derive_seed",
    "fidelity",
    "probabilities",
    "project_psd",
    "random_density",
    "read_record",
    "reconstruct",
    "reconstruct_from_record",
    "record_from_json",
    "record_to_json",
    "sample_shots",
    "trace_distance",
    "write_record",
]

_MASK64 = (1 << 64) - 1
_MAX_SHOTS = 2 ** 63 - 1  # numpy's multinomial takes an int64 count
_IMAG_TOL = 1e-8  # largest imaginary part coefficients() drops


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Per-basis outcome distributions; shots is None for exact records."""

    dim: int
    labels: tuple[str, ...]
    probs: np.ndarray  # shape (number of bases, d)
    shots: int | None = None

    def __post_init__(self):
        # stored as Python ints and strs under the record file's rules, so the
        # record always serialises and reads back; shot_count is the sampler's rule
        object.__setattr__(self, "dim", json_int(self.dim, "dim"))
        object.__setattr__(self, "labels", tuple(json_str(label, "basis label")
                                                 for label in self.labels))
        if self.shots is not None:
            object.__setattr__(self, "shots", shot_count(json_int(self.shots, "shots")))
        n = len(self.labels)
        p = frozen(self.probs, np.float64, (n, self.dim),
                   f"a record of {n} bases in dimension {self.dim}", "probabilities")
        if p.min() < -1e-12 or p.max() > 1 + 1e-12:
            raise ValueError("probabilities must lie in [0, 1]")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("each basis distribution must sum to 1")
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Reconstruction estimate plus scalar diagnostics."""

    estimate: np.ndarray
    trace_distance: float | None
    fidelity: float | None
    shots: int | None
    projected: bool

    def to_dict(self) -> dict:
        return {
            "trace_distance": self.trace_distance,
            "fidelity": self.fidelity,
            "shots": self.shots,
            "projected": self.projected,
        }


# ---------------------------------------------------------------------------
# expansion and reconstruction

def coefficients(rho, s: OperatorSet) -> np.ndarray:
    """a_i = Tr(rho A_i) for the flat operator list; the imaginary parts must
    vanish (Hermitian rho against Hermitian A_i): each is checked against
    _IMAG_TOL, then dropped.
    """
    rho = as_matrix(rho)
    if rho.shape != (s.dim, s.dim):
        raise ValueError(f"dimension mismatch: state {rho.shape} vs set dim {s.dim}")
    # Tr(rho A_n) = sum_ij rho[i, j] A_n[j, i]
    values = np.einsum("ij,nji->n", rho, s.array.reshape(-1, s.dim, s.dim))
    worst = float(np.abs(values.imag).max())
    if worst > _IMAG_TOL:
        raise ValueError(f"expansion coefficients have imaginary parts up to {worst:.3e}")
    return values.real.copy()


def reconstruct(coeffs, s: OperatorSet) -> np.ndarray:
    """rho = (1/d)(I + sum_i a_i A_i)."""
    a = np.asarray(coeffs, dtype=np.float64).ravel()
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    if a.size != len(s):
        raise ValueError(f"expected {len(s)} coefficients, got {a.size}")
    d = s.dim
    # one (1, n) @ (n, d*d) product, the same one tensordot(a, flat, 1) makes
    total = np.dot(a[np.newaxis], s.array.reshape(len(s), d * d)).reshape(d, d)
    return (np.eye(d) + total) / d


def probabilities(rho, family: MubFamily) -> MeasurementRecord:
    """Exact outcome distributions p_i^(b) = <b_i|rho|b_i> for every basis."""
    rho = as_matrix(rho)
    if rho.shape != (family.dim, family.dim):
        raise ValueError(f"dimension mismatch: state {rho.shape} vs family dim {family.dim}")
    m = family.array
    # row b is the diagonal of B_b^dag rho B_b
    p = (m.conj() * (rho @ m)).sum(axis=1).real
    return MeasurementRecord(family.dim, family.labels, np.clip(p, 0.0, 1.0), None)


def coefficients_from_probabilities(record: MeasurementRecord, s: OperatorSet) -> np.ndarray:
    """Recover the flat coefficient vector from measured distributions:
    class b, operator k gets sum_i c[k][i] p_i^(b), c = s.coefficients.
    Matches coefficients() exactly on exact records. The record must hold
    the set's family's bases, in order.
    """
    if record.dim != s.dim:
        raise ValueError(f"dimension mismatch: record {record.dim} vs set {s.dim}")
    if record.labels != s.family.labels:
        raise ValueError(f"record bases {list(record.labels)} do not match the family's "
                         f"bases {list(s.family.labels)} in order")
    return (record.probs @ s.coefficients.T).ravel()


# ---------------------------------------------------------------------------
# sampling and metrics

def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    # The package's one seed derivation: any integer seed, reduced mod 2**64,
    # then non-negative integer keys. The uint32 words are the ones SeedSequence
    # makes from the list [seed & mask, *key] (each int split into 32-bit
    # words, low word first, at least one), so the pool is the same.
    words = []
    for value in (json_int(seed, "seed") & _MASK64, *key):
        value = json_int(value, "seed key")
        if value < 0:  # checked first: the loop below never ends on a negative int
            raise ValueError(f"seed key must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit seed derived from a user seed and a key path."""
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


def _stream(seed: int, index: int) -> np.random.Generator:
    # one independent, platform-stable stream per (seed, basis index)
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, index)))


def shot_count(n) -> int:
    """n as an int, if it is an integer with 1 <= n <= 2**63 - 1; the one
    shot-count rule, applied before any sampling starts."""
    n = json_int(n, "shot count")
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"shot count must satisfy 1 <= n <= 2**63 - 1, got {n}")
    return n


def sample_shots(record: MeasurementRecord, n: int, seed: int) -> MeasurementRecord:
    """Replace each exact distribution by frequencies of n multinomial draws.

    Requires an exact record (shots is None) and a shot count n that passes
    shot_count; deterministic in (seed, basis index), so bases may be sampled
    in any order.
    """
    if record.shots is not None:
        raise ValueError("record is already sampled; start from an exact record")
    n = shot_count(n)
    p = np.clip(record.probs, 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    counts = np.array([_stream(seed, b).multinomial(n, row) for b, row in enumerate(p)])
    return MeasurementRecord(record.dim, record.labels, counts / float(n), n)


def random_density(d: int, seed: int) -> np.ndarray:
    """Ginibre-distributed density matrix G G^dag / Tr(G G^dag)."""
    d = dimension(d)
    rng = _stream(seed, 0)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def trace_distance(a, b) -> float:
    """(1/2) sum of singular values of a - b."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _trace_distance(a, b)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def _is_pure(rho: np.ndarray) -> bool:
    return abs(float(np.trace(rho @ rho).real) - 1.0) <= 1e-8


def _reference_state(reference, d: int) -> np.ndarray:
    """A reference as a finite d x d density matrix; a state vector becomes
    its normalized projector."""
    ref = np.asarray(reference, dtype=np.complex128)
    if ref.shape not in ((d,), (d, d)):
        raise ValueError(f"reference of shape {ref.shape} does not fit dimension {d}")
    if not np.isfinite(ref).all():
        raise ValueError("reference entries must be finite (no NaN/Inf)")
    if ref.ndim == 1:
        norm = np.vdot(ref, ref).real
        if norm <= 0.0:
            raise ValueError("reference vector has zero norm")
        ref = np.outer(ref, ref.conj()) / norm
    return ref


def fidelity(rho, reference) -> float:
    """F = <psi|rho|psi> against a pure reference (state vector or rank-1
    density matrix). Mixed references are refused; compare those by trace
    distance instead.
    """
    rho = as_matrix(rho)
    ref = _reference_state(reference, rho.shape[0])
    if not _is_pure(ref):
        raise ValueError("reference is not pure; use trace_distance for mixed states")
    return _fidelity(rho, ref)


def _fidelity(rho: np.ndarray, ref: np.ndarray) -> float:
    return float(np.trace(rho @ ref).real)


def project_psd(rho) -> np.ndarray:
    """Nearest physical state in the clip-and-renormalize sense: zero out
    negative eigenvalues, rescale to unit trace.
    """
    rho = as_matrix(rho)
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0.0:
        raise ValueError("projection collapsed to zero; input is not close to a state")
    vals = vals / vals.sum()
    return (vecs * vals) @ vecs.conj().T


def reconstruct_from_record(record: MeasurementRecord, s: OperatorSet,
                            project: bool = False,
                            reference=None) -> ReconstructionReport:
    """Full pipeline record -> coefficients -> state estimate.

    With project=True the linear estimate is clipped to the physical cone.
    If a reference state is supplied the report carries the trace distance
    to it, plus fidelity when the reference is pure.
    """
    estimate = reconstruct(coefficients_from_probabilities(record, s), s)
    if project:
        estimate = project_psd(estimate)
    td = fid = None
    if reference is not None:
        ref = _reference_state(reference, s.dim)
        td = _trace_distance(estimate, ref)
        if _is_pure(ref):
            fid = _fidelity(estimate, ref)
    return ReconstructionReport(estimate, td, fid, record.shots, bool(project))


# ---------------------------------------------------------------------------
# record JSON format: {"dim", "shots": n|null, "bases": [{"label", "p": [..]}]}

def record_to_json(record: MeasurementRecord) -> dict:
    return {
        "dim": record.dim,
        "shots": record.shots,
        "bases": [{"label": lab, "p": [float(x) for x in row]}
                  for lab, row in zip(record.labels, record.probs)],
    }


def record_from_json(obj) -> MeasurementRecord:
    """Every probability must be a JSON number, as in matrix_from_json: strings
    and bools are refused; MeasurementRecord applies the label and integer rules."""
    try:
        bases = obj["bases"]
        probs = np.array([[_json_number(x) for x in b["p"]] for b in bases])
        return MeasurementRecord(obj["dim"], tuple(b["label"] for b in bases), probs, obj["shots"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed measurement record: {exc}") from exc


def write_record(path, record: MeasurementRecord) -> None:
    write_json(path, record_to_json(record))


def read_record(path) -> MeasurementRecord:
    return record_from_json(read_json(path))

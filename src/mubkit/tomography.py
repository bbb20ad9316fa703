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
from .matcore import (_json_number, checked, coerced, dimension, fitted, frozen, json_int,
                      json_str, read_json, write_json)
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
    rho = checked(rho, np.complex128, (s.dim, s.dim), f"an operator set in dimension {s.dim}",
                  "a state", misfit="dimension mismatch: state {got} vs set dim {shape[0]}")
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
    d = family.dim
    rho = checked(rho, np.complex128, (d, d), f"a family in dimension {d}", "a state",
                  misfit="dimension mismatch: state {got} vs family dim {shape[0]}")
    m = family.array
    # row b is the diagonal of B_b^dag rho B_b
    p = (m.conj() * (rho @ m)).sum(axis=1).real
    return MeasurementRecord(family.dim, family.labels, p.clip(0.0, 1.0), None)


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

def _seed_words(seed: int, *key: int) -> np.ndarray:
    # The package's one seed derivation: any integer seed, reduced mod 2**64,
    # then non-negative integer keys. Every stream is seeded from these words.
    entropy = [json_int(seed, "seed") & _MASK64, *(json_int(k, "seed key") for k in key)]
    if min(entropy) < 0:
        raise ValueError(f"seed key must be non-negative, got {min(entropy)}")
    # the words numpy makes of this list, in one pass: each integer as
    # little-endian uint32 words, at least one
    words = b"".join([n.to_bytes(4 * max(1, (n.bit_length() + 31) // 32), "little")
                      for n in entropy])
    return np.frombuffer(words, dtype="<u4")


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(_seed_words(seed, *key))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit seed derived from a user seed and a key path."""
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


def _stream(words: np.ndarray) -> np.random.Generator:
    # one independent, platform-stable PCG64 stream per seed word array
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _basis_words(seed: int, bases: int) -> np.ndarray:
    # row b holds the words of (seed, b): the seed is checked and its words
    # built once for all bases
    head = _seed_words(seed)
    words = np.empty((bases, head.size + 1), dtype=np.uint32)
    words[:, :-1] = head
    words[:, -1] = np.arange(bases)  # a basis index below 2**32 is one word
    return words


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
    p = np.maximum(record.probs, 0.0)  # np.clip(probs, 0.0, None) without its dispatch
    p = p / p.sum(axis=1, keepdims=True)
    counts = np.array([_stream(w).multinomial(n, row)
                       for w, row in zip(_basis_words(seed, len(p)), p)])
    return MeasurementRecord(record.dim, record.labels, counts / float(n), n)


def random_density(d: int, seed: int) -> np.ndarray:
    """Ginibre-distributed density matrix G G^dag / Tr(G G^dag)."""
    d = dimension(d)
    rng = _stream(_seed_words(seed, 0))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def trace_distance(a, b) -> float:
    """(1/2) sum of singular values of a - b."""
    a = checked(a, np.complex128, ("n", "n"), "trace_distance", "a square matrix")
    b = checked(b, np.complex128, a.shape, "trace_distance", "a second matrix",
                misfit="shape mismatch: {shape} vs {got}")
    return _trace_distance(a, b)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    # on checked operands; reconstruct_from_record scores its own estimate here
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def _is_pure(rho: np.ndarray) -> bool:
    return abs(float(np.trace(rho @ rho).real) - 1.0) <= 1e-8


def _reference_state(reference, d: int) -> np.ndarray:
    """A reference as a d x d density matrix under matcore.checked's rule, converted
    once; a state vector becomes its normalized projector."""
    owner, what = f"a comparison in dimension {d}", "a reference"
    try:
        ref = coerced(reference, np.complex128, (d, d), owner, what)
    except ValueError:  # refused naming (d,) if the reference reads as a vector
        try:
            vector = np.ndim(reference) == 1
        except ValueError:  # ragged
            vector = False
        if vector:
            coerced(reference, np.complex128, (d,), owner, what)  # raises, naming (d,)
        raise
    ref = fitted(ref, (d,) if ref.ndim == 1 else (d, d), owner, what,
                 misfit="reference of shape {got} does not fit dimension {shape[0]}")
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
    rho = checked(rho, np.complex128, ("n", "n"), "fidelity", "a square matrix")
    ref = _reference_state(reference, len(rho))
    if not _is_pure(ref):
        raise ValueError("reference is not pure; use trace_distance for mixed states")
    return _fidelity(rho, ref)


def _fidelity(rho: np.ndarray, ref: np.ndarray) -> float:
    # on a checked or reconstructed state and a pure reference state
    return float(np.trace(rho @ ref).real)


def project_psd(rho) -> np.ndarray:
    """Nearest physical state in the clip-and-renormalize sense: zero out
    negative eigenvalues, rescale to unit trace.
    """
    return _project_psd(checked(rho, np.complex128, ("n", "n"), "project_psd", "a square matrix"))


def _project_psd(rho: np.ndarray) -> np.ndarray:
    # on a checked matrix; reconstruct_from_record projects its own estimate here
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    vals = np.maximum(vals, 0.0)  # np.clip(vals, 0.0, None) without its dispatch
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("projection collapsed to zero; input is not close to a state")
    vals = vals / total
    return (vecs * vals) @ vecs.conj().T


def reconstruct_from_record(record: MeasurementRecord, s: OperatorSet,
                            project: bool = False,
                            reference=None) -> ReconstructionReport:
    """Full pipeline record -> coefficients -> state estimate.

    With project=True the linear estimate is clipped to the physical cone.
    If a reference state is supplied the report carries the trace distance
    to it, plus fidelity when the reference is pure: the values trace_distance
    and fidelity give, from one check of the reference.
    """
    estimate = reconstruct(coefficients_from_probabilities(record, s), s)
    if project:
        estimate = _project_psd(estimate)
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

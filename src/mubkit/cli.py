"""Command line interface.

Subcommands
-----------
mub        build a MUB family, verify it, optionally export JSON files
operators  build the commuting-class operator set for a dimension
verify     re-run the verification suite on exported JSON files
tensors    export spherical tensor matrices for a given spin
tomo       run reconstruction trials on random states
tables     print the built-in bases and operators in symbolic form

Exit codes: 0 all checks pass, 1 a verification check fails,
2 unsupported or invalid input, 3 unreadable or malformed files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .classes import (
    OperatorSet,
    build_set,
    coefficient_vectors,
    verify_set,
)
from .matcore import (
    DEFAULT_TOL,
    VerificationReport,
    json_int,
    json_str,
    read_json,
    read_matrix,
    root_of_unity,
    validate_tolerance,
    write_json,
    write_matrix,
)
from .mub import (
    BUILTIN_DIMS,
    MAX_DIM,
    MubFamily,
    UnsupportedDimensionError,
    builtin_family,
    check_family,
    family_for,
    odd_prime_family,
)
from .tensors import spherical_tensor
from .tomography import (
    derive_seed,
    probabilities,
    random_density,
    reconstruct_from_record,
    sample_shots,
    shot_count,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNSUPPORTED = 2
EXIT_IO = 3

_FAMILY_FILE = "family.json"
_OPERATORS_FILE = "operators.json"
_REPORT_FILE = "verification_report.json"

# operator names used in the printed tables, per dimension
_TABLE_NAMES = {2: "sigma", 3: "alpha", 4: "beta", 5: "gamma"}


def _emit(payload: dict) -> None:
    # rendered whole first, so a NaN or Inf is a ValueError before any byte is written
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    _emit(payload)


def _resolve_tol(args: argparse.Namespace) -> float:
    """Tolerance precedence: --tol flag, MUBKIT_TOL env var, default."""
    if args.tol is not None:
        return validate_tolerance(args.tol)
    env = os.environ.get("MUBKIT_TOL")
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(f"MUBKIT_TOL is not a number: {env!r}")
        return validate_tolerance(value)
    return DEFAULT_TOL


# ---------------------------------------------------------------------------
# JSON export / import of families and operator sets


def _basis_filename(label: str) -> str:
    return f"basis_{label}.json"


def _write_export(out: Path, matrices: dict, manifest_file: str, manifest: dict) -> list[str]:
    """Write each named matrix, then the manifest, into out; the file names in that order."""
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in matrices.items():
        write_matrix(out / name, matrix)
    write_json(out / manifest_file, manifest)
    return [*matrices, manifest_file]


def _write_family(out: Path, family: MubFamily) -> list[str]:
    matrices = {_basis_filename(label): m for label, m in zip(family.labels, family.array)}
    manifest = {
        "dim": family.dim,
        "bases": list(family.labels),
        "convention": "m-descending",
    }
    return _write_export(out, matrices, _FAMILY_FILE, manifest)


def _write_operator_set(out: Path, opset: OperatorSet) -> list[str]:
    classes = [{"basis_label": label,
                "operators": [f"op_{label}_k{k}.json" for k in range(1, opset.dim)]}
               for label in opset.family.labels]
    matrices = dict(zip([name for c in classes for name in c["operators"]], opset.operators))
    return _write_export(out, matrices, _OPERATORS_FILE, {"dim": opset.dim, "classes": classes})


def _json_list(value, field: str) -> list:
    """value if it is a JSON array; a string or object would iterate as something else."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {type(value).__name__}")
    return value


def _read_matrices(src: Path, names: list[str], dim: int) -> list[np.ndarray]:
    """The dim x dim matrices in the named files of the export at src."""
    matrices = []
    for name in names:
        # src / name would drop src for an absolute name, and ".." climbs out of it
        if name in ("", "..") or Path(name).name != name:
            raise ValueError(f"export entry {name!r} is not a file name inside the export")
        matrix = read_matrix(src / name)
        if matrix.shape != (dim, dim):
            raise ValueError(f"{name} has shape {matrix.shape}, expected ({dim}, {dim})")
        matrices.append(matrix)
    return matrices


def _read_export(src: Path) -> tuple[MubFamily, OperatorSet | None]:
    """The family exported at src and, if src holds operators.json, its operator set; a
    fault of a file raises the KeyError, TypeError, ValueError or OSError that meets it."""
    manifest = read_json(src / _FAMILY_FILE)
    dim = json_int(manifest["dim"], "dim")
    labels = [json_str(label, "basis label") for label in _json_list(manifest["bases"], "bases")]
    matrices = _read_matrices(src, [_basis_filename(label) for label in labels], dim)
    family = MubFamily(dim, labels, matrices)
    if not (src / _OPERATORS_FILE).exists():
        return family, None
    manifest = read_json(src / _OPERATORS_FILE)
    set_dim, entries = json_int(manifest["dim"], "dim"), _json_list(manifest["classes"], "classes")
    if set_dim != dim:
        raise ValueError(f"operator manifest dimension {set_dim} does not match"
                         f" family dimension {dim}")
    coeffs = coefficient_vectors(dim)  # above MAX_DIM, refused before any operator file is read
    class_labels = [json_str(entry["basis_label"], "basis_label") for entry in entries]
    if class_labels != labels:
        raise ValueError(f"operator classes {class_labels} must name the family's bases"
                         f" {labels}, in order")
    operators = []
    for entry, label in zip(entries, labels):
        names = [json_str(n, "operator file name")
                 for n in _json_list(entry["operators"], "operators")]
        if len(names) != dim - 1:
            raise ValueError(f"class {label!r} needs {dim - 1} operators, got {len(names)}")
        operators.append(_read_matrices(src, names, dim))
    return family, OperatorSet(dim, operators, family, coeffs)


# ---------------------------------------------------------------------------
# symbolic table formatting


def _radical(mag: float) -> str | None:
    """Render a positive real as p/q, p/sqrt(q), sqrt(p)/q or sqrt(p/q)."""
    square = Fraction(mag * mag).limit_denominator(100000)
    if abs(float(square) - mag * mag) > 1e-9:
        return None
    num, den = square.numerator, square.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    num_exact, den_exact = rn * rn == num, rd * rd == den
    if num_exact and den_exact:
        return str(rn) if rd == 1 else f"{rn}/{rd}"
    if den_exact:
        return f"sqrt({num})" if rd == 1 else f"sqrt({num})/{rd}"
    if num_exact:
        return f"{rn}/sqrt({den})"
    return f"sqrt({num}/{den})"


def _phase_candidates(dim: int) -> list[tuple[complex, str]]:
    # order matters: _format_entry names a value by the first phase that makes it real
    candidates = [(1 + 0j, ""), (1j, "i")]
    for p in range(1, dim):
        name = "w" if p == 1 else f"w^{p}"
        candidates.append((root_of_unity(dim, p), name))
    for p in range(1, dim):
        name = "i*w" if p == 1 else f"i*w^{p}"
        candidates.append((1j * root_of_unity(dim, p), name))
    return candidates


def _format_entry(value: complex, dim: int) -> str:
    if abs(value) < 1e-12:
        return "0"
    for phase, name in _phase_candidates(dim):
        reduced = value / phase
        if abs(reduced.imag) > 1e-9:
            continue
        sign = "-" if reduced.real < 0 else ""
        mag = _radical(abs(reduced.real))
        if mag is None:
            continue
        if not name:
            return f"{sign}{mag}"
        if mag == "1":
            return f"{sign}{name}"
        if mag.startswith("1/"):
            return f"{sign}{name}{mag[1:]}"
        return f"{sign}{mag}*{name}"
    return f"({value.real:+.6f}{value.imag:+.6f}i)"


def _format_matrix(matrix: np.ndarray, dim: int) -> list[str]:
    cells = [[_format_entry(v, dim) for v in row] for row in np.asarray(matrix)]
    width = max(len(c) for row in cells for c in row)
    return ["  ".join(c.rjust(width) for c in row) for row in cells]


# ---------------------------------------------------------------------------
# subcommands


def _emit_report(command: str, dim: int, fields: dict, tol: float,
                 report: VerificationReport, out=None, files=None) -> int:
    """Print a check report as command, dim, the command's own fields,
    tolerance, checks and pass, then out and files for an export; the exit
    code for the report."""
    payload = {"command": command, "dim": dim, **fields, "tolerance": tol,
               "checks": report.to_dicts(), "pass": report.passed}
    if files is not None:
        payload.update(out=str(out), files=files)
    _emit(payload)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_mub(args: argparse.Namespace) -> int:
    if args.source == "builtin":
        family = builtin_family(args.dim)
    else:
        family = odd_prime_family(args.dim)
    report = check_family(family, args.tol)
    files = None if args.out is None else _write_family(Path(args.out), family)
    return _emit_report("mub", family.dim, {"source": args.source, "bases": list(family.labels)},
                        args.tol, report, args.out, files)


def cmd_operators(args: argparse.Namespace) -> int:
    family = family_for(args.dim)
    opset = build_set(family)
    report = verify_set(opset, args.tol)
    files = None
    if args.out is not None:
        out = Path(args.out)
        files = _write_operator_set(out, opset) + _write_family(out, family)
        write_json(out / _REPORT_FILE, report.to_dicts())
        files.append(_REPORT_FILE)
    fields = {"operator_count": len(opset), "classes": list(family.labels)}
    return _emit_report("operators", opset.dim, fields, args.tol, report, args.out, files)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        family, opset = _read_export(Path(getattr(args, "in")))
    except UnsupportedDimensionError:
        raise  # sound files in a dimension without coefficient vectors: exit 2, not 3
    except (KeyError, TypeError, ValueError) as exc:
        # the one place where a fault of an export file joins the OSErrors of
        # reading one, which _run answers with exit 3
        bare = isinstance(exc, (KeyError, TypeError))  # a missing field, a non-object entry
        raise OSError(f"malformed manifest: {exc!r}" if bare else str(exc)) from exc
    results = check_family(family, args.tol).results
    if opset is not None:
        results += verify_set(opset, args.tol).results
    return _emit_report("verify", family.dim, {}, args.tol, VerificationReport(results))


def _tensor_filename(k: int, q: int) -> str:
    tag = f"q{q}" if q >= 0 else f"qm{-q}"
    return f"tensor_k{k}_{tag}.json"


def cmd_tensors(args: argparse.Namespace) -> int:
    if not 1 <= args.two_j <= MAX_DIM - 1:
        raise ValueError(f"--two-j must satisfy 1 <= 2j <= {MAX_DIM - 1}, got {args.two_j}")
    j = args.two_j / 2
    if args.k is not None:
        ranks = [args.k]
    elif args.q is not None:
        ranks = range(abs(args.q), args.two_j + 1)  # every rank with a component q
    else:
        ranks = range(args.two_j + 1)
    # build (and so validate) every matrix before the directory is created
    matrices = {(k, q): spherical_tensor(j, k, q) for k in ranks
                for q in (range(-k, k + 1) if args.q is None else [args.q])}
    if not matrices:
        given = " ".join(f"--{n} {v}" for n, v in (("k", args.k), ("q", args.q)) if v is not None)
        raise ValueError(f"no component T(k, q) with |q| <= k <= 2j = {args.two_j} matches {given}")
    entries = [{"k": k, "q": q, "file": _tensor_filename(k, q)} for k, q in matrices]
    files = _write_export(Path(args.out), {e["file"]: m for e, m in zip(entries, matrices.values())},
                          "tensors.json", {"two_j": args.two_j, "entries": entries})
    _emit({
        "command": "tensors",
        "two_j": args.two_j,
        "out": str(args.out),
        "files": files,
    })
    return EXIT_PASS


def cmd_tomo(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    if args.shots == "exact":
        shots = None
    else:
        try:
            shots = int(args.shots)
        except ValueError:
            raise ValueError(f"--shots must be an integer or 'exact': {args.shots!r}")
        shots = shot_count(shots)  # checked here, so --trials 0 refuses what a trial would
    family = family_for(args.dim)
    opset = build_set(family)
    results = []
    for trial in range(args.trials):
        rho = random_density(args.dim, derive_seed(args.seed, trial, 0))
        record = probabilities(rho, family)
        if shots is not None:
            record = sample_shots(record, shots, derive_seed(args.seed, trial, 1))
        report = reconstruct_from_record(
            record, opset, project=args.project, reference=rho)
        entry = report.to_dict()
        entry["trial"] = trial
        del entry["fidelity"]  # reference states are mixed
        results.append(entry)
    distances = [r["trace_distance"] for r in results]
    aggregate = None
    if distances:
        aggregate = {
            "count": len(distances),
            "mean_trace_distance": float(np.mean(distances)),
            "median_trace_distance": float(np.median(distances)),
            "max_trace_distance": float(np.max(distances)),
        }
    _emit({
        "command": "tomo",
        "dim": args.dim,
        "seed": args.seed,
        "shots": shots,
        "trials": args.trials,
        "projected": bool(args.project),
        "results": results,
        "aggregate": aggregate,
    })
    return EXIT_PASS


def cmd_tables(args: argparse.Namespace) -> int:
    write = sys.stdout.write
    for dim in BUILTIN_DIMS:
        family = builtin_family(dim)
        opset = build_set(family)
        write(f"== dimension {dim} ==\n")
        if dim > 2:
            write(f"(w = exp(2*pi*i/{dim}))\n")
        for label, matrix in zip(family.labels, family.array):
            write(f"\nbasis {label} (columns are basis vectors):\n")
            for line in _format_matrix(matrix, dim):
                write(f"  {line}\n")
        prefix = _TABLE_NAMES[dim]
        for k, op in enumerate(opset.operators, start=1):
            write(f"\n{prefix}_{k}:\n")
            for line in _format_matrix(op, dim):
                write(f"  {line}\n")
        write("\n")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="mutually unbiased bases and commuting operator classes")
    parser.add_argument(
        "--tol", type=float, default=None,
        help="verification tolerance (default: MUBKIT_TOL env var or 1e-10)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser("mub", help="build and verify a MUB family")
    p_mub.add_argument("--dim", type=int, required=True)
    p_mub.add_argument("--source", choices=("builtin", "generated"),
                       default="builtin",
                       help="built-in tables (d = 2..5) or the quadratic-phase"
                            " construction (odd prime d)")
    p_mub.add_argument("--out", default=None, help="directory for JSON export")
    p_mub.set_defaults(func=cmd_mub)

    p_ops = sub.add_parser("operators", help="build the commuting-class operator set")
    p_ops.add_argument("--dim", type=int, required=True)
    p_ops.add_argument("--out", default=None, help="directory for JSON export")
    p_ops.set_defaults(func=cmd_operators)

    p_ver = sub.add_parser("verify", help="verify exported JSON files")
    p_ver.add_argument("--in", required=True, help="directory holding the export")
    p_ver.set_defaults(func=cmd_verify)

    p_ten = sub.add_parser("tensors", help="export spherical tensor matrices")
    p_ten.add_argument("--two-j", type=int, required=True, dest="two_j",
                       help="twice the spin (integer)")
    p_ten.add_argument("--k", type=int, default=None, help="single rank to export")
    p_ten.add_argument("--q", type=int, default=None,
                       help="single component to export")
    p_ten.add_argument("--out", required=True, help="directory for JSON export")
    p_ten.set_defaults(func=cmd_tensors)

    p_tomo = sub.add_parser("tomo", help="reconstruction trials on random states")
    p_tomo.add_argument("--dim", type=int, required=True)
    p_tomo.add_argument("--seed", type=int, default=0)
    p_tomo.add_argument("--shots", default="exact",
                        help="shots per basis, or 'exact' for noiseless records")
    p_tomo.add_argument("--trials", type=int, default=10)
    p_tomo.add_argument("--project", action="store_true",
                        help="project estimates onto the physical state space")
    p_tomo.set_defaults(func=cmd_tomo)

    p_tab = sub.add_parser("tables", help="print built-in bases and operators")
    p_tab.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone: write nothing more to stdout, not even at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return code


def _run(args: argparse.Namespace) -> int:
    """args.func(args) with args.tol resolved; each refusal is printed as an error payload
    and mapped to its exit code."""
    try:
        args.tol = _resolve_tol(args)
        return args.func(args)
    except UnsupportedDimensionError as exc:
        _emit_error("unsupported", str(exc), dim=exc.dim)
        return EXIT_UNSUPPORTED
    except BrokenPipeError:
        raise  # an OSError of stdout itself, handled by main
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_IO
    except ValueError as exc:
        _emit_error("invalid", str(exc))
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    raise SystemExit(main())

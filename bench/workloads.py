"""The benchmark's workloads: set-up, one op, and that op's output check.

Ops call mubkit's public API only. The benchmark derives every input (the
dimension, and the per-op state and shot seeds from the run seed and the op
index) and hands it in. Functions are looked up on their modules at call
time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

# pin the BLAS and OpenMP pools before numpy is first imported; child
# processes inherit the environment
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

D = 11                 # largest d at which the paper verifies full families
SHOTS = 1000           # shots per basis in tomo-stream
# the checks verify_set runs, in its order
VERIFY_CHECKS = ("hermiticity", "tracelessness", "hs_orthogonality",
                 "within_class_commutation", "eigen_relation",
                 "cross_class_witness", "completeness")
QUALITY_OPS = 1000     # recon_td.mean is taken over the first this-many ops
# clip-and-renormalise gives about 0.135 at d = 11 and 1000 shots; a mean
# above this limit is a worse estimator and makes the run incorrect
RECON_TD_LIMIT = 0.15
STATE_TOL = 1e-9       # Hermiticity and unit trace of an estimate
CLI_TIMEOUT_S = 120


def load_mubkit(*modules: str) -> list:
    """Import mubkit submodules from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = [importlib.import_module(f"mubkit.{m}") for m in modules]
    where = Path(sys.modules["mubkit"].__file__).resolve().parent
    if where != SRC / "mubkit":
        raise RuntimeError(f"mubkit imported from {where}, not from {SRC}")
    return mods


def op_seed(run_seed: int, index: int, stream: int) -> int:
    """Input seed of one op: distinct for every (run seed below 2**30, op
    index, stream), and within the 64 bits mubkit keeps of a seed.
    """
    return ((run_seed % 2 ** 30) << 33) | (index << 1) | stream


class _Library:
    """An in-process workload; set-up is the import, the reused objects and
    the warm-up ops.
    """

    min_ops = 1
    setups = 5             # set-ups per timed run; setup_s is their median
    warmup = 0

    def __init__(self, seed: int, d: int = D):
        self.seed, self.d = seed, d

    def setup(self) -> None:
        self.mub, self.classes, self.tomo = load_mubkit("mub", "classes", "tomography")
        self.build()
        for i in range(self.warmup):
            self.op(i)

    def build(self) -> None:
        pass


class Certify(_Library):
    """odd_prime_family(d) -> build_set -> verify_set, fresh every op."""

    name = "certify-d11"
    warmup = 2

    def op(self, i: int, tracer=None):
        s = self.classes.build_set(self.mub.odd_prime_family(self.d))
        return s, self.classes.verify_set(s)

    def check(self, out) -> bool:
        s, report = out
        return (report.passed
                and tuple(r.check for r in report.results) == VERIFY_CHECKS
                and len(s) == self.d * self.d - 1)


class TomoStream(_Library):
    """One random state per op: probabilities -> 1000 shots -> reconstruction."""

    name = "tomo-stream-d11"
    min_ops = QUALITY_OPS
    warmup = 20

    def __init__(self, seed: int, d: int = D):
        super().__init__(seed, d)
        self.distances: list[float] = []

    def build(self) -> None:
        self.family = self.mub.odd_prime_family(self.d)
        self.opset = self.classes.build_set(self.family)

    def op(self, i: int, tracer=None):
        t = self.tomo
        rho = t.random_density(self.d, op_seed(self.seed, i, 0))
        record = t.sample_shots(t.probabilities(rho, self.family), SHOTS,
                                op_seed(self.seed, i, 1))
        return t.reconstruct_from_record(record, self.opset, project=True, reference=rho)

    def check(self, report) -> bool:
        est, td = report.estimate, report.trace_distance
        ok = (bool(np.isfinite(est).all())
              and float(np.abs(est - est.conj().T).max()) <= STATE_TOL
              and abs(complex(np.trace(est)) - 1.0) <= STATE_TOL
              and td is not None and math.isfinite(td))
        if ok and len(self.distances) < QUALITY_OPS:
            self.distances.append(td)
        return ok

    def quality(self) -> float:
        """Mean trace distance over the first QUALITY_OPS checked ops."""
        return sum(self.distances) / len(self.distances)


class CliRoundTrip:
    """Two cold processes per op: ``operators --out`` then ``verify --in``."""

    name = "cli-roundtrip-d11"
    min_ops = 1
    setups = 3             # each set-up is a whole round trip

    def __init__(self, seed: int, workdir: Path, env: dict, d: int = D):
        self.seed, self.workdir, self.env, self.d = seed, Path(workdir), env, d
        self.export_bytes: list[int] = []

    def setup(self) -> None:
        pass

    def _run(self, argv: list, cwd: Path, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "mubkit.cli", *argv]
            return subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        spans = cwd / f"spans-{argv[0]}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *argv]
        with tracer.span("cli.process") as idx:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        tracer.spans[idx][5] = proc.returncode != 0
        tracer.adopt(json.loads(spans.read_text()), idx)
        return proc

    def op(self, i: int, tracer=None):
        # relative paths keep the payloads identical from run to run
        cwd = self.workdir / f"op{i}"
        cwd.mkdir()
        written = self._run(["operators", "--dim", str(self.d), "--out", "export"],
                            cwd, tracer)
        read = self._run(["verify", "--in", "export"], cwd, tracer)
        return cwd, written, read

    def check(self, out) -> bool:
        """Both processes passed, the export holds one file per operator, and
        ``verify`` re-ran verify_set on the set it read back (without
        ``operators.json`` it checks the family only and still passes).
        """
        cwd, written, read = out
        try:
            exported, verified = json.loads(written.stdout), json.loads(read.stdout)
            sizes = {f.name: f.stat().st_size for f in (cwd / "export").iterdir()}
        except (json.JSONDecodeError, OSError):
            return False
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        n_ops = self.d * self.d - 1
        ok = (written.returncode == 0 and read.returncode == 0
              and exported.get("pass") is True and verified.get("pass") is True
              and exported.get("operator_count") == n_ops
              and sum(name.startswith("op_") for name in sizes) == n_ops
              and set(VERIFY_CHECKS) <= {c.get("check") for c in verified.get("checks", ())})
        if ok:
            self.export_bytes.append(sum(sizes.values()))
        return ok


WORKLOADS = {w.name: w for w in (Certify, TomoStream, CliRoundTrip)}

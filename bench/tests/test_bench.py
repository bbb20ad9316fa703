"""Tests of the benchmark itself: output checks, seeding, tracing, output format.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Certify, CliRoundTrip, TomoStream, load_mubkit  # noqa: E402

classes, tomography = load_mubkit("classes", "tomography")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class _Scripted:
    """A workload whose ops follow a script: 'ok', 'bad' output or 'raise'."""

    min_ops = 1

    def __init__(self, script):
        self.script = script

    def op(self, i, tracer=None):
        if self.script[i % len(self.script)] == "raise":
            raise FloatingPointError("op blew up")
        return self.script[i % len(self.script)]

    def check(self, out):
        return out == "ok"


def test_loop_counts_raising_and_wrong_ops_as_failures():
    wl = _Scripted(["ok", "raise", "bad", "ok"])
    plain, traced, failed, attempted, _wall = run.timed_loop(wl, 0.0)
    assert (attempted, failed) == (1, 0)
    wl.min_ops = 8
    plain, traced, failed, attempted, _wall = run.timed_loop(wl, 0.0)
    assert (attempted, failed, len(plain), traced) == (8, 4, 8, [])


def test_perturbed_operator_fails_certify_check():
    wl = Certify(seed=0, d=5)
    wl.setup()
    s, report = wl.op(0)
    assert wl.check((s, report))
    first = s.classes[0]
    bumped = first.operators[0].copy()
    bumped[0, 1] += 1e-6
    bad_class = classes.CommutingClass(first.basis_label,
                                       (bumped,) + first.operators[1:], first.projectors)
    bad = classes.OperatorSet(s.dim, (bad_class,) + s.classes[1:], s.family, s.coefficients)
    assert not wl.check((bad, classes.verify_set(bad)))
    wl.op = lambda i, tracer=None: (bad, classes.verify_set(bad))
    assert run.timed_loop(wl, 0.0)[2] == 1


def test_nan_record_fails_tomography_op_or_check():
    wl = TomoStream(seed=3, d=5)
    wl.setup()
    assert wl.check(wl.op(0))
    rho = tomography.random_density(5, 1)
    probs = np.array(tomography.probabilities(rho, wl.family).probs)
    probs[2, 0] = np.nan
    wl.op = lambda i, tracer=None: tomography.reconstruct_from_record(
        tomography.MeasurementRecord(5, wl.family.labels, probs, 1000),
        wl.opset, project=True, reference=rho)
    wl.min_ops = 1
    assert run.timed_loop(wl, 0.0)[2:4] == (1, 1)


def test_tomo_quality_depends_only_on_seed():
    def quality(seed):
        wl = TomoStream(seed=seed, d=5)
        wl.setup()
        wl.distances.clear()
        for i in range(50):
            assert wl.check(wl.op(i))
        return wl.quality()

    assert quality(11) == quality(11)
    assert quality(11) != quality(12)


def test_corrupted_export_fails_cli_check_and_payloads_repeat(tmp_path):
    env = dict(run.os.environ, PYTHONPATH=str(ROOT / "src"))
    wl = CliRoundTrip(seed=0, workdir=tmp_path, env=env, d=5)
    first, second = wl.op(0), wl.op(1)
    assert [p.stdout for p in first[1:]] == [p.stdout for p in second[1:]]
    assert wl.check(first)

    cwd = second[0]
    op_file = cwd / "export" / "op_B2_k1.json"
    matrix = json.loads(op_file.read_text())
    matrix["data"][0][1]["re"] += 1e-6
    op_file.write_text(json.dumps(matrix))
    read = wl._run(["verify", "--in", "export"], cwd, None)
    assert read.returncode == 1
    assert not wl.check((cwd, second[1], read))


def test_cli_check_needs_the_operator_set_read_back(tmp_path):
    env = dict(run.os.environ, PYTHONPATH=str(ROOT / "src"))
    wl = CliRoundTrip(seed=0, workdir=tmp_path, env=env, d=5)

    # without operators.json, verify checks the family only and still passes
    cwd, written, _read = wl.op(0)
    (cwd / "export" / "operators.json").unlink()
    read = wl._run(["verify", "--in", "export"], cwd, None)
    assert read.returncode == 0 and json.loads(read.stdout)["pass"] is True
    assert not wl.check((cwd, written, read))

    # an operator file missing from the export
    cwd, written, read = wl.op(1)
    (cwd / "export" / "op_B2_k1.json").unlink()
    assert not wl.check((cwd, written, read))
    assert wl.export_bytes == []

    assert wl.check(wl.op(2))
    assert len(wl.export_bytes) == 1


def test_self_times_subtract_direct_children():
    t = tracing.Tracer()
    outer = t.record("classes.build_set", 0, 100)
    inner = t.record("classes.coefficient_vectors", 10, 50, outer)
    t.record("tensors.tensor_diagonal", 20, 30, inner)
    t.record("mub.check_family", 60, 90, outer)
    assert tracing.self_times(t.spans) == [30, 30, 10, 30]
    m = tracing.per_layer_metrics(t)
    assert m["classes.self_ms"] == pytest.approx(60e-6)
    assert m["tensors.self_ms"] == pytest.approx(10e-6)
    assert m["classes.build_set.ms"] == pytest.approx(100e-6)


def test_tracer_spans_layer_boundaries_and_restores_bindings():
    wl = Certify(seed=0, d=3)
    wl.setup()
    before = classes.build_set, classes.tensor_diagonal
    t = tracing.Tracer()
    t.install()
    try:
        assert wl.check(wl.op(0))
    finally:
        t.uninstall()
    assert (classes.build_set, classes.tensor_diagonal) == before
    names = [s[0] for s in t.spans]
    assert names.count("tensors.tensor_diagonal") == 2
    assert {"mub.odd_prime_family", "mub.check_family", "classes.build_set",
            "classes.coefficient_vectors", "classes.verify_set"} <= set(names)


@pytest.mark.parametrize("workload", ["certify-d11", "tomo-stream-d11", "cli-roundtrip-d11"])
@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_matches_benchmark_json(tmp_path, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer" if trace else "end_to_end"]
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    if trace:
        spans_file = ROOT / ".bench-spans" / f"{workload}-seed2.jsonl"
        spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
        assert spans and set(spans[0]) == {"name", "start_ns", "end_ns", "parent",
                                           "op", "failed"}
        assert all(s["end_ns"] >= s["start_ns"] for s in spans)


def test_recon_td_mean_repeats_for_a_seed():
    def recon_td(seed):
        proc = _bench("--workload", "tomo-stream-d11", "--seed", str(seed),
                      "--seconds", "0.1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return metrics["tomography.recon_td.mean"]["value"]

    first = recon_td(5)
    assert first == recon_td(5)
    assert first != recon_td(6)
    assert 0.1 < first < 0.15


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "certify-d11", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

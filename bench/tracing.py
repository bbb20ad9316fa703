"""In-memory spans at mubkit's layer boundaries, and the per-layer metrics
derived from them.

A span records name, start, end, parent span and op id; spans stay in
memory until the run ends and ``Tracer.write`` puts them in a file. Spans are placed by
rebinding, for the length of a traced op, the public functions in
``TRACED`` wherever another mubkit module (or the package namespace) imports
them; mubkit's source is untouched. A span's layer is the part of its name
before the first dot, which is the module name under ``src/mubkit``.

Stdlib only, so a cold CLI child can import it without moving its
numpy-import measurement.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

# the layer boundaries the benchmark times; every name is "<module>.<function>"
TRACED = (
    "mub.odd_prime_family",
    "mub.check_family",
    "tensors.tensor_diagonal",
    "classes.coefficient_vectors",
    "classes.build_set",
    "classes.verify_set",
    "tomography.random_density",
    "tomography.probabilities",
    "tomography.sample_shots",
    "tomography.reconstruct_from_record",
    "matcore.matrix_to_json",
    "matcore.matrix_from_json",
)
LIBRARY_LAYERS = ("mub", "tensors", "classes", "tomography", "matcore")
LAYERS = LIBRARY_LAYERS + ("cli",)
# stages of one cold CLI process, recorded by cli_child.py
CLI_STAGES = ("numpy_import", "import", "operators", "verify")


class Tracer:
    """Collects spans; ``install``/``uninstall`` switch the wrappers on and off."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index or None, op id, failed]
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []
        self._sites: list[tuple] | None = None

    def record(self, name: str, start_ns: int, end_ns: int, parent=None,
               failed: bool = False) -> int:
        self.spans.append([name, start_ns, end_ns, parent, self.op, failed])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = self.record(name, time.perf_counter_ns(), None, parent)
        self._open.append(idx)
        try:
            yield idx
        except BaseException:
            self.spans[idx][5] = True
            raise
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._open.pop()

    def adopt(self, records: list, parent: int) -> None:
        """Append spans written by a child process under the span ``parent``."""
        base = len(self.spans)
        for name, start, end, child_parent, failed in records:
            self.record(name, start, end,
                        parent if child_parent is None else base + child_parent, failed)

    def export(self) -> list:
        """Spans as JSON-ready rows for ``adopt`` in the parent process."""
        return [[s[0], s[1], s[2], s[3], s[5]] for s in self.spans]

    def write(self, path) -> None:
        """Every span as one JSON line; ``parent`` is a line index or null."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        if self._sites is None:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "mubkit" or n.startswith("mubkit.")]
            self._sites = []
            for qual in TRACED:
                layer, fname = qual.split(".")
                fn = getattr(sys.modules.get(f"mubkit.{layer}"), fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(qual, fn)
                self._sites += [(m, fname, fn, wrapper) for m in modules
                                if getattr(m, fname, None) is fn]
        for mod, fname, _fn, wrapper in self._sites:
            setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, fn, _wrapper in self._sites or ():
            setattr(mod, fname, fn)


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part its direct children cover (ns)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics in ms as medians over traced ops, and each layer's
    failed spans; every name is present, 0 where the workload never enters
    that layer.
    """
    selfs = self_times(tracer.spans)
    ops: dict[int, dict] = {}
    failed = dict.fromkeys(LAYERS, 0)
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _parent, op, bad = span
        layer = name.split(".")[0]
        failed[layer] += bool(bad)
        row = ops.setdefault(op, {})
        for key, value in ((f"{name}.ms", (end - start) / 1e6),
                           (f"{layer}.self_ms", own / 1e6)):
            row[key] = row.get(key, 0) + value
    for row in ops.values():
        # what is left of the CLI processes once imports and library layers
        # are taken out: interpreter start and exit, argparse, file I/O, json
        if "cli.self_ms" in row:
            row["cli.self_ms"] -= (row.get("cli.numpy_import.ms", 0)
                                   + row.get("cli.import.ms", 0))

    def median(key):
        return statistics.median(r.get(key, 0) for r in ops.values()) if ops else 0.0

    out = {f"{q}.ms": median(f"{q}.ms") for q in TRACED}
    for stage in CLI_STAGES:
        out[f"cli.{stage}_ms"] = median(f"cli.{stage}.ms")
    out["cli.self_ms"] = median("cli.self_ms")
    for layer in LIBRARY_LAYERS:
        out[f"{layer}.self_ms"] = median(f"{layer}.self_ms")
    for layer in LAYERS:
        out[f"{layer}.failed"] = failed[layer]
    return out

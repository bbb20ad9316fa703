"""Stage-by-d table: one traced certify op and one traced tomography op at
each d, after one untraced warm-up. Run once, outside the timed runs.

    python3 bench/sweep.py

Prints milliseconds per stage (rows) and d (columns), then the same numbers
and the environment as one JSON object on the last line.
"""

import json

from run import environment
from tracing import TRACED, Tracer
from workloads import Certify, TomoStream

DIMS = (3, 5, 7, 11, 13, 17, 19, 23)
SEED = 0


def traced_op(wl) -> dict:
    """Milliseconds per traced stage for one op of a set-up workload."""
    tracer = Tracer()
    tracer.install()
    try:
        out = wl.op(0)
    finally:
        tracer.uninstall()
    if not wl.check(out):
        raise RuntimeError(f"{wl.name} op at d = {wl.d} failed its output check")
    stages: dict[str, float] = {}
    for name, start, end, *_ in tracer.spans:
        stages[name] = stages.get(name, 0.0) + (end - start) / 1e6
    return stages


def main() -> int:
    table = {}
    for d in DIMS:
        stages = {}
        for cls in (Certify, TomoStream):
            wl = cls(SEED, d)
            wl.warmup = 1
            wl.setup()
            stages.update(traced_op(wl))
        table[d] = stages
    rows = [q for q in TRACED if any(q in stages for stages in table.values())]
    print(f"{'stage (ms)':36s}" + "".join(f"{f'd={d}':>10s}" for d in DIMS))
    for q in rows:
        print(f"{q:36s}" + "".join(f"{table[d].get(q, 0.0):10.3f}" for d in DIMS))
    print(json.dumps({"environment": environment(), "unit": "ms", "dims": list(DIMS),
                      "stages": {q: [table[d].get(q, 0.0) for d in DIMS] for q in rows}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

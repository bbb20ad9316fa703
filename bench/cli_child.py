"""One cold ``mubkit`` CLI process with its stages traced.

    python cli_child.py SPANS_JSON <mubkit arguments...>

Times the numpy import and the rest of the ``mubkit.cli`` import, then runs
``mubkit.cli.main`` with layer spans on, writes the spans to SPANS_JSON and
exits with the command's exit code.
"""

import time

_t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401  (timed on its own: the floor of every CLI call)

_t1 = time.perf_counter_ns()
import mubkit.cli  # noqa: E402

_t2 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.numpy_import", _t0, _t1)
    tracer.record("cli.import", _t1, _t2)
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = mubkit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one mfbm CLI command with the benchmark's span wrappers installed.

    python3 perfbench/cli_child.py SPAWN_MONOTONIC SPANS_JSON <mfbm arguments>

SPAWN_MONOTONIC is ``time.monotonic()`` in the parent just before it
started this process; the span ``cli.import`` runs from then to the
``main()`` call. The spans are written to SPANS_JSON when main returns.
The package must be importable, e.g. through PYTHONPATH.
"""
import json
import sys
import time

from tracing import Tracer, installed

import mfbm.cli


def run(spawn: float, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    try:
        with installed(tracer):
            now = time.perf_counter()
            tracer.record("cli.import", now - (time.monotonic() - spawn), now)
            return mfbm.cli.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(run(float(sys.argv[1]), sys.argv[2], sys.argv[3:]))

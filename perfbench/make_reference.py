#!/usr/bin/env python3
"""Write reference.json: fingerprints of fixed (seed, replicate) outputs.

    python3 perfbench/make_reference.py

The stored reference was produced from the package as it stood when the
benchmark was added. Regenerating it accepts whatever the current code
samples, so do it only when a change of sampled paths is intended, and
say so.
"""
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for cls in WORKLOADS.values():
            reference.update(cls(Path(tmp), None).fingerprints())
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()

"""perfbench/tracing.py wraps package functions by dotted name; a name
that no longer resolves makes every benchmark run fail at start-up."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_tracer_wraps_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    for target, _, _ in tracing.WRAPS:
        module, attr = target.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), target


def test_import_and_wraps_load_no_scipy():
    # scipy is a test dependency only: a cold import, and a traced CLI
    # child resolving every wrapped name, must not pay for loading it
    script = f"""
import importlib, importlib.util, sys
import mfbm
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
for target, _, _ in tracing.WRAPS:
    module, attr = target.rsplit(".", 1)
    getattr(importlib.import_module(module), attr)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

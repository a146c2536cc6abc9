"""perfbench/tracing.py wraps package functions by dotted name; a name
that no longer resolves makes every benchmark run fail at start-up."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_wraps_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    for target, _, _ in tracing.WRAPS:
        module, attr = target.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), target

"""Every name a package module imports is used in that module.

The toolchain has no linter, so this stands in for its unused-import
rule. The only names exempt are those perfbench/tracing.py wraps in a
module: the tracer replaces them by name, so they stay bound there even
when the module itself no longer calls them.
"""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mfbm"
TRACING = ROOT / "perfbench" / "tracing.py"


def traced_names() -> set[tuple[str, str]]:
    """(module, name) for every package attribute the tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {tuple(target.split(".")[1:]) for target, _, _ in tracing.WRAPS}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_detects_unused_names():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == {"os", "c"}


def test_package_modules_use_every_import():
    traced = traced_names()
    found = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path.read_text())
        if (path.stem, name) not in traced
    }
    assert not found, f"imported but never used: {sorted(found)}"

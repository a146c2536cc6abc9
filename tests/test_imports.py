"""Every name a package module imports is used in that module, and every
module-level private name is read somewhere in the package.

The toolchain has no linter, so this stands in for its unused-import and
dead-code rules; the second catches a helper that a removed code path
leaves behind. The only names exempt are those perfbench/tracing.py wraps
in a module: the tracer replaces them by name, so they stay bound there
even when the module itself no longer calls them.
"""
import ast
import dataclasses
import importlib.util
import inspect
import types
from pathlib import Path

import mfbm

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


def private_definitions(source: str) -> set[str]:
    """Module-level names with one leading underscore that the source binds."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Names the source reads: loaded names, attributes and from-imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def test_private_name_helpers_find_dead_names():
    source = "_A = 1\n_b, c = 2, 3\ndef _f():\n    return _A\nclass _K: pass\n__all__ = []\n"
    assert private_definitions(source) == {"_A", "_b", "_f", "_K"}
    assert private_definitions(source) - referenced_names(source) == {"_b", "_f", "_K"}
    assert "_g" in referenced_names("from m import _g\nm._h\n")


def test_package_reads_every_private_name():
    traced = traced_names()
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(referenced_names, sources.values()))
    dead = {
        f"{stem}.{name}"
        for stem, source in sources.items()
        for name in private_definitions(source) - read
        if (stem, name) not in traced
    }
    assert not dead, f"private names never read in the package: {sorted(dead)}"


def test_pair_rule_modules_never_read_pair_kind():
    # covariance, spectral and the CLI evaluate pairs as arrays; the
    # unit-sum decision comes from params._unit_sum alone
    for stem in ("covariance", "spectral", "cli"):
        names = referenced_names((PACKAGE / f"{stem}.py").read_text())
        assert not names & {"PairKind", "pair_kind"}, stem


# The existence rule lives in mfbm.existence alone: one raise carries its
# message, and nowhere else compares a coherence with 1 or scales PSD_TOL
# into a threshold. spectral_factor reads PSD_TOL for its ridge shift only.
NO_COVARIANCE = "admit no valid covariance"
COHERENCE_CALLS = {"coherence", "_coherence", "pair_coherence_at"}
PSD_TOL_READERS = {("representations", "spectral_factor")}


def raise_messages(source: str) -> list[str]:
    """Every string constant inside a raise statement, f-string parts included."""
    return [
        node.value
        for statement in ast.walk(ast.parse(source))
        if isinstance(statement, ast.Raise)
        for node in ast.walk(statement)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def _mentions_coherence(node: ast.AST) -> bool:
    """Whether node calls a coherence function or reads a .coherence field."""
    return any(
        (isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None))
         in COHERENCE_CALLS)
        or (isinstance(n, ast.Attribute) and n.attr == "coherence")
        for n in ast.walk(node)
    )


def coherence_unit_comparisons(source: str) -> int:
    """Comparisons holding the constant 1 and a coherence: a call of a
    coherence function, a .coherence field or a name assigned from either."""
    tree = ast.parse(source)
    coherent = {
        name.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _mentions_coherence(node.value)
        for target in node.targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }
    count = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        parts = list(ast.walk(node))
        one = any(
            isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value == 1
            for n in parts
        )
        coherence = _mentions_coherence(node) or any(
            isinstance(n, ast.Name) and n.id in coherent for n in parts
        )
        count += one and coherence
    return count


def psd_tol_readers(source: str) -> set[str]:
    """Top-level functions and classes that read PSD_TOL, "<module>" for
    module-level statements."""
    found = set()
    for statement in ast.parse(source).body:
        if any(
            (isinstance(n, ast.Name) and n.id == "PSD_TOL" and isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Attribute) and n.attr == "PSD_TOL")
            for n in ast.walk(statement)
        ):
            found.add(getattr(statement, "name", "<module>"))
    return found


def test_existence_rule_helpers_find_copies():
    copy = (
        "def f(q):\n"
        "    c = _coherence(q)[0, 1]\n"
        "    if c > 1.0 + 1e-12:\n"
        "        raise E(f'coherence {c} exceeds 1; {1}: admit no valid covariance')\n"
        "    if c == 0.0 or report.coherence <= 1:\n"
        "        return max(1.0 - c, 0.0)\n"
        "    d = report.coherence\n"
        "    return d >= 1\n"
        "T = 2 * PSD_TOL\n"
        "def g(q):\n"
        "    return mod.PSD_TOL * q\n"
    )
    assert any(NO_COVARIANCE in m for m in raise_messages(copy))
    assert coherence_unit_comparisons(copy) == 3
    assert psd_tol_readers(copy) == {"<module>", "g"}
    assert coherence_unit_comparisons("c = _coherence(q)\nok = c == 0.0 or x <= 1\n") == 0


def test_existence_rule_is_written_once():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    refusals = {
        stem: sum(NO_COVARIANCE in m for m in raise_messages(source))
        for stem, source in sources.items()
    }
    assert {stem: k for stem, k in refusals.items() if k} == {"existence": 1}
    others = {stem: source for stem, source in sources.items() if stem != "existence"}
    compared = {stem for stem, source in others.items() if coherence_unit_comparisons(source)}
    assert not compared, f"coherence compared with 1 outside existence: {sorted(compared)}"
    readers = {
        (stem, name) for stem, source in others.items() for name in psd_tol_readers(source)
    }
    assert readers == PSD_TOL_READERS


def call_scopes(source: str, called) -> list[str]:
    """Where the source makes a call whose func node satisfies called, once
    per call: the dotted name of the enclosing definition, "<module>" at
    module level."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and called(child.func):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def validate_callers(source: str) -> list[str]:
    """Where the source calls validate(...), once per call."""
    return call_scopes(
        source, lambda func: getattr(func, "id", getattr(func, "attr", None)) == "validate"
    )


def test_validate_callers_finds_every_call():
    source = (
        "def f(p):\n    return validate(p)\n"
        "class C:\n    def g(self):\n        params.validate(self)\n"
        "validate(x)\nvalidated(x)\n"
    )
    assert validate_callers(source) == ["f", "C.g", "<module>"]


def test_structural_rule_runs_at_construction_only():
    # an MfbmParams is valid by construction, so no caller checks one again
    calls = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in validate_callers(path.read_text())
    ]
    assert calls == ["params.MfbmParams.__post_init__"]


# Every JSON input is parsed by params._load_json, so a malformed file is
# always refused with its path in the message.
JSON_READS = {"load", "loads"}


def json_readers(source: str) -> list[str]:
    """Where the source calls json.load or json.loads, or either imported
    from json by name, once per call."""
    tree = ast.parse(source)
    bare = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in JSON_READS
    }
    return call_scopes(
        source,
        lambda func: (isinstance(func, ast.Name) and func.id in bare)
        or (isinstance(func, ast.Attribute) and func.attr in JSON_READS
            and getattr(func.value, "id", None) == "json"),
    )


def test_json_readers_finds_every_read():
    source = (
        "import json\nfrom json import loads as parse\n"
        "def f(h):\n    return json.load(h)\n"
        "class C:\n    def g(self, t):\n        return parse(t)\n"
        "json.dump(x, h)\nloads(t)\njson.loads(t)\n"
    )
    assert json_readers(source) == ["f", "C.g", "<module>"]


def test_json_is_read_in_one_place():
    reads = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in json_readers(path.read_text())
    ]
    assert reads == ["params._load_json"]


# Tolerances that only absorb round-off (UNIT_SUM_TOL, PSD_TOL) are module
# constants: no public callable takes one and no parameter set carries one.


def tolerance_parameters(namespace) -> list[str]:
    """'name(parameter)' for every parameter ending in _tol of a callable
    that namespace lists in its __all__."""
    found = []
    for name in namespace.__all__:
        try:
            parameters = inspect.signature(getattr(namespace, name)).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        found += [f"{name}({p})" for p in parameters if p.endswith("_tol")]
    return found


def test_tolerance_parameters_finds_every_one():
    def f(x, psd_tol=0.0):
        pass

    @dataclasses.dataclass
    class C:
        one_tol: float
        total: int

    namespace = types.SimpleNamespace(__all__=["f", "C", "K", "E"], f=f, C=C, K=1e-9, E=KeyError)
    assert tolerance_parameters(namespace) == ["f(psd_tol)", "C(one_tol)"]


def test_no_tolerance_is_a_setting():
    assert not tolerance_parameters(mfbm)
    assert [f.name for f in dataclasses.fields(mfbm.MfbmParams)] == ["H", "sigma", "rho", "eta"]

"""Source hygiene checks on the package, and on the benchmark's view of it."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import qpbench

PACKAGE = Path(qpbench.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
TESTS = Path(__file__).parent

# public names that only tests call: the independent routes the SCF tests
# compare the solver against
TEST_REFERENCE_ROUTES = ("build_fock", "hf_total_energy")


def _unused_imports(path: Path) -> list:
    """Module-level imported names of ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_module_level_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _module_definitions(tree: ast.Module) -> dict:
    """Module-level function, class and constant names, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _read_names(trees) -> set:
    """Every name the trees load, bare or as an attribute (``module.name``)."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _parse_all(paths) -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(paths)}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_module_level_private_name_is_read():
    trees = _parse_all(PACKAGE.glob("*.py"))
    read = _read_names(trees.values())
    unread = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _module_definitions(tree).items()
        if name.startswith("_") and name not in read
    ]
    assert unread == []


def test_every_public_name_has_a_caller():
    # a caller is the package itself or the benchmark, never a test; the
    # tracer reaches the functions it patches by their LAYERS keys
    trees = _parse_all(PACKAGE.glob("*.py"))
    bench = _parse_all(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
    read = _read_names([*trees.values(), *bench.values()])
    read.update(name for _, name in _load_spans().LAYERS)
    uncalled = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _module_definitions(tree).items()
        if not name.startswith("_") and name not in read and name not in TEST_REFERENCE_ROUTES
    ]
    assert uncalled == []
    # an exempt route is still one: no program calls it, and some test imports it
    assert read.isdisjoint(TEST_REFERENCE_ROUTES)
    imported = {
        alias.name
        for tree in _parse_all(TESTS.glob("test_*.py")).values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpbench")
        for alias in node.names
    }
    assert set(TEST_REFERENCE_ROUTES) <= imported


def test_every_traced_function_exists():
    # the tracer logs a missing function and reads its layer time as 0, so a
    # rename in the package would otherwise pass the benchmark unnoticed
    spans = _load_spans()
    assert spans.LAYERS
    missing = [
        f"{module}.{name}"
        for module, name in spans.LAYERS
        if not inspect.isfunction(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_importing_the_cli_loads_no_third_party_package_but_numpy():
    # the benchmark's setup_s times a fresh interpreter importing qpbench.cli,
    # so a dependency pulled in at import time costs every run
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qpbench.cli\n"
        "print(json.dumps(sorted({n.partition('.')[0] for n in set(sys.modules) - before})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(json.loads(done.stdout)) - set(sys.stdlib_module_names) - {"qpbench"}
    assert loaded == {"numpy"}

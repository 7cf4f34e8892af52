"""Source hygiene checks on the package, and on the benchmark's view of it."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import qpbench

PACKAGE = Path(qpbench.__file__).parent
SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"


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


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level ``_function``, ``_Class`` and ``_CONSTANT`` names, with their lines."""
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
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_every_module_level_private_name_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):  # module._name
                read.add(node.attr)
    unread = [
        f"{path.name}:{line} {name}"
        for path, tree in sorted(trees.items())
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]
    assert unread == []


def test_every_traced_function_exists():
    # the tracer logs a missing function and reads its layer time as 0, so a
    # rename in the package would otherwise pass the benchmark unnoticed
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [
        f"{module}.{name}"
        for module, name in spans.LAYERS
        if not inspect.isfunction(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []

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
# keyword parameters that only tests pass: seams the guard tests need
TEST_SEAMS = (
    "_scf(guess_orbitals=)",  # the aufbau-verdict tests start from an excited orbital
    "full_ci_ground_state(sz=)",  # the exclusion and RDM tests use other Sz sectors
)


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


def _program_trees() -> dict:
    """The package and the benchmark without its tests: where a program reader lives."""
    bench = (p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
    return _parse_all([*PACKAGE.glob("*.py"), *bench])


def _package(program: dict) -> dict:
    return {path: tree for path, tree in program.items() if path.parent == PACKAGE}


def test_every_public_name_has_a_caller():
    # a caller is the package itself or the benchmark, never a test; the
    # tracer reaches the functions it patches by their LAYERS keys
    program = _program_trees()
    read = _read_names(program.values())
    read.update(name for _, name in _load_spans().LAYERS)
    uncalled = [
        f"{path.name}:{line} {name}"
        for path, tree in _package(program).items()
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


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple, whose annotated class attributes are fields."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in (*decorators, *cls.bases)}
    return bool(names & {"dataclass", "NamedTuple"})


def _members(tree: ast.Module):
    """(line, class, name) of every method, property and record field."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                yield node.lineno, cls.name, node.name
            elif isinstance(node, ast.AnnAssign) and _is_record(cls):
                yield node.lineno, cls.name, node.target.id


def test_every_method_and_field_has_a_reader():
    # by name alone: a member that shares its name with a member the program
    # reads passes unseen
    program = _program_trees()
    read = {
        node.attr
        for tree in program.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{line} {cls}.{name}"
        for path, tree in _package(program).items()
        for line, cls, name in _members(tree)
        if name not in read
    ]
    assert unread == []


def _keyword_defaults(tree: ast.Module):
    """(line, callee, parameter, position) of every parameter that has a default.

    A class's ``__init__`` is called by the class name, and a method's
    ``self`` is not passed by position.  ``position`` counts the positional
    parameters before this one; it is None for a keyword-only parameter.
    """
    methods = {
        fn: cls
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        callee = fn.name
        if fn in methods:
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = positional if static else positional[1:]
            if fn.name == "__init__":
                callee = methods[fn].name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield fn.lineno, callee, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.lineno, callee, arg.arg, None


def _passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether ``call`` passes ``parameter``: by keyword, by position or by forwarding."""
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _unpassed_defaults(defining: dict, calling) -> dict:
    """``callee(parameter=)`` -> where, for each default that no call in ``calling`` passes."""
    calls = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    return {
        f"{callee}({parameter}=)": f"{path.name}:{line}"
        for path, tree in defining.items()
        for line, callee, parameter, position in _keyword_defaults(tree)
        if callee not in TEST_REFERENCE_ROUTES
        and not any(_passes(call, parameter, position) for call in calls.get(callee, ()))
    }


def test_every_keyword_default_has_a_caller():
    program = _program_trees()
    package = _package(program)
    unpassed = _unpassed_defaults(package, program.values())
    assert [f"{where} {name}" for name, where in unpassed.items() if name not in TEST_SEAMS] == []
    # a seam is still one: no program passes it, and some test does
    assert set(TEST_SEAMS) <= set(unpassed)
    tests = _parse_all(TESTS.glob("test_*.py")).values()
    assert set(TEST_SEAMS).isdisjoint(_unpassed_defaults(package, [*program.values(), *tests]))


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

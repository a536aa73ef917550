import ast
from pathlib import Path

import hilbmat

SOURCES = sorted(Path(hilbmat.__file__).resolve().parent.glob("*.py"))


def test_no_private_names_imported_across_modules():
    # a private name stays in the module that defines it
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders.extend(f"{path.name}: from .{node.module} import {alias.name}"
                                 for alias in node.names if alias.name.startswith("_"))
    assert len(SOURCES) > 1
    assert offenders == []


def test_package_imports_match_all():
    # the imports of hilbmat/__init__.py and its __all__ are kept by hand:
    # each imported name is listed exactly once, and each entry resolves
    tree = ast.parse(Path(hilbmat.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    assert len(set(hilbmat.__all__)) == len(hilbmat.__all__)
    assert sorted(imported) == sorted(hilbmat.__all__)
    assert [name for name in hilbmat.__all__ if not hasattr(hilbmat, name)] == []


def test_no_module_imports_scipy_at_load():
    # hilbmat needs numpy alone at run time (scipy is a test dependency), so
    # no statement at any depth, function bodies included, may import scipy
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders.extend(f"{path.name}:{node.lineno} {name}" for name in names
                             if name == "scipy" or name.startswith("scipy."))
    assert offenders == []


# the one process-wide memo: the benchmark builds the parser during set-up
ALLOWED_CACHES = {"cli.py: build_parser"}


def test_no_function_is_memoized_process_wide():
    # every value is computed where it is used: no function in hilbmat sits
    # behind functools.cache or lru_cache, bare, called or module-qualified
    def name(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "attr", getattr(target, "id", None))

    memoized = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(name(d) in ("cache", "lru_cache") for d in node.decorator_list):
                    memoized.add(f"{path.name}: {node.name}")
    assert memoized == ALLOWED_CACHES


def test_one_function_takes_the_inverse_fft():
    # every circulant product, Toeplitz or Toeplitz-plus-Hankel, goes through
    # one transform: exactly one function in hilbmat (innermost, so a nested
    # helper counts on its own) calls irfft
    def calls_irfft(node):
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        return isinstance(node, ast.Call) and name == "irfft"

    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, f"{owner}.{getattr(child, 'name', '<lambda>')}")
            else:
                if calls_irfft(child):
                    callers.append(owner)
                visit(child, owner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert len(set(callers)) == 1, callers

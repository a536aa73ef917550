import ast
import importlib
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


def test_package_imports_match_all(monkeypatch):
    # hilbmat/__init__.py writes each public name once, in its table from
    # module to names: no name sits under two modules, __all__ is the table's
    # names, and each resolves to the very object its module defines, also
    # after it is rebound there, as the benchmark's tracer rebinds it
    listed = [name for names in hilbmat._EXPORTS.values() for name in names]
    assert len(set(listed)) == len(listed)
    assert hilbmat.__all__ == listed
    assert [name for name in listed if getattr(hilbmat, name) is not getattr(
        importlib.import_module(f"hilbmat.{hilbmat._MODULE_OF[name]}"), name)] == []
    assert [module for module in (*hilbmat._EXPORTS, "_util")
            if getattr(hilbmat, module) is not importlib.import_module(f"hilbmat.{module}")] == []
    monkeypatch.setattr(hilbmat.spectra, "skew_norms", len)
    assert hilbmat.skew_norms is len


def test_package_import_loads_no_submodule_and_no_numpy(run_python):
    # the table is read on first use of a name, so importing the package
    # alone leaves numpy and every hilbmat module unloaded
    probe = run_python(["-c", "import sys, hilbmat; print(sorted(m for m in sys.modules"
                              " if m == 'numpy' or m.startswith('hilbmat.')))"])
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.decode().strip() == "[]"


def imported_modules(tree):
    """``(lineno, module)`` of every absolute import in ``tree``, at any
    depth, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_no_module_imports_scipy_at_load():
    # hilbmat needs numpy alone at run time (scipy is a test dependency), so
    # no statement at any depth, function bodies included, may import scipy
    offenders = [f"{path.name}:{lineno} {module}" for path in SOURCES
                 for lineno, module in imported_modules(ast.parse(path.read_text()))
                 if module == "scipy" or module.startswith("scipy.")]
    assert offenders == []


def name(node):
    """The name an attribute or a bare name ends in, else None."""
    return getattr(node, "attr", getattr(node, "id", None))


# the one process-wide memo: the benchmark builds the parser during set-up
ALLOWED_CACHES = {"cli.py: build_parser"}


def test_no_function_is_memoized_process_wide():
    # every value is computed where it is used: no function in hilbmat sits
    # behind functools.cache or lru_cache, bare, called or module-qualified
    memoized = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(name(d.func if isinstance(d, ast.Call) else d) in ("cache", "lru_cache")
                       for d in node.decorator_list):
                    memoized.add(f"{path.name}: {node.name}")
    assert memoized == ALLOWED_CACHES


def innermost_owners(matches):
    """``module.function`` of each node that passes ``matches``, owned by
    its innermost function, so a nested helper counts on its own."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, f"{owner}.{getattr(child, 'name', '<lambda>')}")
            else:
                if matches(child):
                    owners.append(owner)
                visit(child, owner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return owners


def innermost_callers(called):
    """The ``innermost_owners`` of each call whose callee's name passes ``called``."""
    return innermost_owners(
        lambda node: isinstance(node, ast.Call) and called(name(node.func) or ""))


def test_one_function_takes_the_inverse_fft():
    # every circulant product, Toeplitz or Toeplitz-plus-Hankel, goes through
    # one transform: exactly one function in hilbmat calls irfft
    callers = innermost_callers(lambda name: name == "irfft")
    assert len(set(callers)) == 1, callers


def phrase_raisers(*phrases):
    """The ``innermost_owners`` of each raise whose message holds one of ``phrases``."""
    return set(innermost_owners(lambda node: isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str)
        and any(phrase in part.value for phrase in phrases) for part in ast.walk(node))))


def test_one_function_words_the_integer_rule():
    # "<name> must be an integer", "must be >= <low>" and "must be <= <high>"
    # are raised by matrices.as_int alone: no function keeps a copy of the rule
    assert phrase_raisers("must be an integer", "must be >=", "must be <=") == {
        "matrices.as_int"}


def test_one_function_words_the_size_cap():
    # every size, dense or matrix-free, is refused above MAX_DIM by
    # matrices.as_dim alone: no route keeps a cap of its own
    assert phrase_raisers("exceeds the size cap") == {"matrices.as_dim"}


def test_library_keeps_its_callers_thread_settings():
    # one function sets an OpenBLAS thread count, the guard that puts the
    # caller's count back; no module writes an environment variable or
    # loads threadpoolctl, whose limits would outlive the call
    assert set(innermost_callers(lambda callee: callee.endswith("set_num_threads"))) == {
        "spectra._one_blas_thread"}
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders.extend(f"{path.name}:{lineno} {module}" for lineno, module in imported_modules(tree)
                         if module.split(".")[0] == "threadpoolctl")
        offenders.extend(
            f"{path.name}:{node.lineno} environ" for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and name(node.value) == "environ"
            and not isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and name(node.value) == "environ"
            and node.attr in ("update", "setdefault", "pop", "popitem", "clear")
            or name(node) in ("putenv", "unsetenv"))
    assert offenders == []


def test_only_spectra_calls_the_eigensolvers():
    # every eigen- and singular-value solve is made in spectra, so no other
    # layer grows a private eigvalsh beside the stacked skew-norm route
    callers = innermost_callers(lambda callee: callee in ("eigh", "eigvalsh", "svd"))
    assert callers
    assert {owner.split(".")[0] for owner in callers} == {"spectra"}, callers


def test_spectral_norm_is_called_only_where_a_matrix_of_any_kind_is_normed():
    # skew norms come from spectra.skew_norms and the dense side of
    # spectra._top_eigen calls eigvalsh itself, so neither the identity
    # checks nor the solver grow a second norm route through spectral_norm
    assert sorted(innermost_callers(lambda callee: callee == "spectral_norm")) == [
        "cli.cmd_norm", "symbols.gs_rate_check", "symbols.prolate_gap"]


def test_every_spectra_solve_runs_under_the_thread_guard():
    # a spectra function that calls a LAPACK-level solver carries
    # @_one_blas_thread(), or is private and called only from functions that
    # carry it, as _top_ritz is from _top_eigen: a new solver cannot leave
    # the guard unnoticed
    path = next(path for path in SOURCES if path.stem == "spectra")
    functions = [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    guarded = {f.name for f in functions if any(
        isinstance(d, ast.Call) and name(d.func) == "_one_blas_thread" for d in f.decorator_list)}

    def spectra_callers(called):
        return {owner.split(".")[-1] for owner in innermost_callers(called)
                if owner.split(".")[0] == "spectra"}

    solving = spectra_callers(lambda callee: callee in ("eigh", "eigvalsh", "svd", "matrix_power"))
    assert {"skew_norms", "spectral_norm", "skew_spectrum", "_top_ritz"} <= solving
    offenders = []
    for solver in sorted(solving - guarded):
        callers = spectra_callers(lambda callee: callee == solver)
        if not solver.startswith("_") or not callers or not callers <= guarded:
            offenders.append(f"{solver} (called from {sorted(callers)})")
    assert offenders == []


def test_battery_runs_the_check_bodies_alone():
    # the battery's record is validated once, so it runs the private bodies;
    # a public check_* validates its arguments and belongs at the boundary
    battery = "identities._instance_battery"
    assert battery in innermost_callers(lambda callee: callee == "skew_spectrum")
    assert battery not in innermost_callers(lambda callee: callee.startswith("check_"))

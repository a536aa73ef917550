"""README.md is held to the code: every function, acceptance test and
constant its claims table names must exist with the value it gives, every
acceptance test and every public check or probe must have a row, a row's
acceptance test must call the row's functions, and its CSV schemas, CLI
lines and library sketch must match what the code does."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import io
import re
import shlex
from pathlib import Path

import pytest

from hilbmat import cli, gaps, identities, symbols

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

TOLERANCE_FORMS = ("exact integers", "no slack, float64")
VERDICTS = ("holds", "recorded, never asserted", "strict xfail")
CONSTANT = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`")
IN_THE_TEST = re.compile(r"`([^`]+)` in the test, assumed")


def _acceptance():
    """tests/test_acceptance.py, loaded from its file under a name of its own,
    so any pytest import mode finds it."""
    spec = importlib.util.spec_from_file_location(
        "readme_acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ACCEPTANCE = _acceptance()


def section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next one."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def table(text: str) -> list:
    """The body rows of the first markdown table in ``text``, as lists of
    stripped cells; an escaped pipe stays inside its cell."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    rows = [[cell.strip().replace("\\|", "|")
             for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines]
    return rows[2:]  # past the header and its rule


def code_block(text: str, language: str = "") -> str:
    match = re.search(rf"^```{language}\n(.*?)^```", text, re.M | re.S)
    assert match, f"no ```{language} block"
    return match.group(1)


def ticked(cell: str) -> list:
    return re.findall(r"`([^`]+)`", cell)


CLAIMS = [dict(zip(("number", "claim", "function", "acceptance", "tolerance", "verdict"),
                   row)) for row in table(section("Claims"))]


def constant_value(module: str, name: str):
    owner = ACCEPTANCE if module == "test_acceptance" else importlib.import_module(
        f"hilbmat.{module}")
    return getattr(owner, name)


def test_claims_table_has_numbered_rows():
    assert len(CLAIMS) >= 20
    assert [row["number"] for row in CLAIMS] == [str(i) for i in range(1, len(CLAIMS) + 1)]
    assert all(len(row) == 6 for row in CLAIMS)


def test_every_function_cell_names_a_function():
    missing = []
    for row in CLAIMS:
        names = ticked(row["function"])
        if not names:
            missing.append(f"row {row['number']}: no function")
        for name in names:
            module, _, attr = name.partition(".")
            try:
                found = callable(getattr(importlib.import_module(f"hilbmat.{module}"), attr))
            except (ImportError, AttributeError, ValueError):
                found = False
            if not found:
                missing.append(f"row {row['number']}: {name}")
    assert missing == []


def test_every_acceptance_cell_names_an_acceptance_test():
    missing = [f"row {row['number']}: {name}" for row in CLAIMS
               for name in ticked(row["acceptance"])
               if not (name.startswith("test_criterion_") and hasattr(ACCEPTANCE, name))]
    blank = [row["number"] for row in CLAIMS
             if not ticked(row["acceptance"]) and row["acceptance"] != "—"]
    assert missing == []
    assert blank == []


def test_every_acceptance_test_has_a_row():
    tests = {name for name, _ in inspect.getmembers(ACCEPTANCE, inspect.isfunction)
             if name.startswith("test_criterion_")}
    named = {name for row in CLAIMS for name in ticked(row["acceptance"])}
    assert tests
    assert sorted(tests - named) == []


def _calls(node) -> set:
    """The names called anywhere under an AST node, bare or as attributes."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def _functions(source: str) -> dict:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def _suite_checks() -> set:
    """The identities.check_* that run_suite runs: reached from run_suite
    through the module's own functions, or returning the report of a
    private twin that is."""
    defs = _functions(inspect.getsource(identities))
    reached, todo = set(), ["run_suite"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _calls(defs[name]) & defs.keys()
    returned = {name: set().union(*(_calls(ret) for ret in ast.walk(node)
                                    if isinstance(ret, ast.Return)))
                for name, node in defs.items()}
    return {name for name in defs
            if name.startswith("check_") and ({name} | returned[name]) & reached}


def test_every_acceptance_test_calls_its_row_functions():
    # an acceptance test reaches its row's verdict through the row's
    # functions, not a copy of their formulas: its body or a fixture it takes
    # calls each one, and the suite test calls what run_suite runs
    tests = _functions((ROOT / "tests" / "test_acceptance.py").read_text())
    missing = []
    for row in CLAIMS:
        for name in ticked(row["acceptance"]):
            node = tests[name]
            called = _calls(node).union(*(_calls(tests[arg.arg]) for arg in node.args.args
                                          if arg.arg in tests))
            if name == "test_criterion_03_identity_suites":
                called |= _suite_checks()
            missing += [f"row {row['number']}: {name} does not call {function}"
                        for function in ticked(row["function"])
                        if function.partition(".")[2] not in called]
    assert missing == []


@pytest.mark.parametrize("module", [identities, gaps], ids=lambda m: m.__name__)
def test_every_public_check_and_probe_has_a_row(module):
    short = module.__name__.rpartition(".")[2]
    public = {f"{short}.{name}" for name, obj in inspect.getmembers(module, inspect.isfunction)
              if name.startswith(("check_", "probe_")) and obj.__module__ == module.__name__}
    named = {name for row in CLAIMS for name in ticked(row["function"])}
    assert public
    assert sorted(public - named) == []


def test_every_constant_in_readme_matches_the_code():
    cited = CONSTANT.findall(README)
    wrong = [f"{module}.{name} = {value} (code: {constant_value(module, name)!r})"
             for module, name, value in cited
             if constant_value(module, name) != float(value)]
    assert len(cited) >= 8
    assert wrong == []


def test_every_tolerance_cell_has_a_known_form():
    # an assumed constant, a literal of the named acceptance test, or a phrase
    odd = []
    for row in CLAIMS:
        cell, tests = row["tolerance"], ticked(row["acceptance"])
        if cell in TOLERANCE_FORMS or re.fullmatch(CONSTANT.pattern + ", assumed", cell):
            continue
        literal = IN_THE_TEST.fullmatch(cell)
        if literal and tests and all(
                literal.group(1) in inspect.getsource(getattr(ACCEPTANCE, name))
                for name in tests):
            continue
        odd.append(f"row {row['number']}: {cell}")
    assert odd == []


def test_verdicts_match_the_acceptance_markers():
    # a strict xfail row names a strictly xfailed test, whose reason cites
    # that row's claim; no other row names an xfailed test
    for row in CLAIMS:
        assert row["verdict"].startswith(VERDICTS), row
        for name in ticked(row["acceptance"]):
            marks = [m for m in getattr(getattr(ACCEPTANCE, name, None), "pytestmark", [])
                     if m.name == "xfail"]
            if row["verdict"].startswith("strict xfail"):
                assert [m.kwargs.get("strict") for m in marks] == [True], row
                assert f'"{row["claim"]}"' in marks[0].kwargs["reason"], row
            else:
                assert marks == [], row
    assert any(row["verdict"].startswith("strict xfail") for row in CLAIMS)


WRITERS = {
    "verify reports": lambda out: identities.write_reports_csv([], out),
    "sweep-gap": lambda out: gaps.write_figure1_csv([], out),
    "eigvec-profile": lambda out: gaps.write_figure2_csv([], [], out),
    "witness": lambda out: gaps.write_witness_csv([], out),
    "hankel-gap": lambda out: gaps.write_hankel_csv([], out),
    "prolate-gap": lambda out: symbols.write_prolate_csv([], out),
    "gs-rate": lambda out: symbols.write_gs_rate_csv([], out),
}


def test_csv_schema_table_matches_the_writers():
    # each writer given no rows writes its header alone
    schemas = {label: ticked(columns) for label, columns in table(section("CLI"))}
    assert sorted(schemas) == sorted(WRITERS)
    for label, write in WRITERS.items():
        out = io.StringIO()
        write(out)
        assert schemas[label] == [out.getvalue().rstrip("\n")], label


def test_cli_examples_parse():
    # parsed only, not run; together they show every command
    commands = set()
    for line in code_block(section("CLI")).splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "hilbmat", line
        args = cli.build_parser().parse_args(argv[1:])
        commands.add(args.command)
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert commands == set(subparsers)


def test_library_sketch_runs(capsys):
    exec(compile(code_block(section("Library sketch"), "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out

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

"""``krom`` imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "krom").glob("*.py"))


def test_absolute_imports_are_stdlib():
    assert {p.name for p in SOURCES} >= {"__init__.py", "algebra.py", "cli.py"}
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside

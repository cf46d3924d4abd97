"""Static guards on the sources of ``krom``: it imports nothing outside the
standard library, and no function calls itself by name, since a search that
recursed per atom would hit Python's recursion limit on long chains."""

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


def test_no_function_calls_itself():
    """No function calls its own name, as ``f(...)`` or ``x.f(...)``,
    except through ``super()``."""
    recursive = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                via_super = isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) == "super()"
                if name == fn.name and not via_super:
                    recursive.append(f"{path.name}:{node.lineno}: {fn.name}")
    assert not recursive

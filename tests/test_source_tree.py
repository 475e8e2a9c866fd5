"""The package holds only what a run executes.

References that exist only for tests live in tests/oracles.py, so every
module-level definition in src/devine must be named somewhere in the package
outside its own definition.  An import names a definition without using it,
so imports do not count; neither do the re-exports of `__init__.py`.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "devine"


def _names(node):
    """Every name `node` reads, plain or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_used_inside_the_package():
    defined = {}  # (module, name) -> the top-level statement that defines it
    users = defaultdict(set)  # name -> the top-level statements that name it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[path.name, stmt.name] = stmt
            for name in _names(stmt):
                users[name].add(stmt)
    assert ("simulation.py", "run_simulation") in defined  # the scan reads the package
    unused = sorted(
        f"{module}:{name}"
        for (module, name), stmt in defined.items()
        if not users[name] - {stmt}
    )
    assert unused == []

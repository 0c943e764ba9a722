"""Every name a library or test module imports is used in that module.

The library's `__init__.py` only re-exports, so it is left out. The check
reads each module's syntax tree with `ast`: an imported name counts as used
when it occurs as a name anywhere else in the module, including in
annotations.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted(
    path for path in (TESTS.parent / "src" / "gconstellations").glob("*.py")
    if path.name != "__init__.py"
) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = ("from fractions import Fraction\nimport os.path\n"
              "from math import gcd as g\n\nx = os.sep\n")
    assert unused_imports(source) == ["Fraction (line 1)", "g (line 3)"]

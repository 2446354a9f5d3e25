"""Source hygiene: every module-level import in the package is used.

A stdlib ``ast`` check, so it needs no linter.  An import statement with
``# noqa: F401`` on one of its lines is exempt (re-exports, and names
kept for callers that patch them).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tetralab"


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_flags_unused_and_honours_noqa():
    src = ("import math\nimport os\n"
           "from json import (dumps,  # noqa: F401\n    loads)\n"
           "from typing import Optional\n"
           "x: Optional[int] = os.sep\n")
    assert unused_imports(src) == [(1, "math")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import saet

MODULES = sorted(p for p in Path(saet.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no Name node of the module
    reads.  ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_checker():
    src = ("from __future__ import annotations\n"
           "import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n")
    assert unused_imports(src) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

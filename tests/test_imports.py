"""Every name a semifano module imports is used in it.

No linter is part of the toolchain, so this reads each module's syntax tree:
a name bound by `import` or `from ... import` must occur as a name somewhere
in the module.  `__init__.py` imports only to re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "semifano"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .fans import alpha_class, cone_coordinates as cc\n"
              "alpha_class(os.path)\n")
    assert unused_imports(source) == ["cc"]

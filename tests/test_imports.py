"""Every name a semifano module imports is used in it, and every function
and class it defines is used in the engine or the benchmark.

No linter is part of the toolchain, so this reads each module's syntax tree:
a name bound by `import` or `from ... import` must occur as a name somewhere
in the module, and a module-level function or class must occur as a name or
an attribute in some file under `src/semifano` or `bench/`.  `tests/` is not
searched: a helper only tests call belongs there.  `__init__.py` imports
only to re-export and is skipped.

No module imports another's `_`-prefixed name, and the packed form of a
series is `series.py`'s alone: no other module reads `.packed` or
`.layout`, or builds a `MultiSeries` from a packed form.
"""

import ast

import pytest

from test_references import MODULES, SOURCES, referenced_names


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



def definitions(source):
    """The module-level functions and classes of source."""
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


@pytest.fixture(scope="module")
def named():
    return referenced_names(p.read_text() for p in SOURCES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_test_only_definitions(path, named):
    assert [d for d in definitions(path.read_text()) if d not in named] == []


def test_test_only_definition_is_found():
    module = ("class FanError(ValueError):\n"
              "    pass\n"
              "class _Order:\n"
              "    pass\n"
              "def cyclic_ray_order(fan):\n"
              "    return sorted(fan.rays)\n"
              "def _walls(fan):\n"
              "    raise FanError(fan)\n")
    # the engine reads _walls as an attribute; a test calls cyclic_ray_order
    # and builds an _Order, but tests are not among the sources
    engine = "from . import fans\nfans._walls(None)\n"
    named = referenced_names([module, engine])
    assert [d for d in definitions(module) if d not in named] == [
        "_Order", "cyclic_ray_order"]


def private_reach(source, packs=False):
    """The `_` names source imports, and, unless it packs series itself,
    each `.packed` or `.layout` it reads and each `MultiSeries(...)` it
    builds from a packed form."""
    nodes = list(ast.walk(ast.parse(source)))
    found = [a.name for n in nodes if isinstance(n, ast.ImportFrom)
             for a in n.names if a.name.startswith("_")]
    if not packs:
        found += ["." + n.attr for n in nodes if isinstance(n, ast.Attribute)
                  and n.attr in ("packed", "layout")]
        found += [n.func.id for n in nodes if isinstance(n, ast.Call)
                  and getattr(n.func, "id", None) == "MultiSeries"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_series_packs_and_no_private_imports(path):
    assert private_reach(path.read_text(), path.name == "series.py") == []


def test_private_reach_is_found():
    source = ("from operator import mul as _times\n"
              "from .series import MultiSeries, _lowest\n"
              "def g0(box, n):\n"
              "    units = box.layout[0]\n"
              "    return MultiSeries(box, _lowest(1, n)), MultiSeries.zero(box).packed\n")
    assert private_reach(source) == ["_lowest", ".layout", ".packed", "MultiSeries"]
    assert private_reach(source, packs=True) == ["_lowest"]

"""Every function and method of a semifano module is used somewhere.

No linter is part of the toolchain, so this reads syntax trees: a
module-level function of `src/semifano/*.py` whose name does not start with
`_` must occur as a name or an attribute in some file under `src/` or
`bench/`, and one whose name does start with `_` in some file under `src/`.
A method or property of a class there, dunders aside, must occur as an
attribute in some file under `src/` or `bench/`; so must `_make`, unless
it overrides a record's `namedtuple` hook, which the record's `_replace`
calls as Python calls a dunder.  A function that only
tests use belongs in `tests/`, so `tests/` is not searched.  `__init__.py`
imports only to re-export, so its imports use nothing.  A field of a
record there, a dataclass's annotated field or a name in the field string
of a `namedtuple(...)` base, must be read as an attribute under `src/` or
`bench/`, or in the acceptance suite, whose criteria read results the engine
only builds.
`cli.py` names no stage builder: its commands reach the stages only through
an analysis, which builds each on its first read.  The checks name no
pipeline stage either: a check may read an analysis's stages and do series
arithmetic, but one that called the code it checks could only restate it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "semifano" / "__init__.py"
MODULES = sorted(p for p in (ROOT / "src" / "semifano").glob("*.py") if p != INIT)
SOURCES = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")
                 if p != INIT)
ENGINE = [p for p in SOURCES if ROOT / "src" in p.parents]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
CLI = ROOT / "src" / "semifano" / "cli.py"
STAGE_BUILDERS = {"compute_g0_family", "assemble_mirror_map", "enumerate_g0_classes",
                  "pull_back", "exp_series"}
CHECKS = {"structural_report", "check_PF_equals_LF", "check_multiplicative_consistency",
          "cross_validate_surface", "surface_admissible_deltas", "_chain_delta"}
PIPELINE = {"pull_back", "compute_g0_family", "enumerate_g0_classes",
            "assemble_mirror_map", "analyze"}


def public_functions(source, private=False):
    """The module-level functions of source, or its `_` ones if private."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") == private]


def methods(source):
    """(class, name) of each method and property of the classes of source,
    dunders and the `_make` of a `namedtuple(...)` record left out."""
    return [(node.name, f.name) for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__"))
            and not (f.name == "_make" and any(
                isinstance(b, ast.Call) and getattr(b.func, "id", None) == "namedtuple"
                for b in node.bases))]


def dataclass_fields(source):
    """(class, name) of each field of the records of source: the annotated
    fields of a dataclass, and the field names of a `namedtuple(...)` base."""
    def called(d, name):
        d = d.func if isinstance(d, ast.Call) else d
        return name in (getattr(d, "id", None), getattr(d, "attr", None))
    fields = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        if any(called(d, "dataclass") for d in node.decorator_list):
            fields += [(node.name, f.target.id) for f in node.body
                       if isinstance(f, ast.AnnAssign)]
        for base in node.bases:
            if isinstance(base, ast.Call) and called(base, "namedtuple"):
                names = ast.literal_eval(base.args[1])
                if isinstance(names, str):
                    names = names.replace(",", " ").split()
                fields += [(node.name, f) for f in names]
    return fields


def referenced_names(sources, attributes_only=False):
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not attributes_only:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def referenced():
    return referenced_names(p.read_text() for p in SOURCES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_are_referenced(path, referenced):
    assert [f for f in public_functions(path.read_text())
            if f not in referenced] == []


@pytest.fixture(scope="module")
def attributes():
    return referenced_names((p.read_text() for p in SOURCES), attributes_only=True)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_methods_are_referenced(path, attributes):
    assert [m for m in methods(path.read_text()) if m[1] not in attributes] == []


@pytest.fixture(scope="module")
def field_readers():
    return referenced_names((p.read_text() for p in SOURCES + [ACCEPTANCE]),
                            attributes_only=True)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclass_fields_are_read(path, field_readers):
    assert [f for f in dataclass_fields(path.read_text())
            if f[1] not in field_readers] == []


def test_every_record_field_is_seen():
    assert [f for path in MODULES for f in dataclass_fields(path.read_text())] == [
        ("Fan", "dimension"), ("Fan", "rays"), ("Fan", "max_cones"),
        ("CurveLattice", "fan"), ("CurveLattice", "basis"),
        ("CurveLattice", "nef_verified"),
        ("MirrorMapPair", "forward"), ("MirrorMapPair", "inverse"),
        ("MirrorMapPair", "pulled"),
        ("TruncationBox", "caps"), ("MultiSeries", "box"), ("MultiSeries", "packed"),
        ("InvariantSeries", "ray_index"), ("InvariantSeries", "pulled"),
        ("InvariantTable", "ray_index"), ("InvariantTable", "box"),
        ("InvariantTable", "terms"),
        ("SuperpotentialTerm", "ray_index"), ("SuperpotentialTerm", "z_exponent"),
        ("SuperpotentialTerm", "q_exponent"), ("SuperpotentialTerm", "unit"),
        ("SuperpotentialExpr", "cone_index"), ("SuperpotentialExpr", "terms"),
        ("CheckReport", "name"), ("CheckReport", "passed"), ("CheckReport", "details"),
        ("ToricAnalysis", "fan"), ("ToricAnalysis", "lattice"), ("ToricAnalysis", "box"),
    ]


@pytest.fixture(scope="module")
def engine_referenced():
    return referenced_names(p.read_text() for p in ENGINE)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_functions_are_referenced_in_src(path, engine_referenced):
    assert [f for f in public_functions(path.read_text(), private=True)
            if f not in engine_referenced] == []


def test_unreferenced_function_is_found():
    module = ("def wall_curve_classes(fan):\n"
              "    return fan\n"
              "def is_semi_fano(fan):\n"
              "    return fan.wall_classes\n"
              "def _private():\n"
              "    pass\n")
    caller = "from semifano import fans\nfans.is_semi_fano(None)\n"
    used = referenced_names([module, caller])
    assert [f for f in public_functions(module) if f not in used] == [
        "wall_curve_classes"]


def test_test_only_function_is_found():
    assert not [p for p in SOURCES if ROOT / "tests" in p.parents]
    module = ("def fixture_path(name):\n"
              "    return name\n"
              "def load_document(path):\n"
              "    return path\n")
    engine = "from . import cli\ncli.load_document('f2.json')\n"
    # a test calls fixture_path, but tests are not among the sources
    used = referenced_names([module, engine])
    assert [f for f in public_functions(module) if f not in used] == [
        "fixture_path"]


def test_test_only_private_function_is_found():
    assert ROOT / "src" / "semifano" / "series.py" in ENGINE
    assert not [p for p in ENGINE if ROOT / "bench" in p.parents]
    module = ("def _pmul(s, t):\n"
              "    return s\n"
              "def _sum(pairs):\n"
              "    return pairs\n"
              "def mul(s, t):\n"
              "    return _sum([(s, t)])\n")
    # an oracle calls _pmul, but only the engine's own files are searched
    oracle = "from semifano.series import _pmul\n_pmul(1, 2)\n"
    used = referenced_names([module])
    assert [f for f in public_functions(module, private=True)
            if f not in used] == ["_pmul"]
    assert "_pmul" in referenced_names([module, oracle])


def test_test_only_method_is_found():
    module = ("class MultiSeries:\n"
              "    def __neg__(self):\n"
              "        return self\n"
              "    def coefficient(self, exp):\n"
              "        return exp\n"
              "    @property\n"
              "    def constant_term(self):\n"
              "        return 0\n")
    # a test calls s.coefficient; the engine has only a local of that name,
    # and negates through the exempt dunder
    engine = "coefficient = s.constant_term\nprint(-s, coefficient)\n"
    used = referenced_names([module, engine], attributes_only=True)
    assert methods(module) == [("MultiSeries", "coefficient"),
                               ("MultiSeries", "constant_term")]
    assert [m for m in methods(module) if m[1] not in used] == [
        ("MultiSeries", "coefficient")]


def test_unread_dataclass_field_is_found():
    module = ("@dataclass(frozen=True)\n"
              "class SuperpotentialExpr:\n"
              "    tag: str\n"
              "    cone_index: int\n"
              "    def total(self):\n"
              "        return self.cone_index\n"
              "class Plain:\n"
              "    limit: int = 3\n")
    # the engine passes a tag when it builds the expression but never reads
    # it back; a local of that name is no read
    engine = "tag = 'HV'\ne = SuperpotentialExpr(tag, 0)\nprint(e.cone_index)\n"
    used = referenced_names([module, engine], attributes_only=True)
    assert dataclass_fields(module) == [("SuperpotentialExpr", "tag"),
                                        ("SuperpotentialExpr", "cone_index")]
    assert [f for f in dataclass_fields(module) if f[1] not in used] == [
        ("SuperpotentialExpr", "tag")]
    # criterion 4 reads the analysis's correction family, built only for it
    assert "g0" in referenced_names([ACCEPTANCE.read_text()], attributes_only=True)


def test_unread_namedtuple_field_is_found():
    module = ("from collections import namedtuple\n"
              "import collections\n"
              "class SuperpotentialExpr(namedtuple('SuperpotentialExpr', 'tag cone_index')):\n"
              "    __slots__ = ()\n"
              "    def total(self):\n"
              "        return self.cone_index\n"
              "class CheckReport(collections.namedtuple('CheckReport', 'name, passed',\n"
              "                                         defaults=(True,))):\n"
              "    pass\n"
              "class Plain(tuple):\n"
              "    limit: int = 3\n")
    # the engine passes a tag when it builds the expression but never reads
    # it back; a local of that name is no read
    engine = ("tag = 'HV'\ne = SuperpotentialExpr(tag, 0)\nprint(e.cone_index)\n"
              "r = CheckReport('PF=LF')\nprint(r.name, r.passed)\n")
    used = referenced_names([module, engine], attributes_only=True)
    assert dataclass_fields(module) == [
        ("SuperpotentialExpr", "tag"), ("SuperpotentialExpr", "cone_index"),
        ("CheckReport", "name"), ("CheckReport", "passed")]
    assert [f for f in dataclass_fields(module) if f[1] not in used] == [
        ("SuperpotentialExpr", "tag")]


def named(source):
    """Every name source uses, reads as an attribute or imports."""
    imported = {name for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names for name in (alias.name, alias.asname)}
    return referenced_names([source]) | imported


def test_cli_names_no_stage_builder():
    assert STAGE_BUILDERS & named(CLI.read_text()) == set()


def test_stage_builder_in_cli_is_found():
    # stages read through the analysis, and a docstring, name no builder
    clean = ('"""Each command reads the stages pull_back built."""\n'
             "def cmd_g0(args, analysis):\n"
             "    return analysis.g0, analysis.mirror, analysis.deltas\n")
    assert STAGE_BUILDERS & named(clean) == set()
    # an import alone, an alias and an attribute call each do
    calls = ("from .mirror import assemble_mirror_map\n"
             "from .series import exp_series as exp\n"
             "def cmd_mirror_map(args, analysis):\n"
             "    return mirror.compute_g0_family(analysis.lattice, analysis.box)\n")
    assert STAGE_BUILDERS & named(clean + calls) == {
        "assemble_mirror_map", "exp_series", "compute_g0_family"}


def function_sources(source, names):
    """name -> source of each module-level function of source named in names."""
    return {node.name: ast.unparse(node) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def pipeline_named(sources):
    """name -> the pipeline stages that each function's source names."""
    return {name: PIPELINE & named(source) for name, source in sources.items()}


def test_checks_name_no_pipeline_stage():
    sources = {}
    for path in MODULES:
        sources.update(function_sources(path.read_text(), CHECKS))
    assert set(sources) == CHECKS
    assert pipeline_named(sources) == {name: set() for name in CHECKS}


def test_pipeline_stage_in_a_check_is_found():
    # a check that reads the stages, and a docstring, name no stage
    clean = ("def structural_report(analysis):\n"
             '    """Reads the deltas that pull_back built."""\n'
             "    return [d.delta for d in analysis.deltas]\n")
    # an import alone, an alias and an attribute call each do; a function
    # that is no check is not read
    calls = ("def check_PF_equals_LF(wpf, wlf):\n"
             "    from .series import pull_back as substitute\n"
             "    return analyze(wpf.fan, wpf.lattice, wpf.box)\n"
             "def cross_validate_surface(oracle, analysis):\n"
             "    return mirror.compute_g0_family(analysis.lattice, analysis.box)\n"
             "def render_table(table):\n"
             "    return analyze(table)\n")
    assert pipeline_named(function_sources(clean + calls, CHECKS)) == {
        "structural_report": set(),
        "check_PF_equals_LF": {"pull_back", "analyze"},
        "cross_validate_surface": {"compute_g0_family"},
    }

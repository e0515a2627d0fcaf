"""The engine's records are immutable named tuples.

Every record of `fans`, `series`, `mirror` and `superpotential` is a
`collections.namedtuple` subclass: its fields are read-only, it is compared
and hashed by its fields like a tuple, and the stages a record caches in its
`__dict__` take no part in either.  A record that holds a series is
unhashable, as a series holds a dict.  Importing the CLI loads neither
`dataclasses` nor `inspect`.
"""

import json
import pickle
import subprocess
import sys
from copy import copy, deepcopy
from pathlib import Path

import pytest

from semifano import (
    CheckReport,
    CurveLattice,
    Fan,
    SeriesError,
    TruncationBox,
    assemble_W_HV,
    check_PF_equals_LF,
    compare_superpotentials,
    invariant_table,
)
from conftest import fixture_analysis

SRC = Path(__file__).resolve().parents[1] / "src"


def records():
    """name -> (record, its cached stages, hashable) for all eleven records,
    from one analysis of f2 in a small box with every stage built."""
    an = fixture_analysis("f2", (2, 2))
    whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
    _, wpf, wlf, _ = compare_superpotentials(an, 0)
    d = an.deltas[2]
    return {
        "Fan": (an.fan, ("walls", "cone_solutions", "wall_classes"), True),
        "CurveLattice": (an.lattice, ("basis_solution",), True),
        "TruncationBox": (an.box, ("layout", "table_rows", "exps"), True),
        "MultiSeries": (d.pulled, (), False),
        "MirrorMapPair": (an.mirror, (), False),
        "InvariantSeries": (d, ("one_plus", "delta"), False),
        "InvariantTable": (invariant_table(d), ("entries",), True),
        "SuperpotentialTerm": (whv.terms[3], (), False),
        "SuperpotentialExpr": (whv, (), False),
        "CheckReport": (check_PF_equals_LF(wpf, wlf), (), True),
        "ToricAnalysis": (an, ("g0", "mirror", "deltas"), True),
    }


RECORDS = records()


def test_all_eleven_records_are_named_tuples():
    assert len(RECORDS) == 11
    for name, (record, stages, _) in RECORDS.items():
        assert type(record).__name__ == name
        assert isinstance(record, tuple) and record._fields
        # a record with no stage keeps no __dict__
        assert hasattr(record, "__dict__") == bool(stages), name


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    record = RECORDS[name][0]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is record[record._fields.index(field)]


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records_whatever_their_stages(name):
    record, stages, hashable = RECORDS[name]
    fresh = type(record)(*deepcopy(tuple(record)))
    assert fresh is not record and fresh == record and not fresh != record
    if hashable:
        assert hash(fresh) == hash(record)
        assert {fresh: "fresh"}[record] == "fresh"
    else:
        # MultiSeries, and every record that holds one
        with pytest.raises(TypeError):
            hash(record)
    for stage in stages:
        assert getattr(fresh, stage) is getattr(fresh, stage)
        assert stage in fresh.__dict__
    assert fresh == record
    if hashable:
        assert hash(fresh) == hash(record)
    # the record compares by its fields, not by the stages it keeps
    if stages:
        fresh.__dict__[stages[0]] = None
        assert fresh == record


def test_box_refuses_bool_and_negative_caps_and_keeps_a_tuple():
    box = TruncationBox([3, 0, 2])
    assert box.caps == (3, 0, 2) and type(box.caps) is tuple
    assert box == TruncationBox((3, 0, 2))
    for caps in ([True, 2], [2, -1], (False,)):
        with pytest.raises(SeriesError):
            TruncationBox(caps)


def test_fan_sorts_cones_and_keeps_tuples():
    fan = Fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [0, 2]])
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert fan.max_cones == ((0, 1), (1, 2), (0, 2))
    assert fan == Fan(2, fan.rays, ((0, 1), (1, 2), (0, 2)))


def test_replace_and_make_go_through_the_constructor():
    """namedtuple's `_replace` builds through `_make`, which both records
    route to `__new__`: a box refuses a bad cap, a fan sorts its cones,
    and pickling and copying still round-trip."""
    box = TruncationBox((2,))
    assert box._replace(caps=[3, 1]) == TruncationBox((3, 1))
    for caps in ((-1, True), [2, -1]):
        with pytest.raises(SeriesError):
            box._replace(caps=caps)
        with pytest.raises(SeriesError):
            TruncationBox._make([caps])
    fan = Fan(1, [[1], [-1]], [[0], [1]])
    moved = fan._replace(dimension=2, rays=[[1, 0], [0, 1], [-1, -1]],
                         max_cones=[[1, 0], [2, 1], [0, 2]])
    assert moved.rays == ((1, 0), (0, 1), (-1, -1))
    assert moved.max_cones == ((0, 1), (1, 2), (0, 2))
    assert fan._replace(max_cones=[[1, 0]]).max_cones == ((0, 1),)
    assert Fan._make([2, [[0, 1]], [[1, 0]]]) == Fan(2, ((0, 1),), ((0, 1),))
    for record in (box, fan, moved, RECORDS["Fan"][0], RECORDS["TruncationBox"][0]):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy(record) == record and deepcopy(record) == record
        assert type(deepcopy(record)) is type(record)


def test_defaults():
    fan, lattice = RECORDS["Fan"][0], RECORDS["CurveLattice"][0]
    assert CurveLattice(fan, lattice.basis).nef_verified is False
    assert CurveLattice(fan, lattice.basis, nef_verified=True) == lattice
    assert CheckReport("structure", True).details == ()


COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import semifano.cli
print(json.dumps({
    "loaded": sorted({"dataclasses", "inspect"} & set(sys.modules)),
    "generated": sorted(f"{m}.{n}" for m, mod in list(sys.modules.items())
                        if m.startswith("semifano")
                        for n, v in vars(mod).items()
                        if isinstance(v, type) and hasattr(v, "__dataclass_fields__")),
}))
"""


def test_cli_import_loads_no_dataclass_machinery():
    # -I: no site packages or environment; -B: no bytecode written under src/
    out = subprocess.run([sys.executable, "-I", "-B", "-c", COLD_START, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(out.stdout)
    assert report == {"loaded": [], "generated": []}

"""A seeded fuzz guard on the promise that the command line never ends in a
traceback.

Half the documents are random fans of dimension 1-3 with at most 7 rays,
most of them invalid: singular and non-smooth cones, zero and repeated rays,
cones that repeat an index or each other, fans that are not complete.  Half
are fixtures with one or two mutations: a ray entry moved by one, a cone
dropped, a ray added, a random (or no) `curve_class_basis`, two rays
swapped, or one cone index changed.  Every document runs through every
command at caps 0-3, in both formats.  The test is derandomized, like every
property test here (`conftest.py`), with a bounded example count, so it runs
the same documents every time.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from semifano.cli import COMMANDS, main
from conftest import load_fixture

FIXTURES = ("p2", "p1xp1", "p1cubed", "f2", "f3", "f2-blowup",
            "threefold-example", "kp2-bundle")
MUTATIONS = ("entry", "drop-cone", "add-ray", "basis", "swap-rays", "cone-index")
ENTRY = st.integers(-2, 2)


def vectors(length, **sizes):
    return st.lists(st.lists(ENTRY, min_size=length, max_size=length), **sizes)


@st.composite
def random_fans(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    cone = st.lists(st.integers(1, m), min_size=n, max_size=n)
    return {"dimension": n, "rays": draw(vectors(n, min_size=m, max_size=m)),
            "max_cones": draw(st.lists(cone, min_size=1, max_size=8))}


def index(items):
    return st.integers(0, len(items) - 1)


@st.composite
def mutated_fixtures(draw):
    doc = load_fixture(draw(st.sampled_from(FIXTURES)))
    rays, cones = doc["rays"], doc["max_cones"]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)):
        if kind == "entry":
            ray = rays[draw(index(rays))]
            ray[draw(index(ray))] += draw(st.sampled_from((-1, 1)))
        elif kind == "drop-cone" and len(cones) > 1:
            del cones[draw(index(cones))]
        elif kind == "add-ray":
            rays.append(draw(vectors(doc["dimension"], min_size=1, max_size=1))[0])
        elif kind == "basis":
            doc["curve_class_basis"] = draw(st.none() | vectors(len(rays), max_size=5))
        elif kind == "swap-rays":
            i, j = draw(index(rays)), draw(index(rays))
            rays[i], rays[j] = rays[j], rays[i]
        elif kind == "cone-index":
            cone = cones[draw(index(cones))]
            cone[draw(index(cone))] = draw(st.integers(1, len(rays)))
    return doc


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_fans(), mutated_fixtures()))
def test_every_command_exits_cleanly(tmp_path_factory, document):
    """Every run exits 0, 1 or 2.  Exit 2 prints nothing but one JSON error
    on stderr; any other exit prints nothing on stderr, and in the JSON
    format one JSON document on stdout."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(document))
    for command in COMMANDS:
        for cap in range(4):
            for fmt in ("text", "json"):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([command, str(path), "--box", str(cap), "--format", fmt])
                label = (command, cap, fmt, document)
                assert code in (0, 1, 2), label
                if code == 2:
                    assert out.getvalue() == "", label
                    assert "error" in json.loads(err.getvalue()), label
                else:
                    assert err.getvalue() == "", label
                    if fmt == "json":
                        json.loads(out.getvalue())

"""Disk counts compared between a fan and its toric blow-ups.

A star subdivision X' -> X (`threefolds.star_subdivision`) keeps the rays
of X and adds one, the exceptional divisor E.  A class of X, a relation
sum d_i v_i = 0, is a class of X' with 0 at the new ray, E . beta' = 0.
The two analyses share no rank, basis, correction scan or pass, yet their
class-keyed views (`oracles.class_keyed`) agree on every such class inside
both boxes: closed Gromov-Witten invariants of a blow-up keep those of X
for classes with E . beta = 0 in the cases J. Hu proves (Math. Z. 233,
2000); for the open invariants here the agreement is checked on data, not
assumed.  On the threefold a tripled correction coefficient, which no
`check` report sees (`tests/test_faults.py`), shows up on both pairs, and
every other stage fault there but the flipped pairing sign shows up too.
The same comparison runs at caps 3 over every blow-up of the small nef
fans of the seeded P3 corpus (`threefolds.blowups`), and, as a control of
the comparison itself, over the corner blow-ups of the nef surfaces of the
benchmark's universe, where the surface oracle checks every child.
"""

import pytest

from semifano import (
    TruncationBox,
    analyze,
    curve_lattice,
    is_semi_fano,
    superpotential,
    surface_admissible_deltas,
    validate_fan,
)
from conftest import fixture_lattice
from oracles import class_keyed
from test_faults import FAULTS, edit_top
from test_invariance import nef_universe
from threefolds import P3, blowups, faces, star_subdivision


def blowup_pairs(lattice):
    """(face, lattice, child lattice) for each 2-cone and maximal cone of
    the lattice's fan whose star subdivision validates, is semi-Fano and
    gets a nef basis."""
    out = []
    for face in faces(lattice.fan):
        child = star_subdivision(lattice.fan, face)
        if validate_fan(child) == [] and is_semi_fano(child)[0]:
            child_lattice = curve_lattice(child)
            if child_lattice.nef_verified:
                out.append((face, lattice, child_lattice))
    return out


def side(lattice, cap, fault=None):
    """(lattice, box, class-keyed view) of the fan's analysis at cap, with
    a `test_faults.FAULTS` fault put in first when one is given."""
    box = TruncationBox((cap,) * lattice.rank)
    an = analyze(lattice.fan, lattice, box)
    return lattice, box, class_keyed(an if fault is None else fault(an))


def differences(this, other, old):
    """(compared, differing): each disk count of this side, at one of the first
    old rays and a class with 0 at the rest, against other's at the same
    key, when the class lies inside other's box; a key missing there reads
    0."""
    lattice, box, seen = other
    compared = differing = 0
    for (i, cls), c in this[2].items():
        image = cls[:old] + (0,) * (lattice.fan.num_rays - old)
        e = lattice.coordinates(image)
        if i < old and not any(cls[old:]) and e is not None and box.contains(e):
            compared += 1
            differing += c != seen.get((i, image), 0)
    return compared, differing


def compare(lattice, child, cap, fault=None):
    """differences() of the parent against the child and back, the fault,
    if any, in both analyses."""
    old, sides = lattice.fan.num_rays, [side(lat, cap, fault) for lat in (lattice, child)]
    return differences(*sides, old), differences(*sides[::-1], old)


@pytest.mark.parametrize("name, cap, faces_, entries", [
    ("threefold-example", 5, [(3, 4), (3, 5)], 60),
    ("kp2-bundle", 6, [(1, 4), (2, 4), (3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 11),
])
def test_disk_counts_agree_across_blowups(name, cap, faces_, entries):
    # faces are ray indices from 0; on the threefold the point blow-up of
    # cone (4, 5, 6) is semi-Fano but gets no nef basis, so it is left out
    pairs = blowup_pairs(fixture_lattice(name)[1])
    assert [face for face, _, _ in pairs] == faces_
    for _, lattice, child in pairs:
        assert compare(lattice, child, cap) == ((entries, 0), (entries, 0))


def triple_every_top(monkeypatch):
    """The top term of every nonzero g0_i times 3, in every analysis: the
    fault goes into both sides, as a fault in the code would."""
    real = superpotential.compute_g0_family
    monkeypatch.setattr(superpotential, "compute_g0_family", lambda lattice, box: tuple(
        g if g.is_zero() else edit_top(g, lambda c: 3 * c) for g in real(lattice, box)))


def test_blowups_see_a_tripled_g0_coefficient(monkeypatch):
    triple_every_top(monkeypatch)
    pairs = blowup_pairs(fixture_lattice("threefold-example")[1])
    assert len(pairs) == 2
    for _, lattice, child in pairs:
        (_, there), (_, back) = compare(lattice, child, 5)
        assert there == back == 13


CAPS = {"threefold-example": 5, "kp2-bundle": 6}
G0_FAULTS = ("class dropped", "g0 coefficient x3", "g0 coefficient +1/7")
# (fixture, fault) -> the (there, back) differing counts of each pair of
# `blowup_pairs`; kp2-bundle's three curve blow-ups come first and catch
# nothing, and no pair catches the flipped sign, which PF=LF already sees
CAUGHT = {
    **{("threefold-example", f): [(4, 4)] * 2 for f in G0_FAULTS},
    ("threefold-example", "G_i top coefficient +1"): [(1, 1)] * 2,
    ("threefold-example", "pairing sign flipped"): [(0, 0)] * 2,
    ("threefold-example", "exp slice dropped"): [(0, 1)] * 2,
    **{("kp2-bundle", f): [(0, 0)] * 3 + [(1, 1)] * 3
       for f in (*G0_FAULTS, "G_i top coefficient +1")},
    ("kp2-bundle", "pairing sign flipped"): [(0, 0)] * 6,
    ("kp2-bundle", "exp slice dropped"): [(0, 0)] * 3 + [(0, 1)] * 3,
}


@pytest.mark.parametrize("name, fault", CAUGHT, ids=lambda x: x.replace(" ", "-"))
def test_blowups_see_the_stage_faults(name, fault):
    # each fault of `test_faults.FAULTS` goes into both analyses; every side
    # has a nonzero series for it to hit
    pairs = blowup_pairs(fixture_lattice(name)[1])
    caught = []
    for _, lattice, child in pairs:
        (_, there), (_, back) = compare(lattice, child, CAPS[name], FAULTS[fault])
        caught.append((there, back))
    assert caught == CAUGHT[name, fault]


def corpus_comparisons():
    """(parents, rows): the fans of `blowups(P3, 11, 200, 10)` with at most 7
    rays and a nef wall basis, as lattices, and a row (parent has a nonzero
    non-constant count, there, back) of `differences` at caps 3 for each of
    their `blowup_pairs`, each parent's side built once."""
    lattices = (curve_lattice(fan) for fan in blowups(P3, 11, 200, 10) if fan.num_rays <= 7)
    parents = [lattice for lattice in lattices if lattice.nef_verified]
    rows = []
    for lattice in parents:
        this, old = side(lattice, 3), lattice.fan.num_rays
        live = any(any(cls) for _, cls in this[2])
        for _, _, child in blowup_pairs(lattice):
            other = side(child, 3)
            rows.append((live, differences(this, other, old), differences(other, this, old)))
    return parents, rows


def test_disk_counts_agree_across_blowups_of_the_p3_corpus():
    parents, rows = corpus_comparisons()
    assert (len(parents), len(rows)) == (75, 620)
    assert sum(there[0] + back[0] for _, there, back in rows) == 7870
    assert not any(there[1] or back[1] for _, there, back in rows)
    # 115 pairs have a disk count to lose: a nonzero one at a nonzero class
    assert sum(live for live, _, _ in rows) == 115


def test_corpus_blowups_see_a_tripled_g0_coefficient(monkeypatch):
    triple_every_top(monkeypatch)
    _, rows = corpus_comparisons()
    caught = [(there[1], back[1]) for _, there, back in rows if there[1] or back[1]]
    # one entry differs on each of 20 pairs, seen from the parent's side only
    assert caught == [(1, 0)] * 20


def test_disk_counts_agree_across_corner_blowups_of_the_nef_surfaces():
    # a control for the comparison: on a surface `faces` lists the maximal
    # cones only, and the surface oracle gives every child's deltas
    pairs = entries = 0
    for fan, _ in nef_universe():
        for _, lattice, child in blowup_pairs(curve_lattice(fan)):
            box = TruncationBox((3,) * child.rank)
            deltas = [d.delta for d in analyze(child.fan, child, box).deltas]
            assert deltas == list(surface_admissible_deltas(child.fan, child, box))
            (there, differing), (back, differing_back) = compare(lattice, child, 3)
            assert differing == differing_back == 0, child.fan.rays
            pairs += 1
            entries += there + back
    assert (pairs, entries) == (43, 410)

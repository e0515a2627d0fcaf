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
`check` report sees (`tests/test_faults.py`), shows up on both pairs.
"""

import pytest

from semifano import (
    TruncationBox,
    analyze,
    curve_lattice,
    is_semi_fano,
    superpotential,
    validate_fan,
)
from conftest import fixture_lattice
from oracles import class_keyed
from test_faults import edit_top
from threefolds import faces, star_subdivision


def blowup_pairs(name):
    """(face, parent lattice, child lattice) for each 2-cone and maximal
    cone of the fixture whose star subdivision validates, is semi-Fano and
    gets a nef basis."""
    fan, lattice = fixture_lattice(name)
    out = []
    for face in faces(fan):
        child = star_subdivision(fan, face)
        if validate_fan(child) == [] and is_semi_fano(child)[0]:
            child_lattice = curve_lattice(child)
            if child_lattice.nef_verified:
                out.append((face, lattice, child_lattice))
    return out


def side(lattice, cap):
    """(lattice, box, class-keyed view) of the fan's analysis at cap."""
    box = TruncationBox((cap,) * lattice.rank)
    return lattice, box, class_keyed(analyze(lattice.fan, lattice, box))


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


def compare(lattice, child, cap):
    """differences() of the parent against the child and back."""
    old, sides = lattice.fan.num_rays, [side(lat, cap) for lat in (lattice, child)]
    return differences(*sides, old), differences(*sides[::-1], old)


@pytest.mark.parametrize("name, cap, faces_, entries", [
    ("threefold-example", 5, [(3, 4), (3, 5)], 60),
    ("kp2-bundle", 6, [(1, 4), (2, 4), (3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 11),
])
def test_disk_counts_agree_across_blowups(name, cap, faces_, entries):
    # faces are ray indices from 0; on the threefold the point blow-up of
    # cone (4, 5, 6) is semi-Fano but gets no nef basis, so it is left out
    pairs = blowup_pairs(name)
    assert [face for face, _, _ in pairs] == faces_
    for _, lattice, child in pairs:
        assert compare(lattice, child, cap) == ((entries, 0), (entries, 0))


def test_blowups_see_a_tripled_g0_coefficient(monkeypatch):
    # the fault goes into both analyses, as a fault in the code would
    real = superpotential.compute_g0_family
    monkeypatch.setattr(superpotential, "compute_g0_family", lambda lattice, box: tuple(
        g if g.is_zero() else edit_top(g, lambda c: 3 * c) for g in real(lattice, box)))
    pairs = blowup_pairs("threefold-example")
    assert len(pairs) == 2
    for _, lattice, child in pairs:
        (_, there), (_, back) = compare(lattice, child, 5)
        assert there == back == 13

"""Disk counts are functions of curve classes: the answer keyed by (ray,
class) is the same for a fan mapped by a unimodular matrix and re-indexed.

The engine keys its counts by exponents over a basis it chooses, and the
choice follows the ray order, so a fault tied to an index or to the basis
passes every check that reads one analysis.  Here each variant is analysed
afresh, with the basis its own nef search picks, and the two class-keyed
views (`oracles.class_keyed`) must agree on every class inside both boxes.
"""

import sys
from pathlib import Path

import pytest

from semifano import TruncationBox, analyze, curve_lattice
from semifano.cli import parse_input
from conftest import fixture_analysis
from oracles import GL2, GL3, class_keyed, variants
from test_faults import g0_fault

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import surfaces  # noqa: E402


def push(cls, pi):
    """The class, or the basis class, cls of a fan as a class of the
    variant that re-indexes ray k as pi[k]."""
    out = [0] * len(pi)
    for k, x in enumerate(cls):
        out[pi[k]] = x
    return tuple(out)


def disagreements(fan, lattice, box, maps, build=analyze):
    """The (variant, key) pairs at which the analyses that build makes of
    fan and of a variant differ, over the classes inside both boxes, in
    fan's ray indices; and how many variants chose a basis other than
    lattice's."""
    view, out, moved = class_keyed(build(fan, lattice, box)), [], 0
    for n, (pi, image) in enumerate(variants(fan, maps)):
        other = build(image, curve_lattice(image), box)
        pulled = {(pi.index(i), tuple(cls[j] for j in pi)): c
                  for (i, cls), c in class_keyed(other).items()}
        moved += other.lattice.basis != tuple(push(b, pi) for b in lattice.basis)
        for key in set(view) | set(pulled):
            if view.get(key) != pulled.get(key) and all(
                    e is not None and box.contains(e)
                    for e in (lattice.coordinates(key[1]),
                              other.lattice.coordinates(push(key[1], pi)))):
                out.append((n, key))
    return out, moved


def nef_universe():
    """The first (fan, cap) of each universe surface with a nef wall basis."""
    seen = {}
    for rays, cap in surfaces.universe():
        fan = parse_input(surfaces.document(rays))[0]
        if rays not in seen and curve_lattice(fan).nef_verified:
            seen[rays] = (fan, cap)
    return list(seen.values())


def test_disk_counts_are_invariant_on_the_nef_universe():
    cases = nef_universe()
    assert len(cases) == 35
    moved = 0
    for fan, cap in cases:
        lattice = curve_lattice(fan)
        bad, n = disagreements(fan, lattice, TruncationBox((cap,) * lattice.rank), GL2)
        assert bad == [], fan.rays
        moved += n
    # the chosen basis follows the ray order on many variants
    assert moved > 0


@pytest.mark.parametrize("name, caps, maps", [
    ("f2", (4, 4), GL2),
    ("f2-blowup", (3, 3, 3), GL2),
    ("kp2-bundle", (4, 4), GL3),
    ("p1cubed", (3, 3, 3), GL3),
    ("threefold-example", (4, 4, 4, 4), GL3),
])
def test_disk_counts_are_invariant_on_the_fixtures(name, caps, maps):
    an = fixture_analysis(name, caps)
    assert disagreements(an.fan, an.lattice, an.box, maps)[0] == []


def tripled_g0(fan, lattice, box):
    """An analysis with a g0 fault in every run, as a fault in the code
    would put it: the top coefficient of the first nonzero g0_i tripled."""
    an = analyze(fan, lattice, box)
    return an if all(g.is_zero() for g in an.g0) else g0_fault(lambda c: 3 * c)(an)


def test_invariance_catches_a_tripled_g0_coefficient():
    # on this surface the nef search picks other bases for some variants, so
    # the fault lands on different classes: their views disagree
    rays = ((1, 0), (0, 1), (-1, -1), (-2, -3), (-1, -2), (0, -1))
    fan = parse_input(surfaces.document(rays))[0]
    lattice = curve_lattice(fan)
    box = TruncationBox((2,) * lattice.rank)
    assert disagreements(fan, lattice, box, GL2)[0] == []
    assert disagreements(fan, lattice, box, GL2, tripled_g0)[0]


def test_invariance_sees_the_g0_fault_on_18_surfaces():
    # a complement to a check of g0 itself, not a replacement: on the other
    # nef surfaces every variant puts the fault on the same class, or g0 is
    # zero and there is no fault to see
    caught = 0
    for fan, cap in nef_universe():
        lattice = curve_lattice(fan)
        box = TruncationBox((cap,) * lattice.rank)
        caught += bool(disagreements(fan, lattice, box, GL2, tripled_g0)[0])
    assert caught == 18

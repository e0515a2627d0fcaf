"""The forward map against the GKZ recurrence of the toric I-function.

`oracles.gkz_violations` reads only the pairings, the basis and the
coefficients of `mirror.forward`; it shares no code with the factorial
formula or the face scan that build the correction series.  It holds on
the fixtures, on every nef surface of the benchmark's universe and on the
seeded blow-ups of P3, P2 x P1 and P1 x P1 x P1 with a nef wall basis
(`tests/threefolds.py`), and it sees every single-coefficient fault in a
correction series: on the threefold that includes the kinds, a coefficient
x3 and a dropped class, that no `check` report sees (`tests/test_faults.py`).
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from semifano import MultiSeries, TruncationBox, analyze, curve_lattice, structural_report
from semifano.cli import parse_input
from conftest import fixture_analysis
from oracles import gkz_violations
from threefolds import P1_P1_P1, P2_P1, P3, blowups

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import surfaces  # noqa: E402


@pytest.mark.parametrize("name, caps", [
    ("f2", (5, 5)), ("f2-blowup", (5, 5, 5)), ("kp2-bundle", (4, 4)),
    ("threefold-example", (4,) * 4), ("threefold-example", (7,) * 4),
])
def test_forward_map_satisfies_the_recurrence_on_fixtures(name, caps):
    an = fixture_analysis(name, caps)
    assert gkz_violations(an) == []
    # every fixture has a c1 = 0 basis class to check; the threefold has 3
    flat = [b for b in an.lattice.basis if sum(b) == 0]
    assert len(flat) == (3 if name == "threefold-example" else 1)


def test_forward_map_satisfies_the_recurrence_on_the_universe():
    pairs = 0
    for rays, cap in surfaces.universe():
        fan = parse_input(surfaces.document(rays))[0]
        lattice = curve_lattice(fan)
        if lattice.nef_verified:
            an = analyze(fan, lattice, TruncationBox((cap,) * lattice.rank))
            assert gkz_violations(an) == [], (rays, cap)
            pairs += 1
    assert pairs == 62


def recurrence_counts(fans):
    """(fans checked, with a c1 = 0 basis class, with a nonzero g0) over the
    fans with a nef wall basis, each with no GKZ violation and a passing
    `structural_report` at caps 3."""
    checked = flat = live = 0
    for fan in fans:
        lattice = curve_lattice(fan)
        if lattice.nef_verified:
            an = analyze(fan, lattice, TruncationBox((3,) * lattice.rank))
            assert gkz_violations(an) == [] and structural_report(an).passed, fan
            checked += 1
            flat += any(sum(b) == 0 for b in lattice.basis)
            live += any(not g.is_zero() for g in an.g0)
    return checked, flat, live


def test_forward_map_satisfies_the_recurrence_on_p3_blowups():
    # the recurrence has a c1 = 0 class to check on 87, and a nonzero g0 on 50
    assert recurrence_counts(blowups(P3, 11, 200, 10)) == (114, 87, 50)


@pytest.mark.parametrize("start, counts", [(P2_P1, (33, 26, 5)), (P1_P1_P1, (33, 28, 4))],
                         ids=["P2xP1", "P1xP1xP1"])
def test_forward_map_satisfies_the_recurrence_on_product_blowups(start, counts):
    assert recurrence_counts(blowups(start, 11, 60, 9)) == counts


def single_coefficient_faults(an):
    """A fresh analysis for each nonzero coefficient of each g0_i and each
    edit of it: times 3, plus 1, and dropped."""
    for i, s in enumerate(an.g0):
        terms = {e: Fraction(n, d) for e, n, d in s.coefficients()}
        for e, c in terms.items():
            for value in (3 * c, c + 1, None):
                edited = {k: v for k, v in terms.items() if k != e}
                if value is not None:
                    edited[e] = value
                g0 = list(an.g0)
                g0[i] = MultiSeries.from_dict(an.box, edited)
                faulty = analyze(an.fan, an.lattice, an.box)
                faulty.__dict__["g0"] = tuple(g0)
                yield faulty


@pytest.mark.parametrize("name, caps, count", [
    ("threefold-example", (5,) * 4, 72), ("f2-blowup", (4,) * 3, 12),
    ("kp2-bundle", (4, 4), 12), ("f2", (4, 4), 12),
])
def test_every_single_coefficient_fault_is_caught(name, caps, count):
    faults = list(single_coefficient_faults(fixture_analysis(name, caps)))
    assert len(faults) == count
    assert all(gkz_violations(f) for f in faults)


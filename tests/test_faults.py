"""Which `check` report sees which stage fault: the fault matrix.

Each fault is put into a fresh analysis as one faulty stage, in its
`__dict__`, where the stage's cached property finds it, so every later
stage is built from the fault.  `cli.cmd_check` then runs on that analysis
as `semifano check` would.  The matrix is the spec of what `check` catches
today: in dimension 3 no report sees a `g0` fault or a fault in the pass,
as both runtime identities restate the construction (`1 + delta_i` is
`exp(G_i)`, and the inverse is read off the `G_i`), and on a surface only
the surface oracle does.  A check that closes such a gap changes its row
here on purpose.
"""

from fractions import Fraction

import pytest

from semifano import MultiSeries, analyze, cli, combine
from semifano.mirror import MirrorMapPair
from conftest import fixture_analysis, fixture_path

BOXES = {"f2-blowup": (3, 3, 3), "kp2-bundle": (3, 3), "threefold-example": (3, 3, 3, 3)}
REPORTS = {"multiplicative-consistency", "structure", "PF=LF"}
SURFACE_REPORTS = REPORTS | {"surface-oracle"}


def edit_top(series, edit):
    """The series with its last term in graded order, c, replaced by
    edit(c), or dropped when that is None."""
    terms = {e: Fraction(n, d) for e, n, d in series.coefficients()}
    top = series.coefficients()[-1][0]
    value = edit(terms.pop(top))
    if value is not None:
        terms[top] = value
    return MultiSeries.from_dict(series.box, terms)


def first_nonzero(series):
    return next(i for i, s in enumerate(series) if not s.is_zero())


def g0_fault(edit):
    """A fault in the correction series: the top term of the first nonzero
    g0_i edited, every later stage built from it."""
    def inject(an):
        g0 = list(an.g0)
        i = first_nonzero(g0)
        g0[i] = edit_top(g0[i], edit)
        faulty = analyze(an.fan, an.lattice, an.box)
        faulty.__dict__["g0"] = tuple(g0)
        return faulty
    return inject


def pass_fault(an):
    """A fault in the pass: the top coefficient of the first nonzero G_i off
    by 1, with the inverse rebuilt from the faulty G_i as the pass reads it."""
    mm = an.mirror
    pulled = list(mm.pulled)
    i = first_nonzero(pulled)
    pulled[i] = edit_top(pulled[i], lambda c: c + 1)
    inverse = tuple(
        combine(an.box, [(an.lattice.pairing(k, a), g) for k, g in enumerate(pulled)])
        for a in range(an.lattice.rank))
    faulty = analyze(an.fan, an.lattice, an.box)
    faulty.__dict__["mirror"] = MirrorMapPair(mm.forward, inverse, tuple(pulled))
    return faulty


FAULTS = {
    "class dropped": g0_fault(lambda c: None),
    "g0 coefficient x3": g0_fault(lambda c: 3 * c),
    "g0 coefficient +1/7": g0_fault(lambda c: c + Fraction(1, 7)),
    "G_i top coefficient +1": pass_fault,
}

# (fixture, fault) -> the reports that FAIL; every other report passes
MATRIX = {
    ("f2-blowup", "class dropped"): {"surface-oracle"},
    ("f2-blowup", "g0 coefficient x3"): {"surface-oracle"},
    ("f2-blowup", "g0 coefficient +1/7"): {"surface-oracle"},
    ("f2-blowup", "G_i top coefficient +1"): {"surface-oracle"},
    ("kp2-bundle", "class dropped"): set(),
    ("kp2-bundle", "g0 coefficient x3"): set(),
    ("kp2-bundle", "g0 coefficient +1/7"): set(),
    ("kp2-bundle", "G_i top coefficient +1"): set(),
    ("threefold-example", "class dropped"): set(),
    ("threefold-example", "g0 coefficient x3"): set(),
    ("threefold-example", "g0 coefficient +1/7"): set(),
    ("threefold-example", "G_i top coefficient +1"): set(),
}


def run_check(name, analysis):
    args = cli.build_parser().parse_args(["check", str(fixture_path(f"{name}.json"))])
    return cli.cmd_check(args, analysis)


@pytest.mark.parametrize("name", BOXES)
def test_clean_analysis_passes_every_report(name):
    lines, results, ok = run_check(name, fixture_analysis(name, BOXES[name]))
    assert ok
    assert set(results) == (SURFACE_REPORTS if name == "f2-blowup" else REPORTS)


@pytest.mark.parametrize("name, fault", MATRIX, ids=lambda x: x.replace(" ", "-"))
def test_fault_matrix(name, fault):
    clean = fixture_analysis(name, BOXES[name])
    faulty = FAULTS[fault](clean)
    # the fault reaches the disk counts, so a report that passes missed it
    assert [d.pulled for d in faulty.deltas] != [d.pulled for d in clean.deltas]
    lines, results, ok = run_check(name, faulty)
    failed = {report for report, passed in results.items() if not passed}
    assert failed == MATRIX[name, fault]
    assert set(results) == (SURFACE_REPORTS if name == "f2-blowup" else REPORTS)
    assert ok == (not failed)
    assert [line for line in lines if line.endswith("FAIL")] == [
        f"{report}: FAIL" for report in results if report in failed]

"""Which `check` report sees which stage fault: the fault matrix.

Each fault is put into a fresh analysis as one faulty stage, in its
`__dict__`, where the stage's cached property finds it, so every later
stage is built from the fault.  `cli.cmd_check` then runs on that analysis
as `semifano check` would.  The matrix is the spec of what `check` catches
today.  In dimension 3 no report sees a `g0` fault that keeps the disk
counts integral, or a fault in the `G_i`, as both runtime identities
restate the construction (`1 + delta_i` is `exp(G_i)`, and the inverse is
read off the `G_i`); on a surface only the surface oracle does.  The
structural report sees a fractional disk count, and the identities see a
fault that breaks one of them: a pairing the pass reads, or an `exp`.  A
check that closes such a gap changes its row here on purpose.
"""

from fractions import Fraction

import pytest

from semifano import (
    InvariantSeries,
    MultiSeries,
    analyze,
    cli,
    combine,
    invariant_table,
    pull_back,
    series,
    structural_report,
)
from semifano.mirror import MirrorMapPair
from semifano.series import _lowest
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


def sign_fault(an):
    """A fault in the pairings the pass reads: the first nonzero entry of
    the first nonzero g0_i's row with its sign flipped, and the mirror
    stage rebuilt from those rows by the pass."""
    rows = [list(an.lattice.pairing_row(i)) for i in range(an.fan.num_rays)]
    row = rows[first_nonzero(an.g0)]
    a = next(a for a, v in enumerate(row) if v)
    row[a] = -row[a]
    pulled, inverse = pull_back(an.g0, rows)
    faulty = analyze(an.fan, an.lattice, an.box)
    faulty.__dict__["mirror"] = MirrorMapPair(an.mirror.forward, inverse, pulled)
    return faulty


def exp_fault(an):
    """A fault in exp: the top-degree terms of the first nonzero ray's
    1 + delta_i dropped, as a faulty deltas stage; its G_i is unchanged."""
    deltas = [InvariantSeries(d.ray_index, d.pulled) for d in an.deltas]
    d = deltas[first_nonzero([d.pulled for d in deltas])]
    terms = d.one_plus.coefficients()
    top = sum(terms[-1][0])
    d.__dict__["one_plus"] = MultiSeries.from_dict(
        an.box, {e: Fraction(n, den) for e, n, den in terms if sum(e) < top})
    faulty = analyze(an.fan, an.lattice, an.box)
    faulty.__dict__["deltas"] = tuple(deltas)
    return faulty


FAULTS = {
    "class dropped": g0_fault(lambda c: None),
    "g0 coefficient x3": g0_fault(lambda c: 3 * c),
    "g0 coefficient +1/7": g0_fault(lambda c: c + Fraction(1, 7)),
    "G_i top coefficient +1": pass_fault,
    "pairing sign flipped": sign_fault,
    "exp slice dropped": exp_fault,
}

# (fixture, fault) -> the reports that FAIL; every other report passes
MATRIX = {
    ("f2-blowup", "class dropped"): {"structure", "surface-oracle"},
    ("f2-blowup", "g0 coefficient x3"): {"structure", "surface-oracle"},
    ("f2-blowup", "g0 coefficient +1/7"): {"structure", "surface-oracle"},
    ("f2-blowup", "G_i top coefficient +1"): {"surface-oracle"},
    ("f2-blowup", "pairing sign flipped"): {"multiplicative-consistency", "PF=LF"},
    ("f2-blowup", "exp slice dropped"): {"PF=LF", "surface-oracle"},
    ("kp2-bundle", "class dropped"): {"structure"},
    ("kp2-bundle", "g0 coefficient x3"): {"structure"},
    ("kp2-bundle", "g0 coefficient +1/7"): {"structure"},
    ("kp2-bundle", "G_i top coefficient +1"): set(),
    ("kp2-bundle", "pairing sign flipped"): {"multiplicative-consistency", "PF=LF"},
    ("kp2-bundle", "exp slice dropped"): {"PF=LF"},
    ("threefold-example", "class dropped"): set(),
    ("threefold-example", "g0 coefficient x3"): set(),
    ("threefold-example", "g0 coefficient +1/7"): {"structure"},
    ("threefold-example", "G_i top coefficient +1"): set(),
    ("threefold-example", "pairing sign flipped"): {"multiplicative-consistency", "PF=LF"},
    ("threefold-example", "exp slice dropped"): {"PF=LF"},
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
    # the fault reaches the inverse or the disk counts, so a report that
    # passes missed it
    def seen(an):
        return an.mirror.inverse, [d.one_plus for d in an.deltas]
    assert seen(faulty) != seen(clean)
    lines, results, ok = run_check(name, faulty)
    failed = {report for report, passed in results.items() if not passed}
    assert failed == MATRIX[name, fault]
    assert set(results) == (SURFACE_REPORTS if name == "f2-blowup" else REPORTS)
    assert ok == (not failed)
    assert [line for line in lines if line.endswith("FAIL")] == [
        f"{report}: FAIL" for report in results if report in failed]


# fixture -> the reports that FAIL when every exp drops its top-degree slice
KERNEL_MATRIX = {
    "f2-blowup": {"structure", "surface-oracle"},
    "kp2-bundle": {"structure", "PF=LF"},
    "threefold-example": {"structure", "PF=LF"},
}


@pytest.mark.parametrize("name", KERNEL_MATRIX)
def test_exp_kernel_fault(name, monkeypatch):
    """A fault in the exp kernel itself, series._exp, that W_PF and W_LF
    both read: each exp's top-degree terms dropped, so exp(0) = 1 loses its
    one and structure sees a constant disk count that is not 1.  Where a
    W_PF unit and its W_LF unit are the same memo entries, PF=LF compares a
    faulty exp with itself; what still sees the fault there is each
    cone-ray term, exp(-G_k) (1 + delta_k) = 1."""
    real = series._exp

    def top_dropped(s, box):
        den, e = real(s, box)
        top = max(p >> box.layout[5] for p in e)
        return _lowest(den, {p: c for p, c in e.items() if p >> box.layout[5] < top})

    monkeypatch.setattr(series, "_exp", top_dropped)
    lines, results, ok = run_check(name, fixture_analysis(name, BOXES[name]))
    assert {report for report, passed in results.items() if not passed} == KERNEL_MATRIX[name]
    assert not ok


@pytest.mark.parametrize("name, rays", [
    ("f2-blowup", [5]), ("kp2-bundle", [1]), ("threefold-example", [1, 2])])
def test_structure_names_each_ray_whose_table_is_refused(name, rays):
    # +1/7 in one g0 coefficient makes these rays' disk counts fractional:
    # structure names each ray whose table `invariants` refuses
    faulty = FAULTS["g0 coefficient +1/7"](fixture_analysis(name, BOXES[name]))
    assert structural_report(faulty).details == tuple(
        f"ray {i}: non-integer disk count" for i in rays)
    refused = []
    for d in faulty.deltas:
        try:
            invariant_table(d)
        except ValueError:
            refused.append(d.ray_index + 1)
    assert refused == rays

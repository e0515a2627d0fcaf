from fractions import Fraction

import pytest

from semifano import (
    DiagonalUnitMap,
    MultiSeries,
    TruncationBox,
    add,
    assemble_W_HV,
    assemble_W_LF,
    assemble_W_PF,
    check_multiplicative_consistency,
    check_PF_equals_LF,
    invariant_table,
    normalize_W_LF,
    render_table,
    structural_report,
)
from semifano.mirror import MirrorMapPair
from semifano.superpotential import InvariantSeries
from conftest import fixture_analysis


def test_f2_delta4_is_q1(f2_analysis):
    an = f2_analysis
    assert an.deltas[3].delta.to_dict() == {(1, 0): Fraction(1)}
    for i in (0, 1, 2):
        assert an.deltas[i].delta.is_zero()


def test_f2_invariant_table(f2_analysis):
    table = invariant_table(f2_analysis.deltas[3])
    assert table.entries[(0, 0)] == 1
    assert table.entries[(1, 0)] == 1
    assert all(
        v == 0 for e, v in table.entries.items() if e not in {(0, 0), (1, 0)}
    )
    assert table.non_integer == ()


def test_invariant_table_strict_vs_warn():
    box = TruncationBox((2,))
    bad = InvariantSeries(0, MultiSeries.from_dict(box, {(1,): Fraction(1, 2)}))
    with pytest.raises(ValueError):
        invariant_table(bad, strict=True)
    table = invariant_table(bad, strict=False)
    assert table.non_integer == ((1,),)


def test_render_table_golden():
    box = TruncationBox((1, 1))
    inv = InvariantSeries(0, MultiSeries.from_dict(box, {(1, 0): 3}))
    assert render_table(invariant_table(inv)) == (
        "k1\tk2\tn\n0\t0\t1\n0\t1\t0\n1\t0\t3\n1\t1\t0"
    )


def test_w_hv_f2(f2_analysis):
    an = f2_analysis
    sigma = an.fan.max_cones.index((0, 1))
    whv = assemble_W_HV(an.fan, an.lattice, sigma, an.box)
    by_ray = {t.ray_index: t for t in whv.terms}
    assert by_ray[0].z_exponent == (1, 0) and by_ray[0].q_exponent == (0, 0)
    assert by_ray[1].z_exponent == (0, 1)
    assert by_ray[2].z_exponent == (-1, -2) and by_ray[2].q_exponent == (1, 2)
    assert by_ray[3].z_exponent == (0, -1) and by_ray[3].q_exponent == (0, 1)
    assert all(t.unit == MultiSeries.one(an.box) for t in whv.terms)


def test_w_hv_p2():
    an = fixture_analysis("p2", (3,))
    whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
    by_ray = {t.ray_index: t for t in whv.terms}
    assert by_ray[2].z_exponent == (-1, -1) and by_ray[2].q_exponent == (1,)


def test_w_pf_equals_w_lf_f2_all_cones(f2_analysis):
    an = f2_analysis
    for sigma in range(len(an.fan.max_cones)):
        whv = assemble_W_HV(an.fan, an.lattice, sigma, an.box)
        wpf = assemble_W_PF(whv, an.mirror, an.box)
        wlf = normalize_W_LF(assemble_W_LF(whv, an.deltas), an.fan, an.deltas)
        report = check_PF_equals_LF(wpf, wlf)
        assert report.passed, (sigma, report.details)


def test_w_pf_f2_corrected_term(f2_analysis):
    an = f2_analysis
    sigma = an.fan.max_cones.index((0, 1))
    whv = assemble_W_HV(an.fan, an.lattice, sigma, an.box)
    wpf = assemble_W_PF(whv, an.mirror, an.box)
    by_ray = {t.ray_index: t for t in wpf.terms}
    # the section term picks up exactly 1 + q1; the fiber term is untouched
    assert by_ray[3].unit.to_dict() == {(0, 0): 1, (1, 0): 1}
    assert by_ray[2].unit == MultiSeries.one(an.box)


def test_threefold_pf_term_cancellation():
    an = fixture_analysis("threefold-example", (3, 3, 3, 3))
    sigma = an.fan.max_cones.index((4, 5, 6))
    whv = assemble_W_HV(an.fan, an.lattice, sigma, an.box)
    wpf = assemble_W_PF(whv, an.mirror, an.box)
    term = next(t for t in wpf.terms if t.ray_index == 2)
    # ray 3's term pairs to zero with every corrected ray, so the coordinate
    # change cancels and the coefficient stays the plain monomial
    assert term.q_exponent == (2, 6, 10, 5)
    assert term.unit == MultiSeries.one(an.box)


def test_w_pf_equals_w_lf_threefold():
    an = fixture_analysis("threefold-example", (3, 3, 3, 3))
    whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
    wpf = assemble_W_PF(whv, an.mirror, an.box)
    wlf = normalize_W_LF(assemble_W_LF(whv, an.deltas), an.fan, an.deltas)
    assert check_PF_equals_LF(wpf, wlf).passed


def test_fano_superpotentials_coincide():
    for name, caps in (("p2", (3,)), ("p1xp1", (3, 3)), ("p1cubed", (2, 2, 2))):
        an = fixture_analysis(name, caps)
        whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
        wpf = assemble_W_PF(whv, an.mirror, an.box)
        wlf = normalize_W_LF(assemble_W_LF(whv, an.deltas), an.fan, an.deltas)
        for a, b in zip(whv.terms, wpf.terms):
            assert a.unit == b.unit
        for a, b in zip(whv.terms, wlf.terms):
            assert a.unit == b.unit


def test_multiplicative_consistency_fixtures():
    for name, caps in (
        ("p2", (3,)),
        ("f2", (5, 5)),
        ("f2-blowup", (4, 4, 4)),
        ("kp2-bundle", (4, 4)),
        ("threefold-example", (3, 3, 3, 3)),
    ):
        an = fixture_analysis(name, caps)
        report = check_multiplicative_consistency(
            an.deltas, an.mirror, an.lattice
        )
        assert report.passed, (name, report.details)


def test_multiplicative_consistency_detects_wrong_inverse(f2_analysis):
    an = f2_analysis
    w = list(an.mirror.inverse.components)
    w[1] = add(w[1], MultiSeries.from_dict(an.box, {(2, 1): 1}))
    wrong = MirrorMapPair(an.mirror.forward, DiagonalUnitMap(tuple(w)))
    report = check_multiplicative_consistency(an.deltas, wrong, an.lattice)
    assert not report.passed
    assert report.details == ("basis class 2: product identity fails",)


def test_structural_report_fixtures():
    for name, caps in (
        ("p2", (3,)),
        ("p1xp1", (3, 3)),
        ("f2", (5, 5)),
        ("f2-blowup", (4, 4, 4)),
        ("kp2-bundle", (4, 4)),
        ("threefold-example", (3, 3, 3, 3)),
    ):
        an = fixture_analysis(name, caps)
        report = structural_report(an)
        assert report.passed, (name, report.details)


def test_pf_lf_check_reports_discrepancy(f2_analysis):
    an = f2_analysis
    whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
    wpf = assemble_W_PF(whv, an.mirror, an.box)
    report = check_PF_equals_LF(wpf, whv)
    assert not report.passed
    assert any("ray 4" in d for d in report.details)

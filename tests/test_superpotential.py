import gc
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from semifano import (
    MultiSeries,
    TruncationBox,
    analyze,
    assemble_W_HV,
    assemble_W_LF,
    assemble_W_PF,
    check_multiplicative_consistency,
    check_PF_equals_LF,
    compare_superpotentials,
    invariant_table,
    normalize_W_LF,
    render_table,
    structural_report,
)
from semifano import series
from semifano.series import render
from semifano.mirror import MirrorMapPair
from semifano.superpotential import InvariantSeries
from conftest import fixture_analysis, fixture_lattice
from oracles import add, oracle_log, to_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402

FIXTURES = ("p2", "p1xp1", "p1cubed", "f2", "f3", "f2-blowup",
            "threefold-example", "kp2-bundle")


def invariant(i, box, delta):
    """The InvariantSeries of ray i whose delta has these terms: it keeps
    G = log(1 + delta)."""
    one_plus = MultiSeries.from_dict(box, {**delta, (0,) * box.arity: 1})
    inv = InvariantSeries(i, oracle_log(one_plus))
    assert inv.delta == MultiSeries.from_dict(box, delta)
    return inv


def test_f2_delta4_is_q1(f2_analysis):
    an = f2_analysis
    assert to_dict(an.deltas[3].delta) == {(1, 0): Fraction(1)}
    for i in (0, 1, 2):
        assert an.deltas[i].delta.is_zero()


def test_f2_invariant_table(f2_analysis):
    table = invariant_table(f2_analysis.deltas[3])
    assert table.entries == {(0, 0): 1, (1, 0): 1}


def test_invariant_table_refuses_fractions():
    box = TruncationBox((2,))
    bad = invariant(0, box, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError) as exc:
        invariant_table(bad)
    assert str(exc.value) == "non-integer disk count at exponents [(1,)] for ray 1"


def test_render_table_golden():
    box = TruncationBox((1, 1))
    inv = invariant(0, box, {(1, 0): 3})
    assert render_table(invariant_table(inv)) == (
        "k1\tk2\tn\n0\t0\t1\n0\t1\t0\n1\t0\t3\n1\t1\t0"
    )


def oracle_invariant_table(inv):
    """The table code before it moved to the packed series: every entry of
    the series' box looked up in the Fraction terms and tested one at a
    time.  Returns (box, entries as ints)."""
    series = inv.one_plus
    box = series.box
    coeffs = to_dict(series)
    entries = {
        exp: coeffs.get(exp, Fraction(0))
        for exp in sorted(product(*[range(c + 1) for c in box.caps]), key=sum)
    }
    bad = [exp for exp, c in entries.items() if c.denominator != 1]
    if bad:
        raise ValueError(
            f"non-integer disk count at exponents {bad} for ray {inv.ray_index + 1}"
        )
    return box, {exp: int(c) for exp, c in entries.items()}


def oracle_render_table(box, entries):
    l = box.arity
    lines = ["\t".join([f"k{a + 1}" for a in range(l)] + ["n"])]
    for exp, c in entries.items():
        lines.append("\t".join([str(e) for e in exp] + [str(c)]))
    return "\n".join(lines)


def assert_table_matches_oracle(inv):
    try:
        want_box, entries = oracle_invariant_table(inv)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            invariant_table(inv)
        assert str(got.value) == str(exc)
        return
    table = invariant_table(inv)
    assert list(table.entries.items()) == [(e, n) for e, n in entries.items() if n]
    assert all(type(n) is int for n in table.entries.values())
    assert table.box == want_box and table.ray_index == inv.ray_index
    assert render_table(table) == oracle_render_table(want_box, entries)


# every fixture at a small box of its rank
TABLE_CAPS = {
    "f2": (3, 3), "f2-blowup": (3, 3, 3), "f3": (3, 3), "kp2-bundle": (3, 3),
    "p1cubed": (3, 3, 3), "p1xp1": (3, 3), "p2": (3,),
    "threefold-example": (2, 2, 2, 2),
}


@pytest.mark.parametrize("name", sorted(TABLE_CAPS))
def test_table_matches_oracle_on_fixtures(name):
    for inv in fixture_analysis(name, TABLE_CAPS[name]).deltas:
        assert_table_matches_oracle(inv)


def test_table_matches_oracle_at_the_papers_box():
    # the paper's tables: every threefold ray at 7^4
    an = fixture_analysis("threefold-example", (7, 7, 7, 7))
    assert max(len(invariant_table(inv).terms) for inv in an.deltas) == 51
    for inv in an.deltas:
        assert_table_matches_oracle(inv)


def test_table_matches_oracle_with_fractions():
    box = TruncationBox((3, 3))
    terms = {(1, 0): Fraction(1, 2), (0, 2): Fraction(-1, 3), (2, 1): 4,
             (3, 3): Fraction(5, 2)}
    inv = invariant(1, box, terms)
    assert_table_matches_oracle(inv)
    with pytest.raises(ValueError) as exc:
        invariant_table(inv)
    assert str(exc.value) == (
        "non-integer disk count at exponents [(1, 0), (0, 2), (3, 3)] for ray 2")


@pytest.mark.parametrize("caps", [(0, 3), (2, 0, 1), (11, 0), (0,), (12,)])
def test_table_matches_oracle_on_odd_caps(caps):
    box = TruncationBox(caps)
    terms = {exp: (-1) ** sum(exp) * 10 ** sum(exp) for exp in
             product(*[range(c + 1) for c in caps]) if sum(exp) % 3 == 1}
    assert_table_matches_oracle(invariant(0, box, terms))


def test_render_table_arity_zero():
    inv = invariant(0, TruncationBox(()), {})
    assert_table_matches_oracle(inv)
    assert render_table(invariant_table(inv)) == "n\n1"


def test_entries_are_the_nonzero_counts():
    inv = invariant(1, TruncationBox((2, 1)), {(1, 0): 3, (0, 1): -2, (2, 1): 5})
    table = invariant_table(inv)
    entries = table.entries
    nonzero = {(0, 0): 1, (0, 1): -2, (1, 0): 3, (2, 1): 5}
    assert entries == nonzero and nonzero == entries
    assert list(entries.items()) == list(table.terms) == list(nonzero.items())
    assert all(type(v) is int for v in entries.values())
    # a zero count inside the box is an absent key, as is a key outside it
    assert entries.get((1, 1), 0) == 0 and entries.get((2, 0), 0) == 0
    for key in [(1, 1), (2, 0), (3, 0), (0, 2), (-1, 0), (1,), (1, 0, 0), ()]:
        assert key not in entries
        with pytest.raises(KeyError):
            entries[key]
    with pytest.raises(TypeError):
        entries[(1, 1)] = 7
    assert entries == nonzero
    # one entry of the paper's 7^4 table is read without building its rows
    an = fixture_analysis("threefold-example", (7,) * 4)
    box, table = an.box, invariant_table(an.deltas[0])
    assert table.box is box
    assert table.entries[(7, 0, 0, 0)] == -454880
    assert (7, 7, 7, 7) not in table.entries
    assert "table_rows" not in box.__dict__


def test_bench_anchors_are_nonzero_entries():
    # the benchmark's tables_job reads each in-box anchor as entries[exp],
    # a KeyError for a zero count: at both of its boxes every anchor in the
    # box must be a key, with its pinned value
    read = []
    for caps in bench_run.TABLE_BOX.values():
        an = fixture_analysis("threefold-example", caps)
        for ray, exp, want in bench_run.ANCHORS:
            if an.box.contains(exp):
                assert invariant_table(an.deltas[ray]).entries[exp] == want
                read.append((caps, exp))
    # all three at 7^4, and (2, 2, 0, 0) alone at the smoke box 3^4
    assert len(read) == 4


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


@pytest.mark.parametrize("name", FIXTURES)
def test_w_hv_terms_rebuild_their_rays_and_classes(name, call_counts):
    """Each W_HV term, on every cone, read back without the engine's solves:
    its z-exponent writes v_k over the cone's rays, which fixes it as the
    cone is a basis, and its q-exponent writes e_k - sum_j z_j e_(cone_j)
    over the lattice basis.  Each ray's cone coordinates are read once,
    counted in every module that binds `cone_coordinates`."""
    calls, count = call_counts
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "semifano"]:
        if hasattr(module, "cone_coordinates"):
            count(module, "cone_coordinates")
    fan, lattice = fixture_lattice(name)
    box = TruncationBox((1,) * lattice.rank)
    for sigma, cone in enumerate(fan.max_cones):
        calls.clear()
        whv = assemble_W_HV(fan, lattice, sigma, box)
        assert calls == {"cone_coordinates": fan.num_rays}, sigma
        assert [t.ray_index for t in whv.terms] == list(range(fan.num_rays))
        for k, t in enumerate(whv.terms):
            assert tuple(sum(z * fan.rays[c][i] for z, c in zip(t.z_exponent, cone))
                         for i in range(fan.dimension)) == fan.rays[k]
            cls = [int(i == k) for i in range(fan.num_rays)]
            for z, c in zip(t.z_exponent, cone):
                cls[c] -= z
            assert [sum(q * b[i] for q, b in zip(t.q_exponent, lattice.basis))
                    for i in range(fan.num_rays)] == cls, (sigma, k)


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
    assert to_dict(by_ray[3].unit) == {(0, 0): 1, (1, 0): 1}
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
    w = list(an.mirror.inverse)
    w[1] = add(w[1], MultiSeries.from_dict(an.box, {(2, 1): 1}))
    wrong = MirrorMapPair(an.mirror.forward, tuple(w), an.mirror.pulled)
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


def test_structural_report_flags_nonzero_delta_at_hull_vertex(f2_analysis,
                                                             monkeypatch):
    import semifano.superpotential

    assert structural_report(f2_analysis).passed
    # the report walks the hull witnesses itself; witness every ray but
    # ray 4, so ray 4 reads as a vertex
    monkeypatch.setattr(semifano.superpotential, "non_vertices",
                        lambda fan: iter((0, 1, 2)))
    assert structural_report(f2_analysis).details == (
        "ray 4 is a hull vertex but has nonzero delta",
    )


def test_structural_report_flags_dependent_pairing_rows():
    an = fixture_analysis("threefold-example", (2, 2, 2, 2))
    detail = "pairing rows of nonzero-delta rays are dependent"
    assert detail not in structural_report(an).details
    # rays 5 and 6 pair with the basis alike
    assert an.lattice.pairing_row(4) == an.lattice.pairing_row(5) == (1, 0, 0, 0)
    nonzero = an.deltas[0].pulled
    assert not an.deltas[0].delta.is_zero()
    # a fresh analysis with a faulty deltas stage
    wrong = analyze(an.fan, an.lattice, an.box)
    wrong.__dict__["deltas"] = tuple(
        d._replace(pulled=nonzero) if d.ray_index in (4, 5) else d for d in an.deltas)
    assert detail in structural_report(wrong).details


def test_pf_lf_check_reports_discrepancy(f2_analysis):
    an = f2_analysis
    whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
    wpf = assemble_W_PF(whv, an.mirror, an.box)
    report = check_PF_equals_LF(wpf, whv)
    assert not report.passed
    assert any("ray 4" in d for d in report.details)


def test_pf_lf_check_reports_a_term_count_mismatch(f2_analysis):
    _, wpf, wlf, report = compare_superpotentials(f2_analysis, 0)
    assert report.passed
    cut = wlf._replace(terms=wlf.terms[:2])
    assert check_PF_equals_LF(wpf, cut) == (
        "PF=LF", False, ("4 PF terms against 2 LF terms",))
    assert check_PF_equals_LF(cut, wpf) == (
        "PF=LF", False, ("2 PF terms against 4 LF terms",))


@pytest.mark.parametrize("tables_first", [True, False], ids=["tables-first", "compare-only"])
def test_each_distinct_series_is_exponentiated_once(monkeypatch, tables_first):
    """The threefold job at 7^4 (analyze, W_PF and the normalised W_LF,
    with or without the 7 ray tables first) asks for 13 nonzero exps and
    runs 8, in either order: W_PF's argument for rays 3, 6 and 7 is W_LF's
    correction for the same ray, and for ray 7 it is G_1 too, whose exp is
    1 + delta_1.  W_PF's argument for ray 4 splits into two blocks of
    disjoint variables: G_4, whose exp is 1 + delta_4, and ray 4's W_LF
    correction, each run once whichever asks first."""
    runs = []
    real = series._exp
    monkeypatch.setattr(series, "_exp", lambda s, box: runs.append(s) or real(s, box))
    an = fixture_analysis("threefold-example", (7,) * 4)
    tables = [invariant_table(inv) for inv in an.deltas] if tables_first else []
    *_, report = compare_superpotentials(an, 0)
    assert report.passed and len(tables) == 7 * tables_first
    assert len([s for s in runs if s[1]]) == 8


def test_superpotentials_leave_no_reference_cycle():
    # the exps the box keeps are packed forms, not series that would hold
    # the box, so a whole comparison is freed without the collector
    gc.collect()
    gc.disable()
    try:
        for caps in ((3,) * 4, (7,) * 4):
            compare_superpotentials(fixture_analysis("threefold-example", caps), 0)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_pipeline_stays_packed(monkeypatch):
    # once the analysis and each 1 + delta are built, the superpotentials and
    # their check, every table, and the text of every series read the packed
    # form: neither module builds a Fraction
    an = fixture_analysis("threefold-example", (3, 3, 3, 3))
    for inv in an.deltas:
        inv.one_plus

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    for module in ("series", "superpotential"):
        # raising=False: a module that does not import Fraction gets the
        # name too, so that an import added later is caught here
        monkeypatch.setattr(f"semifano.{module}.Fraction", no_fraction,
                            raising=False)
    tables = [render_table(invariant_table(inv)) for inv in an.deltas]
    assert max(len(t.splitlines()) for t in tables) == 1 + 4 ** 4
    texts = [render(s) for s in (*an.g0, *an.mirror.inverse)]
    *exprs, report = compare_superpotentials(an, 0)
    assert report.passed
    texts += [render(t.unit) for expr in exprs for t in expr.terms]
    assert check_multiplicative_consistency(an.deltas, an.mirror, an.lattice).passed
    assert "/" in "".join(texts)
    # the patch is live: a constant term is read as a Fraction
    with pytest.raises(AssertionError, match="a Fraction was built"):
        an.deltas[0].one_plus.constant_term

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 compares the computed threefold invariant tables against the
frozen reference tables bundled below.  Thirteen high-order reference entries
disagree with the engine's exact arithmetic (see the repository notes); that
test is expected to fail until the reference data is revised, and the failure
message lists every differing entry.
"""

import time
from fractions import Fraction

from semifano import (
    TruncationBox,
    assemble_W_HV,
    assemble_W_LF,
    assemble_W_PF,
    check_multiplicative_consistency,
    check_PF_equals_LF,
    cross_validate_surface,
    fan_polytope_vertices,
    invariant_table,
    is_semi_fano,
    normalize_W_LF,
    structural_report,
    surface_admissible_deltas,
)
from semifano.cli import main
from oracles import g0_series, is_identity, rational_rank, to_dict
from conftest import fixture_analysis, fixture_lattice, fixture_path
from test_mirror import threefold_closed_forms


def report(criterion, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {criterion} ({label}): {status}{suffix}")
    return ok


def test_criterion_1_f2_end_to_end():
    start = time.monotonic()
    an = fixture_analysis("f2", (5, 5))
    ok = to_dict(an.deltas[3].delta) == {(1, 0): Fraction(1)}
    ok = ok and all(an.deltas[i].delta.is_zero() for i in (0, 1, 2))
    whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
    wpf = assemble_W_PF(whv, an.mirror, an.box)
    wlf = normalize_W_LF(assemble_W_LF(whv, an.deltas), an.fan, an.deltas)
    ok = ok and check_PF_equals_LF(wpf, wlf).passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    assert report(1, "first Hirzebruch surface end to end", ok,
                  f"{elapsed:.2f}s")


# reference tables for the threefold example, rays 1 and 2, entries k1,k2=0..7
REFERENCE_TABLE_RAY1 = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [-2, -2, 0, 0, 0, 0, 0, 0],
    [5, 8, 9, 8, 12, 16, 20, 24],
    [-32, -70, -96, -110, -140, -252, -504, 1056],
    [286, 800, 1323, 1744, 2268, 3528, 6700, 14120],
    [-3038, -10374, -20232, -30382, -42030, -62838, -109704, -241020],
    [35870, 144768, 326190, 552328, 824941, 1244256, 2496039, 5108760],
    [-454880, -2119298, -5424408, -10251170, -16592576, -30962188,
     -57926758, -115570212],
]
REFERENCE_TABLE_RAY2 = [
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, -2, -2, -4, -6, -8, -10, -12],
    [0, 5, 8, 9, 20, 56, 162, 418],
    [0, -32, -70, -96, -140, -300, -768, -2220],
    [0, 286, 800, 1323, 1936, 3360, 7280, 17910],
    [0, -3038, -10374, -20232, -32098, -52630, -101250, -172556],
    [0, 35870, 144768, 326190, 570556, 947505, 2158152, 4976917],
    [0, -454880, -2119298, -5424408, -10466390, -16175680, -28112692,
     -65956176],
]


def test_criterion_2_threefold_tables():
    start = time.monotonic()
    an = fixture_analysis("threefold-example", (7, 7, 7, 7))
    elapsed = time.monotonic() - start
    anchors_ok = True
    mismatches = []
    for ray, reference in ((0, REFERENCE_TABLE_RAY1), (1, REFERENCE_TABLE_RAY2)):
        table = invariant_table(an.deltas[ray]).entries
        for k1 in range(8):
            for k2 in range(8):
                got = table.get((k1, k2, 0, 0), 0)
                want = reference[k1][k2]
                if got != want:
                    mismatches.append(
                        f"ray {ray + 1} ({k1},{k2}): computed {got}, "
                        f"reference {want}"
                    )
    d1 = to_dict(an.deltas[0].one_plus)
    d2 = to_dict(an.deltas[1].one_plus)
    anchors_ok = (
        d1.get((2, 2, 0, 0)) == 9
        and d1.get((7, 0, 0, 0)) == -454880
        and d2.get((5, 3, 0, 0)) == -20232
    )
    delta4_ok = to_dict(an.deltas[3].delta) == {(0, 0, 0, 1): Fraction(1)}
    runtime_ok = elapsed < 60.0
    ok = anchors_ok and delta4_ok and runtime_ok and not mismatches
    report(
        2, "threefold invariant tables", ok,
        f"{elapsed:.1f}s, {len(mismatches)} of 128 entries differ from the "
        "bundled reference data",
    )
    assert anchors_ok and delta4_ok and runtime_ok
    assert not mismatches, (
        "computed tables differ from the bundled reference values at: "
        + "; ".join(mismatches)
    )


def test_criterion_3_closed_form_g0():
    _, lattice = fixture_lattice("threefold-example")
    f_coef, g_coef, h_coef = threefold_closed_forms((10, 10))
    ok = True
    box12 = TruncationBox((10, 10, 0, 0))
    s1 = to_dict(g0_series(lattice, 0, box12))
    s2 = to_dict(g0_series(lattice, 1, box12))
    for k1 in range(11):
        for k2 in range(11):
            e = (k1, k2, 0, 0)
            ok = ok and s1.get(e, Fraction(0)) == -f_coef(k1, k2)
            ok = ok and s2.get(e, Fraction(0)) == -g_coef(k1, k2)
    s4 = to_dict(g0_series(lattice, 3, TruncationBox((0, 0, 0, 10))))
    for k in range(11):
        expected = -h_coef(k)
        ok = ok and s4.get((0, 0, 0, k), Fraction(0)) == expected
    assert report(3, "closed-form correction series", ok)


def test_criterion_4_fano_degeneration():
    start = time.monotonic()
    ok = True
    for name, caps in (("p2", (4,)), ("p1xp1", (4, 4)), ("p1cubed", (3, 3, 3))):
        an = fixture_analysis(name, caps)
        ok = ok and all(s.is_zero() for s in an.g0)
        ok = ok and is_identity(an.mirror.forward)
        ok = ok and is_identity(an.mirror.inverse)
        ok = ok and all(d.delta.is_zero() for d in an.deltas)
        whv = assemble_W_HV(an.fan, an.lattice, 0, an.box)
        wpf = assemble_W_PF(whv, an.mirror, an.box)
        wlf = normalize_W_LF(assemble_W_LF(whv, an.deltas), an.fan, an.deltas)
        ok = ok and all(
            a.unit == b.unit == c.unit
            for a, b, c in zip(whv.terms, wpf.terms, wlf.terms)
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    assert report(4, "Fano degeneration", ok, f"{elapsed:.2f}s")


def test_criterion_5_property_suite():
    # the randomized suites live in test_series.py and test_mirror.py
    # (hypothesis, 100 cases each); here the fixture-level identities run
    ok = True
    for name, caps in (
        ("p2", (3,)),
        ("p1xp1", (3, 3)),
        ("f2", (5, 5)),
        ("f2-blowup", (4, 4, 4)),
        ("kp2-bundle", (4, 4)),
        ("threefold-example", (3, 3, 3, 3)),
    ):
        an = fixture_analysis(name, caps)
        from oracles import compose

        ok = ok and is_identity(compose(an.mirror.forward, an.mirror.inverse))
        ok = ok and is_identity(compose(an.mirror.inverse, an.mirror.forward))
        ok = ok and check_multiplicative_consistency(
            an.deltas, an.mirror, an.lattice
        ).passed
    assert report(5, "property suite", ok)


def test_criterion_6_structural_theorems():
    ok = True
    for name, caps in (
        ("p2", (3,)),
        ("p1xp1", (3, 3)),
        ("p1cubed", (2, 2, 2)),
        ("f2", (5, 5)),
        ("f2-blowup", (4, 4, 4)),
        ("kp2-bundle", (4, 4)),
        ("threefold-example", (3, 3, 3, 3)),
    ):
        an = fixture_analysis(name, caps)
        ok = ok and structural_report(an).passed
        nonzero = [d.ray_index for d in an.deltas if not d.delta.is_zero()]
        vertices = fan_polytope_vertices(an.fan)
        ok = ok and not (set(nonzero) & vertices)
        ok = ok and len(nonzero) <= max(an.lattice.rank - 1, 0)
        if nonzero:
            rows = [list(an.lattice.pairing_row(i)) for i in nonzero]
            ok = ok and rational_rank(rows) == len(rows)
        ok = ok and all(d.one_plus.constant_term == 1 for d in an.deltas)
    assert report(6, "structural theorems", ok)


def test_criterion_7_surface_oracle():
    ok = True
    for name, caps in (("f2", (5, 5)), ("f2-blowup", (5, 5, 5))):
        an = fixture_analysis(name, caps)
        oracle = surface_admissible_deltas(an.fan, an.lattice, an.box)
        ok = ok and cross_validate_surface(oracle, an).passed
    assert report(7, "surface oracle equivalence", ok)


def test_criterion_8_negative_control(capsys):
    fan, _ = fixture_lattice("f3")[0], None
    semi, witness = is_semi_fano(fan)
    ok = not semi and sum(witness) == -1
    exit_code = main(["validate", str(fixture_path("f3.json"))])
    capsys.readouterr()
    ok = ok and exit_code != 0
    assert report(8, "negative control", ok,
                  f"witness pairing {sum(witness)}")

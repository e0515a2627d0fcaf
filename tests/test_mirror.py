import gc
import json
import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifano import (
    CurveLattice,
    Fan,
    FanError,
    MultiSeries,
    TruncationBox,
    analyze,
    assemble_mirror_map,
    combine,
    compute_g0_family,
    curve_lattice,
    enumerate_g0_classes,
    fan_polytope_vertices,
    invariant_table,
    pull_back,
)
from semifano import SeriesError, mirror, series
from semifano.cli import main, parse_input
from conftest import fixture_analysis, fixture_fan, fixture_lattice
from oracles import (
    compose,
    g0_series,
    invert_diagonal_unit,
    is_identity,
    oracle_invert_full_box,
    oracle_log,
    pass_products,
    pass_slices,
    scale,
    substitute,
    terms,
    to_dict,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import surfaces  # noqa: E402


def test_enumerate_f2_section_multiples():
    _, lattice = fixture_lattice("f2")
    found = enumerate_g0_classes(lattice, TruncationBox((3, 3)))
    assert found == [
        (3, (k, 0, k, -2 * k), (k, 0)) for k in (1, 2, 3)
    ]


def test_enumerate_vertex_ray_empty():
    _, lattice = fixture_lattice("f2")
    found = enumerate_g0_classes(lattice, TruncationBox((3, 3)))
    assert {i for i, _, _ in found} == {3}


def test_enumerate_fano_empty():
    _, lattice = fixture_lattice("p2")
    assert enumerate_g0_classes(lattice, TruncationBox((4,))) == []


def test_enumerate_requires_nef_basis():
    fan, _ = fixture_fan("f2")
    lattice = curve_lattice(fan, [[1, 0, 1, -2], [1, 1, 1, -1]])
    with pytest.raises(FanError, match="nef-verified"):
        enumerate_g0_classes(lattice, TruncationBox((3, 3)))
    with pytest.raises(FanError, match="nef-verified"):
        compute_g0_family(lattice, TruncationBox((3, 3)))


def test_all_vertex_fan_needs_no_nef_basis(tmp_path, capsys):
    # the plane blown up at three points: every ray is a hull vertex, so
    # there are no correction classes, and no wall-class basis is nef
    rays = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
    doc = {"dimension": 2, "rays": rays,
           "max_cones": [[k, k % 6 + 1] for k in range(1, 7)]}
    fan, _, _ = parse_input(doc)
    lattice = curve_lattice(fan)
    assert not lattice.nef_verified
    fam = compute_g0_family(lattice, TruncationBox((2,) * lattice.rank))
    assert all(s.is_zero() for s in fam)
    path = tmp_path / "dp6.json"
    path.write_text(json.dumps(doc))
    assert main(["invariants", str(path), "--box", "2", "--format", "json"]) == 0
    tables = json.loads(capsys.readouterr().out)["results"]
    assert sorted(tables) == [str(k) for k in range(1, 7)]
    for tsv in tables.values():
        rows = [line.split("\t") for line in tsv.splitlines()[1:]]
        assert rows[0] == ["0"] * lattice.rank + ["1"]
        assert all(row[-1] == "0" for row in rows[1:])


def test_nef_basis_is_scanned_without_the_hull_test(monkeypatch):
    def must_not_run(fan):
        raise AssertionError("hull walk run for a nef-verified basis")

    monkeypatch.setattr(mirror, "non_vertices", must_not_run)
    _, f2 = fixture_lattice("f2")
    _, p2 = fixture_lattice("p2")
    assert f2.nef_verified and p2.nef_verified
    fam = compute_g0_family(f2, TruncationBox((3, 3)))
    assert [s.is_zero() for s in fam] == [True, True, True, False]
    fam = compute_g0_family(p2, TruncationBox((3,)))
    assert all(s.is_zero() for s in fam)


def test_non_nef_basis_with_a_non_vertex_ray_is_refused():
    lattices = (curve_lattice(parse_input(surfaces.document(rays))[0])
                for rays, _ in surfaces.universe())
    lattice = next(lat for lat in lattices if not lat.nef_verified
                   and len(fan_polytope_vertices(lat.fan)) < lat.fan.num_rays)
    with pytest.raises(FanError, match="nef-verified"):
        compute_g0_family(lattice, TruncationBox((2,) * lattice.rank))


def test_g0_f2_closed_form():
    _, lattice = fixture_lattice("f2")
    s = g0_series(lattice, 3, TruncationBox((6, 6)))
    expected = {
        (k, 0): Fraction(factorial(2 * k - 1), factorial(k) ** 2)
        for k in range(1, 7)
    }
    assert to_dict(s) == expected


def test_g0_kp2_bundle_closed_form():
    # the compactified canonical bundle over the plane: the only correction
    # sits at the inner ray, with local-surface coefficients
    _, lattice = fixture_lattice("kp2-bundle")
    box = TruncationBox((4, 4))
    fam = compute_g0_family(lattice, box)
    assert [i for i, s in enumerate(fam) if not s.is_zero()] == [0]
    s = to_dict(fam[0])
    fiber_axis = {e for e in s}
    assert all(sum(1 for x in e if x) == 1 for e in fiber_axis)
    var = next(a for e in s for a, x in enumerate(e) if x)
    for b in range(1, 5):
        exp = tuple(b if a == var else 0 for a in range(2))
        assert s[exp] == Fraction((-1) ** b * factorial(3 * b - 1),
                                  factorial(b) ** 3)


def threefold_closed_forms(caps):
    """The two-variable and one-variable closed forms for the threefold rays."""

    def f_coef(k1, k2):
        if k1 >= 2 * k2 >= 0 and (k1, k2) != (0, 0):
            return Fraction(
                (-1) ** (3 * k1 - k2 - 1) * factorial(3 * k1 - k2 - 1),
                factorial(k1) ** 2 * factorial(k2) * factorial(k1 - 2 * k2),
            )
        return Fraction(0)

    def g_coef(k1, k2):
        if k2 >= 3 * k1 >= 0 and (k1, k2) != (0, 0):
            return Fraction(
                (-1) ** (2 * k2 - k1 - 1) * factorial(2 * k2 - k1 - 1),
                factorial(k1) ** 2 * factorial(k2) * factorial(k2 - 3 * k1),
            )
        return Fraction(0)

    def h_coef(k):
        if k > 0:
            return Fraction((-1) ** (2 * k - 1) * factorial(2 * k - 1),
                            factorial(k) ** 2)
        return Fraction(0)

    return f_coef, g_coef, h_coef


def test_g0_threefold_closed_forms_small():
    _, lattice = fixture_lattice("threefold-example")
    f_coef, g_coef, h_coef = threefold_closed_forms((5, 5))
    box = TruncationBox((5, 5, 0, 0))
    s1 = to_dict(g0_series(lattice, 0, box))
    s2 = to_dict(g0_series(lattice, 1, box))
    for k1 in range(6):
        for k2 in range(6):
            e = (k1, k2, 0, 0)
            assert s1.get(e, Fraction(0)) == -f_coef(k1, k2)
            assert s2.get(e, Fraction(0)) == -g_coef(k1, k2)
    box4 = TruncationBox((0, 0, 0, 5))
    s4 = to_dict(g0_series(lattice, 3, box4))
    for k in range(1, 6):
        assert s4.get((0, 0, 0, k), Fraction(0)) == -h_coef(k)


LG_CAP = 7


def lg_mul(a, b):
    """Product of two-variable dicts truncated to the square of side LG_CAP."""
    r = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 <= LG_CAP and j1 + j2 <= LG_CAP:
                e = (i1 + i2, j1 + j2)
                r[e] = r.get(e, 0) + c1 * c2
    return r


def lg_exp(a):
    """exp(a) for a two-variable dict with zero constant term."""
    r = term = {(0, 0): Fraction(1)}
    for n in range(1, 2 * LG_CAP + 1):
        term = {e: c / n for e, c in lg_mul(term, a).items()}
        r = {e: r.get(e, 0) + term.get(e, 0) for e in r.keys() | term.keys()}
    return r


def test_lagrange_good_oracle_threefold():
    # With q_a = x_a*exp(u_a(x)), Good's multivariate Lagrange inversion gives
    # [q^k](1 + delta_i) = [x^k] exp(g0_i - sum_a k_a u_a) det(d_ab + x_b du_a/dx_b)
    # with no inversion and no substitution.  At k3 = k4 = 0 only x1 and x2
    # enter, only rays 1 and 2 have corrections there, and the determinant
    # is its 2x2 block; everything below is plain Fraction arithmetic.
    fan, lattice = fixture_lattice("threefold-example")
    f_coef, g_coef, _ = threefold_closed_forms((LG_CAP, LG_CAP))
    cells = [(k1, k2) for k1 in range(LG_CAP + 1) for k2 in range(LG_CAP + 1)]
    g0 = [{k: -f_coef(*k) for k in cells if f_coef(*k)},
          {k: -g_coef(*k) for k in cells if g_coef(*k)}]
    box = TruncationBox((LG_CAP, LG_CAP, 0, 0))
    analysis = analyze(fan, lattice, box)
    for i, s in enumerate(analysis.g0):
        want = g0[i] if i < 2 else {}
        assert to_dict(s) == {k + (0, 0): c for k, c in want.items()}
    u = [{k: sum(-lattice.pairing_row(i)[a] * g0[i].get(k, 0) for i in (0, 1))
          for k in cells} for a in (0, 1)]
    # jac[a][b] = d_ab + x_b du_a/dx_b
    jac = [[{k: k[b] * c for k, c in u[a].items()} for b in (0, 1)]
           for a in (0, 1)]
    for a in (0, 1):
        jac[a][a][0, 0] = Fraction(1)
    det = lg_mul(jac[0][0], jac[1][1])
    for k, c in lg_mul(jac[0][1], jac[1][0]).items():
        det[k] = det.get(k, 0) - c
    powers = []
    for a in (0, 1):
        unit = lg_exp({k: -c for k, c in u[a].items()})
        powers.append([{(0, 0): Fraction(1)}])
        for _ in range(LG_CAP):
            powers[a].append(lg_mul(powers[a][-1], unit))
    oracle = {}
    for i in (0, 1):
        head = lg_mul(lg_exp(g0[i]), det)
        table = invariant_table(analysis.deltas[i]).entries
        for k1 in range(LG_CAP + 1):
            part = lg_mul(head, powers[0][k1])
            for k2 in range(LG_CAP + 1):
                oracle[i, k1, k2] = sum(
                    c * powers[1][k2].get((k1 - e1, k2 - e2), 0)
                    for (e1, e2), c in part.items()
                )
                assert table.get((k1, k2, 0, 0), 0) == oracle[i, k1, k2], (i, k1, k2)
    # three of the entries that differ from the bundled reference tables
    assert oracle[0, 3, 7] == -1056
    assert oracle[0, 6, 6] == 2078439
    assert oracle[1, 7, 7] == -63089236


def test_mirror_map_f2():
    _, lattice = fixture_lattice("f2")
    box = TruncationBox((5, 5))
    fam = compute_g0_family(lattice, box)
    mm = assemble_mirror_map(lattice, fam)
    g4 = fam[3]
    assert mm.forward[0] == scale(g4, 2)
    assert mm.forward[1] == scale(g4, -1)
    ident = compose(mm.forward, mm.inverse)
    assert is_identity(ident)
    assert is_identity(compose(mm.inverse, mm.forward))


def test_threefold_inverse_at_7777(threefold_lattice):
    # the size and height of the inverse mirror map at the benchmark's box
    _, lattice = threefold_lattice
    mm = assemble_mirror_map(lattice, compute_g0_family(lattice, TruncationBox((7,) * 4)))
    coeffs = [c for u in mm.inverse for _, c in terms(u)]
    assert len(coeffs) == 191
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in coeffs)
    assert bits == 30
    assert is_identity(compose(mm.forward, mm.inverse))


def test_threefold_inversion_builds_each_slice_once(threefold_lattice, monkeypatch):
    # one pass over total degree 1..14 at 7^4: every slice of y_a =
    # x_a exp(w_a) (x1, x2 and x4: no g0_i has x3), of the images of the
    # prefixes and powers, each an earlier image times one y_a, of the sums
    # of power images, and of the 3 nonzero pulled-back g0_i is built once,
    # in order of degree, and only through the series' reach: the series
    # split into one block in x1, x2 (no in-box term past degree 7 + 7) and
    # one in x4 (none past 7); the whole-box loop of the oracle takes 15
    # rounds at degree 28
    _, lattice = threefold_lattice
    box = TruncationBox((7,) * 4)
    fam = compute_g0_family(lattice, box)
    assert sum(not s.is_zero() for s in fam) == 3
    built = pass_slices(lambda: assemble_mirror_map(lattice, fam), monkeypatch)
    degrees = [d for _, d, _ in built]
    assert degrees == sorted(degrees) and set(degrees) == set(range(1, 15))
    assert len({(i, d) for i, d, _ in built}) == len(built) == 268
    held, top = {}, {}
    for i, d, h in built:
        held[i], top[i] = held.get(i, 0) | h, max(top.get(i, 0), d)
    _, shifts, _, _, mask, _ = box.layout
    blocks = {}
    for i, h in held.items():
        block = tuple(a for a, k in enumerate(shifts) if h >> k & mask)
        blocks[block] = max(blocks.get(block, 0), top[i])
    assert blocks == {(0, 1): 14, (3,): 7}


def test_gapless_inversion_visits_each_degree_once(monkeypatch):
    # u = x^2 at (12,): per degree n, the slices of y = x exp(w), of the
    # image of x^2, which is y times y (n >= 2; y_1 = x is given), and of
    # the pulled-back -u, which is w
    forward = (MultiSeries.from_dict(TruncationBox((12,)), {(2,): 1}),)
    built = pass_slices(lambda: invert_diagonal_unit(forward), monkeypatch)
    degrees = [d for _, d, _ in built]
    assert degrees == sorted(degrees) and set(degrees) == set(range(1, 13))
    assert len({(i, d) for i, d, _ in built}) == len(built) == 11 + 11 + 12


def threefold_pass(lattice, box):
    """(g0, rows): the pass's arguments for the threefold in box."""
    rows = [lattice.pairing_row(i) for i in range(lattice.fan.num_rays)]
    return compute_g0_family(lattice, box), rows


@pytest.mark.parametrize("cap, count", [(9, 424), (12, 731)])
def test_threefold_pass_slice_counts(threefold_lattice, monkeypatch, cap, count):
    _, lattice = threefold_lattice
    gs, rows = threefold_pass(lattice, TruncationBox((cap,) * 4))
    built = pass_slices(lambda: pull_back(gs, rows), monkeypatch)
    assert len({(i, d) for i, d, _ in built}) == len(built) == count


def test_threefold_pass_product_count(threefold_lattice, monkeypatch):
    # (formed, kept): one product a prefix group rather than a monomial, the
    # images built by the parent rule, so the grouping and the choice of
    # parent set the counts; a product past the box is formed and dropped
    _, lattice = threefold_lattice
    gs, rows = threefold_pass(lattice, TruncationBox((7,) * 4))
    assert pass_products(lambda: pull_back(gs, rows), monkeypatch) == (15981, 8312)


def test_threefold_pass_product_count_at_12(threefold_lattice, monkeypatch):
    # 268,931 formed with one image a monomial: the groups' saving grows
    # with the box
    _, lattice = threefold_lattice
    gs, rows = threefold_pass(lattice, TruncationBox((12,) * 4))
    assert pass_products(lambda: pull_back(gs, rows), monkeypatch) == (184390, 88904)


def test_pass_ignores_term_order(threefold_lattice, monkeypatch):
    # the g0_i with their terms in reverse insertion order: the monomials
    # are taken in packed-key order, so the pass builds the same slices, in
    # the same order, and the same series
    _, lattice = threefold_lattice
    gs, rows = threefold_pass(lattice, TruncationBox((7,) * 4))
    flipped = [MultiSeries(g.box, (g.packed[0], dict(reversed(g.packed[1].items()))))
               for g in gs]
    assert [list(g.packed[1]) for g in flipped] != [list(g.packed[1]) for g in gs]
    runs = []
    for series_in in (gs, flipped):
        out = []
        built = pass_slices(lambda: out.append(pull_back(series_in, rows)), monkeypatch)
        runs.append(([(d, h) for _, d, h in built], out[0]))
    assert runs[0] == runs[1]


def test_pass_leaves_no_reference_cycle(threefold_lattice):
    # the slices the pass builds are freed when it returns, not held by a
    # cycle until the collector runs, which would raise a job's peak memory
    _, lattice = threefold_lattice
    gs, rows = threefold_pass(lattice, TruncationBox((7,) * 4))
    gc.collect()
    gc.disable()
    try:
        pull_back(gs, rows)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def assert_pass_is_substitution(lattice, caps, label=None):
    """The one pass's inverse and pulled-back series are those of the
    whole-box inverse and a separate substitution into each g0_i.  Equal
    series have equal packed forms, so this is byte equality."""
    fam = compute_g0_family(lattice, TruncationBox(caps))
    mm = assemble_mirror_map(lattice, fam)
    inverse = oracle_invert_full_box(mm.forward)
    assert mm.inverse == inverse, label
    assert mm.pulled == tuple(s if s.is_zero() else substitute(s, inverse)
                              for s in fam), label


def test_threefold_inverse_is_the_full_box_inverse(threefold_lattice):
    _, lattice = threefold_lattice
    assert_pass_is_substitution(lattice, (7,) * 4)


def test_threefold_inverse_at_9999_is_the_full_box_inverse(threefold_lattice):
    _, lattice = threefold_lattice
    assert_pass_is_substitution(lattice, (9,) * 4)


def test_threefold_pass_at_unequal_caps_is_substitution(threefold_lattice):
    # the reach of a series is the sum of its variables' caps, not a share
    # of the box's degree
    _, lattice = threefold_lattice
    for caps in ((7, 3, 0, 6), (2, 9, 1, 4)):
        assert_pass_is_substitution(lattice, caps, caps)


def test_pass_reach_holds_variables_that_enter_late():
    # x2 enters y_1 = x1 exp(w_1) only at degree 8, through G_0 = y_2^7 fed
    # to w_1 alone; in the chain, x3 enters y_1 at degree 7, through y_2^4 fed
    # to w_1 and y_3^2 fed to w_2, and the image y_1 y_2 of x1 x2 reaches
    # 4 + 5 + 3, while x4's block stops at degree 2.  A support read off the
    # slices built so far would cut y_1 at x1's cap
    F = Fraction
    cases = (
        ((6, 8), [{(0, 7): 1}, {(1, 0): 1, (2, 0): F(2, 3)}], [(1, 0), (1, 0)]),
        ((4, 5, 3, 2),
         [{(0, 4, 0, 0): 1}, {(0, 0, 2, 0): -1},
          {(1, 0, 0, 0): 1, (3, 0, 0, 0): 2, (1, 1, 0, 0): -1},
          {(0, 0, 0, 1): F(1, 2), (0, 0, 0, 2): 1}],
         [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]),
    )
    late = []
    for caps, gs, rows in cases:
        box = TruncationBox(caps)
        gs = [MultiSeries.from_dict(box, g) for g in gs]
        forward = tuple(combine(box, [(-row[a], g) for row, g in zip(rows, gs)])
                        for a in range(box.arity))
        pulled, inverse = pull_back(gs, rows)
        assert inverse == oracle_invert_full_box(forward), caps
        assert pulled == tuple(substitute(g, inverse) for g in gs), caps
        late.append(to_dict(inverse[0]))
    # the late terms are there: x1 x2^7, and x1 x2^4 x3^2, in w_1
    assert (1, 7) in late[0] and (1, 4, 2, 0) in late[1]


@st.composite
def grouped_passes(draw):
    """(gs, rows): 2-4 series in a box of 2 or 3 variables, caps 1-4, with
    terms drawn mostly from one small pool of monomials, so that series
    share powers and prefixes, and pairings in -2..2, zero and negative
    ones among them."""
    caps = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    box = TruncationBox(caps)
    exps = st.tuples(*[st.integers(0, c) for c in caps]).filter(any)
    pool = draw(st.lists(exps, min_size=2, max_size=6, unique=True))
    coeffs = st.fractions(-3, 3, max_denominator=4).filter(bool)
    gs = [MultiSeries.from_dict(box, draw(st.dictionaries(
              st.one_of(st.sampled_from(pool), exps), coeffs, max_size=6)))
          for _ in range(draw(st.integers(2, 4)))]
    rows = [tuple(draw(st.integers(-2, 2)) for _ in caps) for _ in gs]
    return gs, rows


def prefix_groups(g):
    """(l, {prefix: [e]}): the terms of g grouped by their prefix, the
    exponent with e, its l-th entry, set to 0, for the variable l of g that
    leaves the fewest prefixes, the lowest on a tie."""
    exps = sorted(to_dict(g))
    held = [a for a in range(g.box.arity) if any(e[a] for e in exps)]

    def prefix(e, a):
        return e[:a] + (0,) + e[a + 1:]

    l = min(held, key=lambda a: len({prefix(e, a) for e in exps}))
    groups = {}
    for e in exps:
        groups.setdefault(prefix(e, l), []).append(e[l])
    return l, groups


def group_shapes(gs, rows):
    """The shapes of prefix group, and the signs of pairing, that the pass
    meets in gs."""
    shapes, powers = set(), {}
    for g, row in zip(gs, rows):
        if g.is_zero():
            continue
        shapes.update({0: "zero pairing", -1: "negative pairing"}.get(
            (r > 0) - (r < 0)) for r in row)
        l, groups = prefix_groups(g)
        for p, es in groups.items():
            if not any(p):
                shapes.add("p = 0")
            elif len(es) == 1:
                shapes.add("single term")
            elif 0 in es:
                shapes.add("constant in l beside other terms")
            if sum(map(bool, p)) == 1 and max(p) > 1:
                shapes.add("prefix a power of another variable")
            for e in filter(None, es):
                if powers.setdefault((l, e), g) is not g:
                    shapes.add("l-power shared across series")
    return shapes - {None}


def test_pass_by_prefix_groups_is_substitution():
    # the pass against the whole-box inverse and a separate substitution on
    # drawn series; the draws reach every kind of prefix group the pass
    # treats apart, and powers of one variable that several series share
    reached = set()

    @settings(max_examples=60, deadline=None)
    @given(grouped_passes())
    def check(drawn):
        gs, rows = drawn
        box = gs[0].box
        forward = tuple(combine(box, [(-row[a], g) for row, g in zip(rows, gs)])
                        for a in range(box.arity))
        pulled, inverse = pull_back(gs, rows)
        assert inverse == oracle_invert_full_box(forward)
        assert pulled == tuple(substitute(g, inverse) for g in gs)
        reached.update(group_shapes(gs, rows))

    check()
    assert reached == {
        "p = 0", "single term", "constant in l beside other terms",
        "prefix a power of another variable", "l-power shared across series",
        "zero pairing", "negative pairing"}


def test_pass_is_substitution_on_fixtures_and_surfaces():
    cases = [(name, fixture_lattice(name)[1]) for name in (
        "f2", "f2-blowup", "f3", "kp2-bundle", "p1cubed", "p1xp1", "p2",
        "threefold-example")]
    for rays in dict.fromkeys(rays for rays, _ in surfaces.universe()):
        lattice = curve_lattice(parse_input(surfaces.document(rays))[0])
        if lattice.nef_verified:
            cases.append((f"surface {rays}", lattice))
    # the 8 fixtures and the 35 universe surfaces with a nef wall basis
    assert len(cases) == 8 + 35
    for label, lattice in cases:
        caps = (3 if lattice.rank > 3 else 4,) * lattice.rank
        assert_pass_is_substitution(lattice, caps, label)


def test_pass_refuses_bad_series():
    box = TruncationBox((3, 3))
    x = MultiSeries.from_dict(box, {(1, 0): 1})
    rows = [(1, 0), (0, 1)]
    with pytest.raises(SeriesError, match="zero constant term"):
        pull_back([x, MultiSeries.from_dict(box, {(0, 0): 2, (0, 1): 1})], rows)
    with pytest.raises(SeriesError, match="different truncation boxes"):
        pull_back([x, MultiSeries.from_dict(TruncationBox((3, 2)), {(0, 1): 1})],
                  rows)
    with pytest.raises(SeriesError, match="one row"):
        pull_back([x, x], [(1, 0, 0), (0, 1, 0)])


def test_zero_family_runs_no_pass(call_counts):
    # with no nonzero g_i there is nothing to pull back: the family is its
    # own pull-back and the inverse is zero, with no _sum at all
    calls, count = call_counts
    count(series, "_sum")
    box = TruncationBox((3, 2, 4))
    gs = [MultiSeries.zero(box)] * 2
    pulled, inverse = pull_back(gs, [(1, -2, 0), (0, 3, 1)])
    assert calls == {}
    assert pulled == tuple(gs)
    assert inverse == (MultiSeries.zero(box),) * 3


def test_mirror_map_fano_identity():
    for name, caps in (("p2", (4,)), ("p1xp1", (3, 3)), ("p1cubed", (2, 2, 2))):
        _, lattice = fixture_lattice(name)
        mm = assemble_mirror_map(lattice, compute_g0_family(lattice, TruncationBox(caps)))
        assert is_identity(mm.forward)
        assert is_identity(mm.inverse)


def test_mirror_round_trip_all_fixtures():
    for name, caps in (
        ("f2", (5, 5)),
        ("f2-blowup", (4, 4, 4)),
        ("kp2-bundle", (4, 4)),
        ("threefold-example", (3, 3, 3, 3)),
    ):
        _, lattice = fixture_lattice(name)
        mm = assemble_mirror_map(lattice, compute_g0_family(lattice, TruncationBox(caps)))
        assert is_identity(compose(mm.forward, mm.inverse)), name
        assert is_identity(compose(mm.inverse, mm.forward)), name


def test_pullback_f2_is_log():
    _, lattice = fixture_lattice("f2")
    box = TruncationBox((5, 5))
    mm = assemble_mirror_map(lattice, compute_g0_family(lattice, box))
    pulled = mm.pulled
    one_plus_q1 = MultiSeries.from_dict(box, {(0, 0): 1, (1, 0): 1})
    assert pulled[3] == oracle_log(one_plus_q1)
    for i in (0, 1, 2):
        assert pulled[i].is_zero()


PULLBACK_CAPS = {
    "f2": (5, 5), "f2-blowup": (4, 4, 4), "f3": (4, 4), "kp2-bundle": (4, 4),
    "p1cubed": (3, 3, 3), "p1xp1": (4, 4), "p2": (5,),
    "threefold-example": (7, 7, 7, 7),
}


@pytest.mark.parametrize("name", sorted(PULLBACK_CAPS))
def test_pulled_series_is_log_of_one_plus_delta(name):
    # the engine keeps G_i as each ray's disk counts and never takes a log:
    # a sum of powers of delta_i gives G_i back, on every ray
    an = fixture_analysis(name, PULLBACK_CAPS[name])
    assert len(an.deltas) == an.fan.num_rays
    for d, g in zip(an.deltas, an.mirror.pulled):
        assert d.pulled is g
        assert oracle_log(d.one_plus) == g, (name, d.ray_index)


def walker_classes(lattice, i, box):
    """Correction classes of ray i by the composition walk, an independent
    route to what the box scan finds.

    Walks b = -d_i up to the largest value the box allows and every weak
    composition of b over the other rays, keeping the compositions that close
    up to a lattice class; its basis coordinates come from an exact solve and
    must be nonnegative (the nef precondition the scan relies on).
    """
    fan = lattice.fan
    m, n = fan.num_rays, fan.dimension
    others = [j for j in range(m) if j != i]
    bound = sum(
        max(0, -r) * c for r, c in zip(lattice.pairing_row(i), box.caps)
    )
    out = []
    for b in range(1, bound + 1):
        stack = [([], b)]
        while stack:
            prefix, rem = stack.pop()
            if len(prefix) < len(others) - 1:
                stack.extend((prefix + [v], rem - v) for v in range(rem + 1))
                continue
            d = [0] * m
            d[i] = -b
            for j, v in zip(others, prefix + [rem]):
                d[j] = v
            if any(sum(d[j] * fan.rays[j][t] for j in range(m))
                   for t in range(n)):
                continue
            exps = lattice.coordinates(tuple(d))
            if exps is None:
                continue
            assert all(e >= 0 for e in exps), (d, exps)
            if box.contains(tuple(exps)):
                out.append((tuple(d), tuple(exps)))
    out.sort(key=lambda t: (sum(t[1]), t[1]))
    return out


FIXTURE_CAPS = {
    "p2": 1,
    "p1xp1": 2,
    "f2": 2,
    "kp2-bundle": 2,
    "f2-blowup": 3,
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_enumeration_matches_cube_scan(data):
    name = data.draw(st.sampled_from(sorted(FIXTURE_CAPS)))
    _, lattice = fixture_lattice(name)
    caps = tuple(
        data.draw(st.integers(0, 4)) for _ in range(FIXTURE_CAPS[name])
    )
    box = TruncationBox(caps)
    scan = enumerate_g0_classes(lattice, box)
    for i in range(lattice.fan.num_rays):
        assert [(c, e) for j, c, e in scan if j == i] == (
            walker_classes(lattice, i, box)
        )


def full_box_scan(lattice, box):
    """The correction scan before it moved to the degree-zero face: one
    class per point of the whole box."""
    out = []
    for exps in product(*[range(c + 1) for c in box.caps]):
        cls = lattice.class_from_coordinates(exps)
        negative = [j for j, dj in enumerate(cls) if dj < 0]
        if len(negative) == 1 and sum(cls) == 0:
            out.append((negative[0], cls, exps))
    out.sort(key=lambda t: (sum(t[2]), t[2]))
    return out


def face_scan_cases():
    """(label, lattice, box): every fixture, and every distinct surface of
    the benchmark's universe that has a nef-verified basis at its largest
    bench cap."""
    cases = [("threefold-example", fixture_lattice("threefold-example")[1],
              TruncationBox(caps)) for caps in ((4, 4, 4, 4), (7, 7, 0, 0))]
    for name in ("f2", "f2-blowup", "f3", "kp2-bundle", "p1cubed", "p1xp1", "p2"):
        _, lattice = fixture_lattice(name)
        cases.append((name, lattice, TruncationBox((4,) * lattice.rank)))
    caps = {}
    for rays, cap in surfaces.universe():
        caps[rays] = max(cap, caps.get(rays, 0))
    for rays, cap in caps.items():
        fan, _, _ = parse_input(surfaces.document(rays))
        lattice = curve_lattice(fan)
        if lattice.nef_verified:
            cases.append((f"surface {rays}", lattice,
                          TruncationBox((cap,) * lattice.rank)))
    return cases


def test_face_scan_matches_full_box_scan():
    labels = set()
    for label, lattice, box in face_scan_cases():
        assert enumerate_g0_classes(lattice, box) == full_box_scan(lattice, box), label
        labels.add(label)
    # the 8 fixtures and the 35 universe surfaces with a nef wall basis
    assert len(labels) == 8 + 35
    # f3's basis has c1 = (2, -1): its correction classes use the coordinate
    # with c1 > 0, so the face must be the whole box there
    _, f3 = fixture_lattice("f3")
    found = enumerate_g0_classes(f3, TruncationBox((4, 4)))
    assert found and all(e[0] > 0 for _, _, e in found)


def test_face_scan_visits_only_the_face(threefold_lattice):
    # the threefold's basis has c1 = (0, 0, 1, 0): at 7^4 the scan visits the
    # 8^3 points with e_3 = 0, not all 8^4.  The probe reads the scan's
    # packed points as it returns; each point's low w-bit fields are its
    # exponents
    _, lattice = threefold_lattice
    scan = {}

    def on_return(frame, event, arg):
        if event == "return":
            scan.update(frame.f_locals)
        return on_return

    def probe(frame, event, arg):
        if frame.f_code is enumerate_g0_classes.__code__:
            return on_return

    old = sys.gettrace()
    sys.settrace(probe)
    try:
        found = enumerate_g0_classes(lattice, TruncationBox((7,) * 4))
    finally:
        sys.settrace(old)
    assert len(found) == 40
    w, mask, points = scan["w"], scan["mask"], scan["points"]
    seen = [tuple(p >> w * a & mask for a in range(4)) for p in points]
    assert len(seen) == 8 ** 3 and set(seen) == {
        (a, b, 0, d) for a, b, d in product(range(8), repeat=3)}


WIDE_CAPS = [
    ("threefold-example", (10, 10, 0, 0)), ("threefold-example", (0, 0, 0, 40)),
    ("f2", (60, 60)), ("kp2-bundle", (30, 30)), ("f3", (20, 20)),
]


@pytest.mark.parametrize("name, caps", WIDE_CAPS)
def test_packed_scan_matches_full_box_scan_at_wide_caps(name, caps):
    # wide caps widen the packed fields; f3's c1 = (2, -1) scans the whole
    # box, where the c1 field must be tested as well
    _, lattice = fixture_lattice(name)
    box = TruncationBox(caps)
    found = enumerate_g0_classes(lattice, box)
    assert found and found == full_box_scan(lattice, box)


def test_g0_family_is_the_factorial_formula():
    # term by term over Fraction from the whole-box scan, so a scale factor
    # common to every term, which the GKZ recurrence cannot see, shows here
    cases = face_scan_cases() + [
        (f"{name} {caps}", fixture_lattice(name)[1], TruncationBox(caps))
        for name, caps in WIDE_CAPS]
    checked = 0
    for label, lattice, box in cases:
        expected = [{} for _ in range(lattice.fan.num_rays)]
        for i, cls, exps in full_box_scan(lattice, box):
            b = -cls[i]
            expected[i][exps] = Fraction(
                (-1) ** b * factorial(b - 1),
                prod(factorial(dj) for j, dj in enumerate(cls) if j != i))
        got = [{e: Fraction(n, d) for e, n, d in s.coefficients()}
               for s in compute_g0_family(lattice, box)]
        assert got == expected, label
        checked += sum(map(len, got))
    # every case's terms, each nonzero
    assert checked == 379


def test_packed_scan_of_a_rank_zero_box():
    # the fan of the plane: two rays, no curve classes, one empty point
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    lattice = CurveLattice(fan, (), nef_verified=True)
    box = TruncationBox(())
    assert enumerate_g0_classes(lattice, box) == full_box_scan(lattice, box) == []
    assert all(s.is_zero() for s in compute_g0_family(lattice, box))


def test_determinism_under_cone_shuffling():
    doc_fan, basis = fixture_fan("f2")
    box = TruncationBox((4, 4))
    reference = g0_series(curve_lattice(doc_fan, basis), 3, box)
    import random

    rng = random.Random(7)
    for _ in range(5):
        cones = list(doc_fan.max_cones)
        rng.shuffle(cones)
        shuffled = Fan(doc_fan.dimension, doc_fan.rays, tuple(cones))
        lattice = curve_lattice(shuffled, basis)
        assert g0_series(lattice, 3, box) == reference

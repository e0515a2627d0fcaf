import random
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from semifano import (
    CurveLattice,
    Fan,
    FanError,
    TruncationBox,
    alpha_class,
    compute_g0_family,
    cone_coordinates,
    curve_lattice,
    fan_polytope_vertices,
    is_semi_fano,
    structural_report,
    validate_fan,
)
from semifano import fans, intlinalg
from semifano.cli import parse_input
from semifano.intlinalg import fraction_free_solve
from oracles import (GL2, integer_det, lattice_membership, left_kernel_basis, solve_rational,
                     variants)
from conftest import fixture_analysis, fixture_fan, fixture_lattice, load_fixture
import threefolds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import surfaces  # noqa: E402

FIXTURES = ("p2", "p1xp1", "p1cubed", "f2", "f3", "f2-blowup",
            "threefold-example", "kp2-bundle")


def test_validate_good_fixtures():
    for name in FIXTURES:
        fan, _ = fixture_fan(name)
        assert validate_fan(fan) == [], name


def test_validate_rejects_nonprimitive_ray():
    fan = Fan(2, ((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    assert any("primitive" in v for v in validate_fan(fan))


def test_validate_rejects_nonsmooth_cone():
    # cone spanned by (1,0) and (1,2) has determinant 2
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    assert any("non-smooth" in v for v in validate_fan(fan))


def test_validate_rejects_incomplete_fan():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    assert validate_fan(fan) == ["wall (1,) shared by 1 cone(s)",
                                 "wall (3,) shared by 1 cone(s)"]
    # one cone alone: its walls in `combinations` order, then the ray it leaves out
    fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), ((0, 1, 2),))
    assert validate_fan(fan) == ["wall (1, 2) shared by 1 cone(s)",
                                 "wall (1, 3) shared by 1 cone(s)",
                                 "wall (2, 3) shared by 1 cone(s)",
                                 "ray 4 lies in no maximal cone"]


def test_validate_names_a_fan_with_no_maximal_cone():
    # the cone checks all read a first cone, so none is reached
    assert validate_fan(Fan(1, [(1,), (-1,)], [])) == ["no maximal cone is listed"]


def test_validate_rejects_duplicate_rays():
    fan = Fan(2, ((1, 0), (1, 0), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    assert any("distinct" in v for v in validate_fan(fan))


# smooth cones with every wall in two of them that still form no complete fan
QUADRANT = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (2, 0)))
TWICE_AROUND = Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-2, -1), (-1, -1)),
                   tuple((i, (i + 1) % 7) for i in range(7)))
# around (-1,-1) and (-2,-1) the cycle turns back and then forward again:
# no cone holds (1,1), yet the cones cover (-3,-2) three times
FOLDED = Fan(2, ((1, 0), (0, 1), (-1, 0), (-1, -1), (-2, -1)),
             tuple((i, (i + 1) % 5) for i in range(5)))


def test_validate_rejects_cones_inside_one_quadrant():
    assert validate_fan(QUADRANT) == ["cone (2, 3) overlaps the first cone",
                                      "cone (1, 3) overlaps the first cone"]


def test_validate_rejects_cones_winding_twice():
    assert validate_fan(TWICE_AROUND) == ["cone (4, 5) overlaps the first cone",
                                          "cone (5, 6) overlaps the first cone"]


def test_validate_rejects_cones_folded_over_a_wall():
    assert validate_fan(FOLDED) == ["wall (4,) has both its cones on one side",
                                    "wall (5,) has both its cones on one side"]


def test_validate_accepts_the_line():
    assert validate_fan(Fan(1, ((1,), (-1,)), ((0,), (1,)))) == []


def test_wall_classes_f2():
    fan, _ = fixture_fan("f2")
    walls = set(fan.wall_classes)
    assert walls == {(0, 1, 0, 1), (1, 2, 1, 0), (1, 0, 1, -2)}


def test_wall_in_one_cone_is_a_fan_error():
    # the walls (1,) and (3,) each lie in one cone only: a FanError naming
    # the first, not a failed unpacking
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    with pytest.raises(FanError, match=r"wall \(1,\) shared by 1 cone"):
        is_semi_fano(fan)
    with pytest.raises(FanError, match="shared by 1 cone"):
        curve_lattice(fan)


def test_wall_classes_are_built_once_and_leave_equality_alone():
    fan, _ = fixture_fan("f2")
    assert isinstance(fan.wall_classes, tuple)
    assert fan.wall_classes is fan.wall_classes
    fresh = Fan(fan.dimension, fan.rays, fan.max_cones)
    assert fan == fresh and hash(fan) == hash(fresh)
    assert {fresh: "fresh"}[fan] == "fresh"


def test_semi_fano_verdicts():
    for name, expected in (("p2", True), ("f2", True), ("f3", False),
                           ("threefold-example", True), ("kp2-bundle", True)):
        fan, _ = fixture_fan(name)
        ok, witness = is_semi_fano(fan)
        assert ok is expected, name
        if not expected:
            assert sum(witness) < 0


def test_f3_witness_class():
    fan, _ = fixture_fan("f3")
    _, witness = is_semi_fano(fan)
    assert witness == (1, 0, 1, -3)
    assert sum(witness) == -1


def test_hull_vertices():
    fan, _ = fixture_fan("f2")
    assert fan_polytope_vertices(fan) == {0, 1, 2}
    fan, _ = fixture_fan("p2")
    assert fan_polytope_vertices(fan) == {0, 1, 2}
    fan, _ = fixture_fan("threefold-example")
    assert fan_polytope_vertices(fan) == {2, 4, 5, 6}
    fan, _ = fixture_fan("kp2-bundle")
    assert fan_polytope_vertices(fan) == {1, 2, 3, 4}


@pytest.fixture
def eliminations(monkeypatch):
    """counted(f, *args) -> (f(*args), the `_eliminate` steps it took)."""
    steps = []
    step = intlinalg._eliminate
    monkeypatch.setattr(intlinalg, "_eliminate", lambda *a: steps.append(a) or step(*a))

    def counted(f, *args):
        steps.clear()
        return f(*args), len(steps)

    return counted


def test_subset_walks_take_fewer_elimination_steps(eliminations):
    """The hull test walks its subsets once and shares the elimination
    steps of common prefixes, so it takes fewer steps than solving every
    subset on its own."""
    def per_subset(vectors, r):
        return sum(eliminations(fraction_free_solve, [vectors[k] for k in sub],
                                vectors)[1]
                   for sub in combinations(range(len(vectors)), r))

    fan, _ = fixture_fan("threefold-example")
    vertices, walked = eliminations(fan_polytope_vertices, fan)
    assert vertices == {2, 4, 5, 6}
    assert walked < per_subset(fan.rays, fan.dimension)


def test_surfaces_without_a_nef_wall_basis_are_refused_unwalked(eliminations):
    """Each of the 61 universe surfaces with no nef wall basis has more
    sure walls (the only wall negative at some ray) than its rank, so the
    nef search takes no `_eliminate` step once the wall classes are built."""
    refused = 0
    for fan in universe_fans():
        assert fan.wall_classes
        lattice, walked = eliminations(curve_lattice, fan)
        if not lattice.nef_verified:
            refused += 1
            assert walked == 0, fan.rays
    assert refused == 61


def universe_fans():
    """The fan of each distinct surface of the benchmark's universe, in order."""
    return [parse_input(surfaces.document(rays))[0]
            for rays in dict.fromkeys(rays for rays, _ in surfaces.universe())]


def test_subset_walks_take_pinned_elimination_steps(eliminations):
    """Prefix sharing and `combinations` order, held to the exact number of
    `_eliminate` steps each walk takes: the whole hull walk, and the nef
    search with no supplied basis, the cone solves of the wall classes
    included."""
    threefold = fixture_fan("threefold-example")[0]
    assert eliminations(fan_polytope_vertices, threefold)[1] == 55
    for name, steps in (("threefold-example", 23), ("kp2-bundle", 10),
                        ("f2-blowup", 9), ("p1cubed", 13)):
        assert eliminations(curve_lattice, fixture_fan(name)[0])[1] == steps, name
    fans_ = universe_fans()
    assert len(fans_) == 96
    assert sum(eliminations(fan_polytope_vertices, f)[1] for f in fans_) == 2314
    assert sum(eliminations(curve_lattice, f)[1] for f in fans_) == 838


def test_cone_walk_takes_pinned_elimination_steps(eliminations):
    """`validate_fan` on a fresh fan solves its first cone in n steps and
    reaches every other cone across a wall in one: 3 + 9 on the threefold's
    10 cones, against 30 for a solve per cone, and 721 over the universe's
    625 cones, against 1250."""
    threefold = fixture_fan("threefold-example")[0]
    assert eliminations(validate_fan, threefold) == ([], 12)
    assert sum(eliminations(validate_fan, f)[1] for f in universe_fans()) == 721


def test_fan_verdicts_are_invariant_under_gl_and_reindexing():
    """Every fan verdict is a property of the fan, not of its coordinates or
    its ray order: each universe surface mapped by a unimodular matrix and
    re-indexed by k -> +-k + s mod m keeps its validity, its semi-Fano
    verdict, its hull vertices (re-indexed) and its nef verdict.  A nef wall
    basis is unique, so where there is one the image's basis is the same
    set of classes, each entry moved from ray k to ray pi[k]."""
    nefs = 0
    for fan in universe_fans():
        semi_fano, hull = is_semi_fano(fan)[0], fan_polytope_vertices(fan)
        lattice = curve_lattice(fan)
        for pi, image in variants(fan, GL2):
            label = (fan.rays, image.rays)
            assert validate_fan(image) == [], label
            assert is_semi_fano(image)[0] == semi_fano, label
            assert fan_polytope_vertices(image) == {pi[k] for k in hull}, label
            moved = curve_lattice(image)
            assert moved.nef_verified == lattice.nef_verified, label
            if lattice.nef_verified:
                inverse = sorted(range(fan.num_rays), key=pi.__getitem__)
                assert set(moved.basis) == {tuple(b[k] for k in inverse)
                                            for b in lattice.basis}, label
        nefs += lattice.nef_verified
    assert nefs == 35


def test_nef_basis_of_p3_blowups_matches_rational_scan():
    """Forty seeded point and curve blow-ups of P3 with at most 9 rays (9
    of them with 9): the basis and verdict of the nef search equal the
    subset scan's.  With no nef wall basis the kernel fallback's rows may
    come in another order than the oracle's Hermite kernel, so there the
    lattices are compared."""
    verdicts, sizes = set(), set()
    for fan in threefolds.blowups(threefolds.P3, 1, 40, 9):
        lattice = curve_lattice(fan)
        basis, nef = oracle_nef_basis(fan)
        assert lattice.nef_verified is nef, fan
        if nef:
            assert list(lattice.basis) == basis, fan
        else:
            got = list(lattice.basis)
            assert oracle_spans(got, basis) and oracle_spans(basis, got), fan
        verdicts.add(nef)
        sizes.add(fan.num_rays)
    assert verdicts == {True, False} and sizes == {5, 6, 7, 8, 9}


def test_twelve_ray_threefold_has_no_nef_wall_basis(eliminations):
    """A 12-ray blow-up of P3 (rank 9, 26 wall classes) has no nef wall
    basis: the kernel fallback runs, and is not nef.  A walk over every
    9-subset of the wall classes takes 2,816,159 steps to say so; after
    the certificates, the nef search takes 3,564 once the wall classes
    are built."""
    fan = threefolds.TWELVE_RAYS
    assert validate_fan(fan) == [] and is_semi_fano(fan)[0]
    assert len(fan.wall_classes) == 26
    lattice, walked = eliminations(curve_lattice, fan)
    assert not lattice.nef_verified
    assert lattice.basis == tuple(alpha_class(fan, 0, k) for k in range(fan.num_rays)
                                  if k not in fan.max_cones[0])
    assert walked == 3564


def test_hull_walk_stops_at_what_its_caller_reads(eliminations, f2_analysis):
    """A refusal needs one witness off the hull, so it takes fewer steps
    than the whole walk; a structural report with every delta zero walks
    nothing, and f2's stops once ray 4 is witnessed."""
    lattices = (curve_lattice(parse_input(surfaces.document(rays))[0])
                for rays, _ in surfaces.universe())
    lattice = next(lat for lat in lattices if not lat.nef_verified)
    vertices, whole = eliminations(fan_polytope_vertices, lattice.fan)
    assert len(vertices) < lattice.fan.num_rays

    def refuse():
        with pytest.raises(FanError, match="nef-verified"):
            compute_g0_family(lattice, TruncationBox((2,) * lattice.rank))

    assert 0 < eliminations(refuse)[1] < whole

    p2 = fixture_analysis("p2", (3,))
    assert all(d.delta.is_zero() for d in p2.deltas)
    report, walked = eliminations(structural_report, p2)
    assert report.passed and walked == 0
    report, walked = eliminations(structural_report, f2_analysis)
    assert report.passed
    assert walked < eliminations(fan_polytope_vertices, f2_analysis.fan)[1]


def test_cone_coordinates_f2():
    fan, _ = fixture_fan("f2")
    sigma = fan.max_cones.index((0, 1))
    assert cone_coordinates(fan, sigma, 2) == (-1, -2)
    assert cone_coordinates(fan, sigma, 3) == (0, -1)


def test_cone_coordinates_refuses_non_unimodular_cone():
    # a FanError, not an assert that python -O would strip
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1), (-1, 0)),
              ((0, 1), (1, 2), (2, 0), (0, 3)))
    with pytest.raises(FanError, match=r"^cone \(1, 2\) determinant 2, non-smooth$"):
        cone_coordinates(fan, 0, 2)
    with pytest.raises(FanError, match=r"^cone \(1, 4\) determinant 0, non-smooth$"):
        cone_coordinates(fan, 3, 1)


# the first two rays are opposite, so the first cone is flat: determinant 0
FLAT = Fan(2, ((1, 0), (-1, 0), (0, 1)), ((0, 1), (1, 2), (2, 0)))


def test_flat_cone_is_a_fan_error_from_the_cached_solutions():
    """A singular cone's cached solution has no adjugate; every reader
    reports the cone as non-smooth instead of indexing into it."""
    assert validate_fan(FLAT) == ["cone (1, 2) determinant 0, non-smooth",
                                  "cone (2, 3) overlaps the first cone",
                                  "cone (1, 3) overlaps the first cone"]
    assert FLAT.cone_solutions[0] == (0, None)
    message = r"^cone \(1, 2\) determinant 0, non-smooth$"
    with pytest.raises(FanError, match=message):
        cone_coordinates(FLAT, 0, 2)
    with pytest.raises(FanError, match=message):
        FLAT.wall_classes


def per_cone_solutions(fan):
    """Each maximal cone's rays solved on their own against every ray."""
    return tuple(fraction_free_solve([fan.rays[k] for k in cone], fan.rays)
                 for cone in fan.max_cones)


def test_cone_walk_matches_per_cone_solves():
    """Reaching cones across walls by exchange gives each cone exactly its
    own solve, on the fixtures, the universe, seeded threefolds, the
    12-ray threefold and the flat fan."""
    fans_ = ([fixture_fan(name)[0] for name in FIXTURES] + universe_fans()
             + threefolds.blowups(threefolds.P3, 11, 200, 10) + [threefolds.TWELVE_RAYS, FLAT])
    assert len(fans_) == 306
    for fan in fans_:
        assert fan.cone_solutions == per_cone_solutions(fan), fan


def test_cone_walk_matches_per_cone_solves_on_random_fans():
    """Seeded random fans of dimension 1-4, mostly invalid ones: singular
    and non-smooth cones, zero and repeated rays, cones that repeat an
    index, repeated cones and walls on more than two cones, which link
    none of their cones.  The walk gives each cone its own solve on all
    of them."""
    rng = random.Random(37)
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 7)
        rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        cones = [[rng.randrange(m) for _ in range(n)] for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            cones.append(cones[0])
        fan = Fan(n, rays, cones)
        assert fan.cone_solutions == per_cone_solutions(fan), fan


def test_alpha_class_f2():
    fan, _ = fixture_fan("f2")
    sigma = fan.max_cones.index((0, 1))
    assert alpha_class(fan, sigma, 2) == (1, 2, 1, 0)
    assert alpha_class(fan, sigma, 3) == (0, 1, 0, 1)
    assert alpha_class(fan, sigma, 0) == alpha_class(fan, sigma, 1) == (0, 0, 0, 0)


def test_curve_lattice_supplied_basis():
    fan, lattice = fixture_lattice("f2")
    assert lattice.nef_verified
    assert lattice.basis[0] == (1, 0, 1, -2)
    assert lattice.coordinates((1, 2, 1, 0)) == [1, 2]


def test_curve_lattice_rejects_bad_basis():
    fan, _ = fixture_fan("f2")
    with pytest.raises(FanError, match="is not a curve class"):
        curve_lattice(fan, [[1, 0, 0, 0], [0, 1, 0, 1]])
    for basis in (
        # index-two sublattice: spans over Q, determinant 2
        [[2, 0, 2, -4], [0, 1, 0, 1]],
        # rank-deficient: determinant 0
        [[1, 0, 1, -2], [2, 0, 2, -4]],
        # wrong number of rows
        [[1, 0, 1, -2]],
        [[1, 0, 1, -2], [0, 1, 0, 1], [1, 2, 1, 0]],
    ):
        with pytest.raises(FanError) as err:
            curve_lattice(fan, basis)
        assert str(err.value) == "supplied basis does not span the full curve lattice"


def test_curve_lattice_auto_basis_is_nef():
    for name in ("p2", "p1xp1", "p1cubed", "f2-blowup", "kp2-bundle"):
        fan, lattice = fixture_lattice(name)
        assert lattice.nef_verified, name
        basis = list(lattice.basis)
        assert oracle_nef_witness(fan, basis) is None, name


def test_nef_check_flags_bad_basis():
    fan, _ = fixture_fan("f2")
    # valid Z-basis, but the fiber wall class gets coordinates (-1, 1) in it
    basis = [[1, 0, 1, -2], [1, 1, 1, -1]]
    lattice = curve_lattice(fan, basis)
    assert not lattice.nef_verified
    assert oracle_nef_witness(fan, basis) == (0, 1, 0, 1)


def test_kernel_fallback_nef_verdict(monkeypatch):
    # no fixture reaches the kernel fallback, so force it with a walk that
    # finds no subset: the dual kernel basis is kept, and its verdict must
    # say whether every wall class has nonnegative coordinates in it
    monkeypatch.setattr(fans, "subset_solves", lambda *args: iter(()))
    verdicts = {}
    for name in FIXTURES:
        fan, _ = fixture_fan(name)
        lattice = curve_lattice(fan)
        verdicts[name] = lattice.nef_verified
        assert verdicts[name] is all(min(lattice.coordinates(c)) >= 0
                                     for c in fan.wall_classes), name
    assert {name for name, nef in verdicts.items() if nef} == {
        "p2", "p1xp1", "p1cubed", "kp2-bundle"}


def test_pairing_rows():
    _, lattice = fixture_lattice("f2")
    assert lattice.pairing_row(3) == (-2, 1)
    assert [b[3] for b in lattice.basis] == [-2, 1]


# Test-local oracles: the subset scan and Caratheodory scan that
# `curve_lattice` and `fan_polytope_vertices` used before their certificates
# and integer determinant tests.  The subset scan solves each wall class
# over Q once and tests each subset with `oracles.integer_det`, not with
# `intlinalg`.


def oracle_spans(basis, kernel):
    """Do the rows of `basis`, all curve classes, span the kernel lattice?

    Each kernel row must have integer coordinates over `basis`, by exact
    rational solves; the other inclusion holds because the kernel basis
    spans every integer relation among the rays.
    """
    return (len(basis) == len(kernel)
            and all(lattice_membership(basis, v) is not None for v in kernel))


def oracle_nef_witness(fan, basis):
    """The first wall class without nonnegative integer coordinates over
    `basis`, or None when there is none."""
    for c in fan.wall_classes:
        exps = lattice_membership(basis, c)
        if exps is None or any(e < 0 for e in exps):
            return c
    return None


def oracle_nef(fan, basis):
    """Every wall class has nonnegative integer coordinates over `basis`."""
    return oracle_nef_witness(fan, basis) is None


def oracle_nef_basis(fan):
    """(basis, nef): the first l wall classes that form a nef Z-basis of the
    kernel, in `combinations` order, else the kernel basis and its verdict.

    Each wall class is solved over the kernel basis once; l of them span
    the kernel lattice just when their coordinate rows have determinant
    +-1, one integer determinant a subset.  Over such rows, by Cramer's
    rule, a wall's coordinate a is that determinant times the determinant
    of the rows with row a replaced by the wall's."""
    kernel = left_kernel_basis([list(v) for v in fan.rays])
    walls = [list(c) for c in fan.wall_classes]
    for w in walls:
        assert all(sum(d * v[j] for d, v in zip(w, fan.rays)) == 0
                   for j in range(fan.dimension))
    coords = [lattice_membership(kernel, w) for w in walls]
    assert None not in coords
    for sub in combinations(range(len(walls)), len(kernel)):
        rows = [coords[k] for k in sub]
        det = integer_det(rows)
        if abs(det) == 1 and all(det * integer_det(rows[:a] + [x] + rows[a + 1:]) >= 0
                                 for x in coords for a in range(len(rows))):
            return [tuple(walls[k]) for k in sub], True
    return [tuple(b) for b in kernel], oracle_nef(fan, kernel)


def oracle_hull_vertices(fan):
    """Rays that are no convex combination of at most n+1 other rays."""
    n = fan.dimension
    out = set()
    for i, p in enumerate(fan.rays):
        others = fan.rays[:i] + fan.rays[i + 1:]
        if not any(_in_simplex(p, sub, n) for size in range(1, n + 2)
                   for sub in combinations(others, size)):
            out.add(i)
    return out


def _in_simplex(p, sub, n):
    A = [[q[j] for q in sub] for j in range(n)] + [[1] * len(sub)]
    lam = solve_rational(A, list(p) + [1])
    # solve_rational zero-fills free variables; re-verify the combination
    return (lam is not None and all(v >= 0 for v in lam) and sum(lam) == 1
            and all(sum(l * q[j] for l, q in zip(lam, sub)) == p[j] for j in range(n)))


@pytest.fixture(scope="module")
def oracle_cases():
    """(label, fan, supplied basis) for every bundled fixture and every
    distinct surface of the benchmark's universe."""
    docs = [(name, load_fixture(name)) for name in FIXTURES]
    seen = []
    for rays, _cap in surfaces.universe():
        if rays not in seen:
            seen.append(rays)
            docs.append((f"surface {rays}", surfaces.document(rays)))
    return [(label, *parse_input(doc)[:2]) for label, doc in docs]


def test_nef_basis_matches_rational_scan(oracle_cases):
    verdicts = set()
    for label, fan, supplied in oracle_cases:
        lattice = curve_lattice(fan)
        basis, nef = oracle_nef_basis(fan)
        assert list(lattice.basis) == basis, label
        assert lattice.nef_verified is nef, label
        verdicts.add(nef)
        if supplied is not None:
            kernel = left_kernel_basis([list(v) for v in fan.rays])
            assert oracle_spans(supplied, kernel), label
            lattice = curve_lattice(fan, supplied)
            assert lattice.nef_verified is oracle_nef(fan, supplied), label
    # the universe holds surfaces with and without a nef wall basis
    assert verdicts == {True, False}


def test_hull_vertices_match_caratheodory_scan(oracle_cases):
    for label, fan, _ in oracle_cases:
        assert fan_polytope_vertices(fan) == oracle_hull_vertices(fan), label



def test_coordinates_match_rational_membership(oracle_cases):
    for label, fan, supplied in oracle_cases:
        lattices = [curve_lattice(fan)]
        if supplied is not None:
            lattices.append(curve_lattice(fan, supplied))
        classes = list(fan.wall_classes) + [
            alpha_class(fan, sigma, k)
            for sigma, cone in enumerate(fan.max_cones)
            for k in range(fan.num_rays) if k not in cone]
        # unit vectors: sum_i d_i v_i = v_k, never zero
        outside = [tuple(int(i == k) for i in range(fan.num_rays))
                   for k in range(fan.num_rays)]
        for lattice in lattices:
            basis = list(lattice.basis)
            for c in classes:
                exps = lattice.coordinates(c)
                assert exps is not None, (label, c)
                assert exps == lattice_membership(basis, c), (label, c)
            for c in outside:
                assert lattice.coordinates(c) is None, (label, c)


def test_alpha_classes_lie_in_the_kernel(oracle_cases):
    """The class of every ray k off every cone is a relation among the rays,
    +1 at k and 0 off the cone and k, and a ray of the cone has the zero
    class; `coordinates` gives None both for a class outside the kernel and
    for one off the basis lattice, so the relation is summed here from the
    rays."""
    for label, fan, _ in oracle_cases:
        for sigma, cone in enumerate(fan.max_cones):
            for k in range(fan.num_rays):
                d = alpha_class(fan, sigma, k)
                if k in cone:
                    assert d == (0,) * fan.num_rays, (label, sigma, k)
                    continue
                assert [sum(x * v[j] for x, v in zip(d, fan.rays))
                        for j in range(fan.dimension)] == [0] * fan.dimension, (
                    label, sigma, k)
                assert [d[i] for i in range(fan.num_rays) if i not in cone] == [
                    int(i == k) for i in range(fan.num_rays) if i not in cone], (
                    label, sigma, k)


def test_coordinates_refuse_classes_off_the_basis_lattice():
    fan, _ = fixture_fan("f2")
    # an index-two sublattice: spans the kernel over Q, not over Z
    basis = [(2, 0, 2, -4), (0, 1, 0, 1)]
    index_two = CurveLattice(fan, tuple(basis))
    for cls, exps in (((1, 0, 1, -2), None), ((1, 2, 1, 0), None),
                      ((2, 1, 2, -3), [1, 1]), ((0, 3, 0, 3), [0, 3])):
        assert lattice_membership(basis, cls) == exps, cls
        assert index_two.coordinates(cls) == exps, cls


def times_p1(fan):
    """The product fan of `fan` and P1: rays (v, 0), then (0, ..., 0, +-1);
    every cone of `fan` with each of those two rays, the +1 side first."""
    n, m = fan.dimension, fan.num_rays
    rays = [v + (0,) for v in fan.rays] + [(0,) * n + (1,), (0,) * n + (-1,)]
    cones = [cone + (t,) for t in (m, m + 1) for cone in fan.max_cones]
    return Fan(n + 1, tuple(rays), tuple(cones))


def test_surface_times_p1_matches_the_oracles(oracle_cases):
    """Threefolds X x P1 over every fifth distinct surface of the universe
    (20 of 96, with and without a nef wall basis): the nef
    verdict, the basis and the hull vertices agree with the oracle scans.
    Without a nef basis the kernel fallback's rows come in another order
    than the oracle's Hermite kernel, so there the lattices are compared."""
    surface_fans = [fan for label, fan, _ in oracle_cases if label.startswith("surface")]
    verdicts = set()
    for fan in surface_fans[::5]:
        product = times_p1(fan)
        assert validate_fan(product) == [], fan.rays
        lattice = curve_lattice(product)
        got = list(lattice.basis)
        basis, nef = oracle_nef_basis(product)
        assert lattice.nef_verified is nef, fan.rays
        if nef:
            assert got == basis, fan.rays
        else:
            assert oracle_spans(got, basis) and oracle_spans(basis, got), fan.rays
            assert not oracle_nef(product, got), fan.rays
        verdicts.add(nef)
        assert fan_polytope_vertices(product) == oracle_hull_vertices(product), fan.rays
    assert verdicts == {True, False}


def test_hull_vertices_beyond_semi_fano():
    """The n-subset certificate needs only a complete fan.  Seeded toric
    blow-ups of P2 and P1xP1 with no floor on self-intersections (18 of
    the 40 are not semi-Fano), and X x P1 over every fourth of them,
    against the (n+1)-simplex scan."""
    rng = random.Random(27)
    semi, off_hull = set(), 0
    for s in range(40):
        rays = surfaces.BASES[("p2", "p1xp1")[s % 2]]
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(len(rays))
            a, b = rays[i], rays[(i + 1) % len(rays)]
            rays = rays[:i + 1] + ((a[0] + b[0], a[1] + b[1]),) + rays[i + 1:]
        fan = parse_input(surfaces.document(rays))[0]
        assert validate_fan(fan) == [], rays
        semi.add(is_semi_fano(fan)[0])
        for f in [fan, times_p1(fan)] if s % 4 == 0 else [fan]:
            vertices = oracle_hull_vertices(f)
            assert fan_polytope_vertices(f) == vertices, f.rays
            off_hull += f.num_rays - len(vertices)
    assert semi == {True, False} and off_hull > 40


def test_wall_classes_are_the_wall_relations(oracle_cases):
    """One class per wall relation: in the kernel, +1 at the two rays
    opposite the wall and 0 off the wall and those two rays."""
    for label, fan, _ in oracle_cases:
        classes = list(fan.wall_classes)
        assert len(set(classes)) == len(classes), label
        for d in classes:
            assert all(sum(x * v[j] for x, v in zip(d, fan.rays)) == 0
                       for j in range(fan.dimension)), (label, d)
        relations = set()
        for wall, cones in fan.walls.items():
            opposite = {r for c, _ in cones for r in fan.max_cones[c] if r not in wall}
            assert opposite == {fan.max_cones[c][p] for c, p in cones}, (label, wall)
            fits = [d for d in classes
                    if all(d[i] == (i in opposite)
                           for i in range(fan.num_rays) if i not in wall)]
            assert len(fits) == 1, (label, wall)
            relations.update(fits)
        assert relations == set(classes), label

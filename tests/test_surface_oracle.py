import hashlib
import sys
from itertools import combinations
from pathlib import Path

import pytest

from semifano import (
    Fan,
    FanError,
    MultiSeries,
    TruncationBox,
    analyze,
    cross_validate_surface,
    curve_lattice,
    surface_admissible_deltas,
)
from semifano import cli, mirror, superpotential
from semifano.superpotential import (
    _admissible_side_sequences,
    surface_self_intersections,
)
from conftest import fixture_analysis, fixture_fan, fixture_lattice, fixture_path
from oracles import GL2, add, to_dict, variants
from test_invariance import nef_universe

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import surfaces  # noqa: E402


def test_self_intersections_f2():
    fan, _ = fixture_fan("f2")
    assert surface_self_intersections(fan) == {0: 0, 1: 2, 2: 0, 3: -2}


def test_self_intersections_f2_blowup():
    fan, _ = fixture_fan("f2-blowup")
    assert surface_self_intersections(fan) == {0: 0, 1: 1, 2: -1, 3: -1, 4: -2}


def test_self_intersections_on_the_universe():
    # against the benchmark generator's divisibility reading of the same
    # neighbour relation, on rays it lists in cyclic order
    for rays in dict.fromkeys(rays for rays, _ in surfaces.universe()):
        fan, _, _ = cli.parse_input(surfaces.document(rays))
        assert surface_self_intersections(fan) == dict(
            enumerate(surfaces.self_intersections(rays))), rays


# GL2 and two maps of determinant -1, which reverse the rays' cyclic order
MAPS = GL2 + (((0, 1), (1, 0)), ((-1, 0), (0, 1)))


def test_self_intersections_are_carried_along_by_maps_and_re_indexings():
    surfaces_seen = 0
    for rays in dict.fromkeys(rays for rays, _ in surfaces.universe()):
        fan, _, _ = cli.parse_input(surfaces.document(rays))
        selfints = surface_self_intersections(fan)
        for pi, image in variants(fan, MAPS):
            assert surface_self_intersections(image) == {
                pi[k]: d for k, d in selfints.items()}, (rays, pi, image.rays)
        surfaces_seen += 1
    assert surfaces_seen == 96


def test_oracle_agrees_with_the_engine_under_maps_and_re_indexings():
    # each variant is read afresh, over the basis its own nef search picks
    cases = 0
    for fan, cap in nef_universe():
        for _, image in variants(fan, MAPS):
            lattice = curve_lattice(image)
            box = TruncationBox((cap,) * lattice.rank)
            oracle = surface_admissible_deltas(image, lattice, box)
            report = cross_validate_surface(oracle, analyze(image, lattice, box))
            assert report.passed, (image.rays, report.details)
            cases += 1
    assert cases == 840


def test_admissible_delta_f2():
    fan, lattice = fixture_lattice("f2")
    box = TruncationBox((5, 5))
    deltas = surface_admissible_deltas(fan, lattice, box)
    assert len(deltas) == fan.num_rays
    assert to_dict(deltas[3]) == {(1, 0): 1}
    for i in (0, 1, 2):
        assert deltas[i].is_zero()


def test_admissible_delta_fano_zero():
    fan, lattice = fixture_lattice("p1xp1")
    box = TruncationBox((4, 4))
    deltas = surface_admissible_deltas(fan, lattice, box)
    assert len(deltas) == 4
    for i in range(4):
        assert deltas[i].is_zero()


def test_cross_validation_surfaces():
    for name, caps in (
        ("f2", (5, 5)),
        ("f2-blowup", (5, 5, 5)),
        ("p1xp1", (5, 5)),
        ("p2", (5,)),
    ):
        fan, lattice = fixture_lattice(name)
        box = TruncationBox(caps)
        oracle = surface_admissible_deltas(fan, lattice, box)
        report = cross_validate_surface(oracle, analyze(fan, lattice, box))
        assert report.passed, (name, report.details)


def test_cross_validation_on_the_universe(monkeypatch):
    # every surface of the benchmark's universe with a nef wall basis, at
    # each of its caps: the chains of (-2)-curves of length 2 give deltas of
    # more than one term, such as q3 + q3*q4, which only the oracle's walks
    # along a chain produce
    lengths = []
    walk = superpotential._admissible_side_sequences
    monkeypatch.setattr(superpotential, "_admissible_side_sequences",
                        lambda start, length: lengths.append(length) or walk(start, length))
    pairs = chains = 0
    for rays, cap in surfaces.universe():
        fan, _, _ = cli.parse_input(surfaces.document(rays))
        lattice = curve_lattice(fan)
        if not lattice.nef_verified:
            continue
        box = TruncationBox((cap,) * lattice.rank)
        oracle = surface_admissible_deltas(fan, lattice, box)
        report = cross_validate_surface(oracle, analyze(fan, lattice, box))
        assert report.passed, (rays, cap, report.details)
        pairs += 1
        chains += any(len(d.coefficients()) > 1 for d in oracle)
    assert pairs == 62
    assert chains >= 6
    # the walks went past their base case
    assert max(lengths) > 0


@pytest.mark.parametrize("ray", range(5))
def test_cross_validation_names_the_disagreeing_ray(ray):
    an = fixture_analysis("f2-blowup", (5, 5, 5))
    oracle = list(surface_admissible_deltas(an.fan, an.lattice, an.box))
    oracle[ray] = add(oracle[ray], MultiSeries.from_dict(an.box, {(1, 0, 0): 1}))
    report = cross_validate_surface(tuple(oracle), an)
    assert not report.passed
    assert report.details == (f"ray {ray + 1}: oracle and engine disagree",)


def test_oracle_rejects_threefold():
    fan, lattice = fixture_lattice("threefold-example")
    with pytest.raises(FanError):
        surface_admissible_deltas(fan, lattice, TruncationBox((2, 2, 2, 2)))
    with pytest.raises(FanError):
        surface_self_intersections(fan)


def test_oracle_rejects_a_ray_outside_two_cones():
    # P^2's fan without its third cone: rays 1 and 3 lie in one cone each
    fan, lattice = fixture_lattice("p2")
    open_fan = Fan(2, fan.rays, fan.max_cones[:2])
    with pytest.raises(FanError):
        surface_admissible_deltas(open_fan, lattice, TruncationBox((2,)))


def test_self_intersections_reject_a_ray_in_no_cone():
    # P^2's fan with a stray ray (1, 1), which validate_fan refuses: the
    # oracle refuses it too, as the ray has no neighbours to read
    fan, _ = fixture_fan("p2")
    stray = Fan(2, fan.rays + ((1, 1),), fan.max_cones)
    with pytest.raises(FanError, match="ray 4 lies in 0 cone"):
        surface_self_intersections(stray)


def test_cross_validation_refuses_before_engine_runs(monkeypatch, capsys):
    def engine_must_not_run(*args):
        raise AssertionError("engine ran on a fan the oracle refuses")

    for name in ("compute_g0_family", "assemble_mirror_map"):
        monkeypatch.setattr(superpotential, name, engine_must_not_run)
    for name, message in (
        ("threefold-example", "surface oracle needs a 2-dimensional fan"),
        ("f3", "fan is not semi-Fano"),
    ):
        path = str(fixture_path(f"{name}.json"))
        assert cli.main(["surface-oracle", path]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ("check", "surface-oracle"))
def test_surface_command_runs_engine_and_oracle_once(call_counts, capsys, command):
    calls, count = call_counts
    count(superpotential, "compute_g0_family")
    count(mirror, "pull_back")
    count(cli, "surface_admissible_deltas")
    path = str(fixture_path("f2-blowup.json"))
    assert cli.main([command, path, "--box", "5,5,5"]) == 0
    capsys.readouterr()
    assert calls == {
        "compute_g0_family": 1,
        "pull_back": 1,
        "surface_admissible_deltas": 1,
    }


def test_oracle_rejects_non_semi_fano():
    fan, _ = fixture_fan("f3")
    from semifano import curve_lattice

    lattice = curve_lattice(fan)
    with pytest.raises(FanError):
        surface_admissible_deltas(fan, lattice, TruncationBox((3, 3)))


def universe_oracle_digests():
    """sha256 over the oracle's deltas, as `coefficients()`, of every
    (surface, cap) pair of the benchmark's universe at its cap and at cap + 2,
    split by whether the lattice is nef-verified or the fallback basis; and
    the number of cases each digest covers and of those with a nonzero delta."""
    digests, cases = {}, {}
    for rays, cap in surfaces.universe():
        fan, _, _ = cli.parse_input(surfaces.document(rays))
        lattice = curve_lattice(fan)
        for c in (cap, cap + 2):
            box = TruncationBox((c,) * lattice.rank)
            out = [d.coefficients() for d in surface_admissible_deltas(fan, lattice, box)]
            digests.setdefault(lattice.nef_verified, hashlib.sha256()).update(
                repr((rays, c, out)).encode())
            n, nonzero = cases.get(lattice.nef_verified, (0, 0))
            cases[lattice.nef_verified] = (n + 1, nonzero + any(out))
    return {nef: h.hexdigest() for nef, h in digests.items()}, cases


def test_oracle_pinned_on_the_universe():
    # 123 (surface, cap) pairs over 96 surfaces, at two caps each; the 61
    # surfaces with no nef basis among the walls are read over the fallback
    # basis, in which many classes leave the box
    digests, cases = universe_oracle_digests()
    assert cases == {True: (124, 60), False: (122, 76)}
    assert digests == {
        True: "99bcb7a7055293497f2f0e306a72152ee157ae9bc5ad577a520c5e7292f874c3",
        False: "3e8a26084562f5f172fa2b59e60c575cf8809a3523030a45459b3ea15d524d4e",
    }


@pytest.mark.parametrize("name, caps, expected", [
    ("f2", (5, 5), {3: [((1, 0), 1, 1)]}),
    ("f2-blowup", (5, 5, 5), {4: [((0, 0, 1), 1, 1)]}),
    ("p1xp1", (5, 5), {}),
    ("p2", (5,), {}),
])
def test_oracle_pinned_on_the_fixtures(name, caps, expected):
    fan, lattice = fixture_lattice(name)
    oracle = surface_admissible_deltas(fan, lattice, TruncationBox(caps))
    assert {i: d.coefficients() for i, d in enumerate(oracle) if not d.is_zero()} == expected


def boundary_curves(rays):
    """The class of each boundary curve D_k of a surface whose rays are listed
    in cyclic order: 1 at both neighbours and D_k^2 at k, D_k^2 read off the
    neighbour relation by the benchmark's engine-free generator."""
    m = len(rays)
    out = []
    for k, d2 in enumerate(surfaces.self_intersections(rays)):
        d = [0] * m
        d[k - 1] += 1
        d[(k + 1) % m] += 1
        d[k] += d2
        out.append(tuple(d))
    return out


def curve_basis_through(fan, rays, chain):
    """(sub, lattice): the first (m - 2)-subset of boundary curves, in
    `combinations` order, that holds the chain's curves and is a Z-basis of
    the curve lattice, and the lattice over it."""
    curves = boundary_curves(rays)
    for sub in combinations(range(len(rays)), len(rays) - 2):
        if set(chain) <= set(sub):
            try:
                return sub, curve_lattice(fan, [curves[k] for k in sub])
            except FanError:
                pass


def a3_chain(rays):
    """The three rays, in cyclic order, of a chain of three (-2)-curves, or None."""
    d2, m = surfaces.self_intersections(rays), len(rays)
    return next(([(p + j) % m for j in range(3)] for p in range(m)
                 if all(d2[(p + j) % m] == -2 for j in range(3))), None)


# the universe's surfaces with a chain of three (-2)-curves (type A3); none
# has a nef basis among its walls
A3_SURFACES = (
    ((1, 0), (0, 1), (-1, 0), (-2, -1), (-1, -1), (0, -1), (1, -1), (2, -1)),
    ((1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-1, -1), (-1, -2), (0, -1)),
    ((1, 0), (1, 1), (1, 2), (0, 1), (-1, 0), (0, -1), (1, -2), (1, -1)),
    ((1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-2, 1), (-1, 0), (0, -1)),
)


def test_a3_surfaces_of_the_universe():
    found = [rays for rays in dict.fromkeys(r for r, _ in surfaces.universe())
             if a3_chain(rays)]
    assert found == list(A3_SURFACES)


@pytest.mark.parametrize("rays", A3_SURFACES, ids=range(1, 5))
@pytest.mark.parametrize("cap", (2, 4))
def test_a3_chain_deltas_over_the_chain_curves(rays, cap):
    """Over a basis of boundary curves that holds the chain's curves a, b, c,
    the deltas of the chain's rays are Chan-Lau's A3 sums: the ends get
    a + ab + abc (and its mirror), walked along one side of length 2, and
    the middle b + bc + ab + abc + ab^2c."""
    fan, _, _ = cli.parse_input(surfaces.document(rays))
    chain = a3_chain(rays)
    sub, lattice = curve_basis_through(fan, rays, chain)
    a, b, c = (sub.index(k) for k in chain)

    def q(*positions):
        e = [0] * lattice.rank
        for p in positions:
            e[p] += 1
        return tuple(e)

    oracle = surface_admissible_deltas(fan, lattice, TruncationBox((cap,) * lattice.rank))
    expected = {
        chain[0]: [q(a), q(a, b), q(a, b, c)],
        chain[1]: [q(b), q(a, b), q(b, c), q(a, b, c), q(a, b, b, c)],
        chain[2]: [q(c), q(b, c), q(a, b, c)],
    }
    for k, exps in expected.items():
        assert oracle[k].coefficients() == sorted(
            [(e, 1, 1) for e in exps], key=lambda t: (sum(t[0]), t[0])), k


@pytest.mark.parametrize("rays, expected", [
    (A3_SURFACES[0], {4: [], 5: [], 6: []}),
    (A3_SURFACES[1], {3: [], 4: [], 5: []}),
    (A3_SURFACES[2], {
        7: [],
        0: [((0, 0, 0, 0, 0, 1), 1, 1), ((1, 0, 0, 0, 0, 1), 1, 1),
            ((1, 0, 0, 0, 1, 0), 1, 1)],
        1: [((1, 0, 0, 0, 0, 0), 1, 1), ((1, 0, 0, 0, 0, 1), 1, 1)],
    }),
    (A3_SURFACES[3], {2: [], 3: [], 4: []}),
], ids=range(1, 5))
def test_a3_chain_deltas_over_the_fallback_basis(rays, expected):
    # the lattice the commands read: no nef basis, so the fallback basis,
    # over which most chain classes have a negative coordinate
    fan, _, _ = cli.parse_input(surfaces.document(rays))
    lattice = curve_lattice(fan)
    assert not lattice.nef_verified
    oracle = surface_admissible_deltas(fan, lattice, TruncationBox((4,) * lattice.rank))
    assert {k: oracle[k].coefficients() for k in expected} == expected


@pytest.mark.parametrize("start, length, runs", [
    (0, 2, [[0, 0]]),
    (1, 2, [[0, 0], [1, 0], [1, 1]]),
    (2, 2, [[1, 0], [1, 1], [2, 1]]),
    (3, 2, [[2, 1]]),
    (4, 2, []),
    (1, 0, [[]]),
    (2, 0, []),
    (2, 1, [[1]]),
])
def test_admissible_side_sequences(start, length, runs):
    assert sorted(_admissible_side_sequences(start, length)) == runs

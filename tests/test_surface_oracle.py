import sys
from pathlib import Path

import pytest

from semifano import (
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
    cyclic_ray_order,
    surface_self_intersections,
)
from conftest import fixture_analysis, fixture_fan, fixture_lattice, fixture_path
from oracles import add, to_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import surfaces  # noqa: E402


def test_cyclic_order_f2():
    fan, _ = fixture_fan("f2")
    order = cyclic_ray_order(fan)
    start = order.index(0)
    rotated = order[start:] + order[:start]
    assert rotated == [0, 1, 2, 3]


def test_self_intersections_f2():
    fan, _ = fixture_fan("f2")
    assert surface_self_intersections(fan) == {0: 0, 1: 2, 2: 0, 3: -2}


def test_self_intersections_f2_blowup():
    fan, _ = fixture_fan("f2-blowup")
    assert surface_self_intersections(fan) == {0: 0, 1: 1, 2: -1, 3: -1, 4: -2}


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

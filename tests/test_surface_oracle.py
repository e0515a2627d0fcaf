import pytest

from semifano import (
    FanError,
    TruncationBox,
    cross_validate_surface,
    surface_admissible_delta,
)
from semifano import superpotential
from semifano.superpotential import (
    cyclic_ray_order,
    surface_self_intersections,
)
from conftest import fixture_fan, fixture_lattice


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
    assert surface_admissible_delta(fan, lattice, 3, box).to_dict() == {
        (1, 0): 1
    }
    for i in (0, 1, 2):
        assert surface_admissible_delta(fan, lattice, i, box).is_zero()


def test_admissible_delta_fano_zero():
    fan, lattice = fixture_lattice("p1xp1")
    box = TruncationBox((4, 4))
    for i in range(4):
        assert surface_admissible_delta(fan, lattice, i, box).is_zero()


def test_cross_validation_surfaces():
    for name, caps in (
        ("f2", (5, 5)),
        ("f2-blowup", (5, 5, 5)),
        ("p1xp1", (5, 5)),
        ("p2", (5,)),
    ):
        fan, lattice = fixture_lattice(name)
        report = cross_validate_surface(fan, lattice, TruncationBox(caps))
        assert report.passed, (name, report.details)


def test_oracle_rejects_threefold():
    fan, lattice = fixture_lattice("threefold-example")
    with pytest.raises(FanError):
        surface_admissible_delta(fan, lattice, 0, TruncationBox((2, 2, 2, 2)))


def test_cross_validation_refuses_before_engine_runs(monkeypatch):
    def engine_must_not_run(*args):
        raise AssertionError("engine ran on a fan the oracle refuses")

    monkeypatch.setattr(superpotential, "compute_g0_family", engine_must_not_run)
    fan, lattice = fixture_lattice("threefold-example")
    with pytest.raises(FanError):
        cross_validate_surface(fan, lattice, TruncationBox((2, 2, 2, 2)))


def test_oracle_rejects_non_semi_fano():
    fan, _ = fixture_fan("f3")
    from semifano import curve_lattice

    lattice = curve_lattice(fan)
    with pytest.raises(FanError):
        surface_admissible_delta(fan, lattice, 3, TruncationBox((3, 3)))

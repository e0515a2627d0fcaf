import json
from importlib import resources

import pytest
from hypothesis import settings

from semifano import TruncationBox, analyze, curve_lattice
from semifano.cli import parse_input

# every property test sees the same examples on every run, and none are
# replayed from a database of earlier failures
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def fixture_path(name):
    return resources.files("semifano").joinpath("fixtures", name)


def load_fixture(name):
    return json.loads(fixture_path(f"{name}.json").read_text())


def fixture_fan(name):
    fan, basis, _meta = parse_input(load_fixture(name))
    return fan, basis


def fixture_lattice(name):
    fan, basis = fixture_fan(name)
    return fan, curve_lattice(fan, basis)


def fixture_analysis(name, caps):
    fan, lattice = fixture_lattice(name)
    return analyze(fan, lattice, TruncationBox(caps))


@pytest.fixture(scope="session")
def f2_analysis():
    return fixture_analysis("f2", (5, 5))


@pytest.fixture(scope="session")
def threefold_lattice():
    return fixture_lattice("threefold-example")


@pytest.fixture
def call_counts(monkeypatch):
    """(calls, count): count(module, name) makes calls[name] count the
    calls of module.name for the rest of the test."""
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    return calls, count

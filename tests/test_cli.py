import hashlib
import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from semifano import MultiSeries, cli, fans, mirror, superpotential
from semifano.cli import (
    MAX_BOX_DEGREE,
    MAX_BOX_MONOMIALS,
    InputError,
    main,
    parse_input,
)
from conftest import fixture_path, load_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(fixture_path(f"{name}.json"))


ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """The arguments of each `semifano` line in the README's command-line
    example block."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("semifano ")]


def test_parse_input_fixture():
    fan, basis, meta = parse_input(load_fixture("f2"))
    assert fan.dimension == 2
    assert fan.rays == ((1, 0), (0, 1), (-1, -2), (0, -1))
    assert basis == [[1, 0, 1, -2], [0, 1, 0, 1]]


def test_parse_input_threefold():
    fan, basis, meta = parse_input(load_fixture("threefold-example"))
    assert fan.rays[5] == (-1, -1, 3)
    assert len(basis) == 4
    assert meta["display_monomials"] == {"q5": "q2*q3^2*q4"}


def test_parse_input_errors():
    with pytest.raises(InputError):
        parse_input({"dimension": 2, "rays": [[1, 0]]})  # missing max_cones
    with pytest.raises(InputError):
        parse_input({"dimension": 0, "rays": [], "max_cones": []})
    with pytest.raises(InputError):
        parse_input(
            {"dimension": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
        )  # 0 is not a valid 1-based index


def test_validate_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "validate", fx("f2"))
    assert code == 0
    assert "semi-Fano: yes" in out
    code, out, _ = run_cli(capsys, "validate", fx("f3"))
    assert code == 1
    assert "not semi-Fano" in out
    assert "-1" in out


def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_bad_document_is_reported(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dimension": 2, "rays": [[1, 0]]}))
    code, _, err = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert "max_cones" in err


def test_deeply_nested_json_is_reported(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{p}: JSON nested too deeply"}


@pytest.mark.parametrize("rays, cones, message", [
    ([[1, 0], [0, 1], [1, 1]], [[1, 2], [2, 3], [3, 1]],
     "cone (2, 3) overlaps the first cone"),
    ([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-2, -1], [-1, -1]],
     [[i, i % 7 + 1] for i in range(1, 8)],
     "cone (4, 5) overlaps the first cone"),
], ids=["one-quadrant", "twice-around"])
def test_cones_that_are_no_fan_are_refused(tmp_path, capsys, rays, cones, message):
    p = tmp_path / "nonfan.json"
    p.write_text(json.dumps({"dimension": 2, "rays": rays, "max_cones": cones}))
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 1
    assert f"invalid fan: {message}" in out
    assert "semi-Fano" not in out
    code, out, err = run_cli(capsys, "invariants", str(p), "--box", "2")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv, gram", [
    (("check", "--box", "3,3,3"), 1),
    (("validate",), 0),
    (("invariants", "--box", "3,3,3"), 0),
], ids=["check", "validate", "invariants"])
def test_wall_classes_are_solved_once_per_job(capsys, monkeypatch, argv, gram):
    """f2-blowup's first maximal cone is eliminated against every ray, and
    each of its other 4 cones is reached from a neighbour by one exchange,
    which gives exactly that cone's own solve; the wall classes and term
    classes read those solutions.  The nef search and the hull test walk
    their subsets without a solve of their own, so a job adds one basis
    solve per lattice that is asked for coordinates (however many
    `coordinates` calls it serves) and, in `check`, one for the Gram test
    of `structural_report`."""
    solve, swap = fans.fraction_free_solve, fans.exchange
    calls, swapped, coordinates = [], [], []

    def counted(B, Y):
        calls.append(tuple(B))
        return solve(B, Y)

    for module in (fans, superpotential):
        monkeypatch.setattr(module, "fraction_free_solve", counted)
    monkeypatch.setattr(fans, "exchange", lambda *a: swapped.append(swap(*a)) or swapped[-1])
    lattice_coordinates = fans.CurveLattice.coordinates
    monkeypatch.setattr(fans.CurveLattice, "coordinates",
                        lambda *a: coordinates.append(a) or lattice_coordinates(*a))
    code, _, _ = run_cli(capsys, argv[0], fx("f2-blowup"), *argv[1:])
    fan = parse_input(load_fixture("f2-blowup"))[0]
    cones = [tuple(fan.rays[k] for k in cone) for cone in fan.max_cones]
    assert code == 0
    assert [B for B in calls if B in cones] == cones[:1]
    assert sorted(swapped) == sorted(solve(B, fan.rays) for B in cones[1:])
    lattices = {id(a[0]) for a in coordinates}
    assert len(calls) == 1 + len(lattices) + gram


P1 = {"rays": [[1], [-1]], "max_cones": [[1], [2]]}
P2 = {"dimension": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
      "max_cones": [[1, 2], [2, 3], [3, 1]]}


def test_validate_checks_options_only_on_a_valid_fan(tmp_path, capsys):
    # an invalid fan reports its violations, whatever the options say
    p = tmp_path / "doubled.json"
    p.write_text(json.dumps({**P2, "rays": [[1, 0], [1, 0], [-1, -1]]}))
    argv = ("--box", "abc", "--ray", "99", "--cone", "0")
    code, out, err = run_cli(capsys, "validate", str(p), *argv)
    assert (code, err) == (1, "")
    assert "invalid fan: rays are not pairwise distinct" in out


def test_a_ray_in_no_cone_is_refused(tmp_path, capsys):
    # P^2's fan with a stray ray (1, 1): no maximal cone holds it, so it
    # would add a curve class and a term but no divisor of the variety
    p = tmp_path / "stray.json"
    p.write_text(json.dumps({**P2, "rays": P2["rays"] + [[1, 1]]}))
    code, out, err = run_cli(capsys, "validate", str(p))
    assert (code, out, err) == (1, "invalid fan: ray 4 lies in no maximal cone\n", "")
    for command in ("g0", "mirror-map", "invariants", "superpotential",
                    "surface-oracle", "check"):
        code, out, err = run_cli(capsys, command, str(p))
        assert (code, out) == (2, ""), command
        assert json.loads(err) == {"error": "ray 4 lies in no maximal cone"}, command


# JSON true and false load as bool, which isinstance counts as int
@pytest.mark.parametrize("document, message", [
    ({**P1, "dimension": True},
     "field 'dimension' must be a positive integer"),
    ({**P2, "rays": [[True, 0], [0, 1], [-1, -1]]},
     "field 'rays'[0] must be an integer 2-vector"),
    ({**P2, "rays": [[1, 0], [0, True], [-1, -1]]},
     "field 'rays'[1] must be an integer 2-vector"),
    ({**P2, "max_cones": [[1, 2], [2, 3], [3, True]]},
     "field 'max_cones'[2] must list 1-based ray indices"),
    ({**P2, "curve_class_basis": [[True, True, True]]},
     "field 'curve_class_basis'[0] must be an integer 3-vector"),
], ids=["dimension", "ray-first", "ray-second", "cone", "basis"])
def test_json_booleans_are_not_integers(tmp_path, capsys, document, message):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(document))
    for command in ("validate", "g0"):
        code, out, err = run_cli(capsys, command, str(p))
        assert (code, out) == (2, ""), command
        assert message in err, command


def test_g0_output(capsys):
    code, out, _ = run_cli(capsys, "g0", fx("f2"), "--box", "3,3")
    assert code == 0
    assert "g0[4] = q1 + 3/2*q1^2 + 10/3*q1^3" in out


def test_invariants_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", fx("f2"), "--box", "2,2", "--ray", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k1\tk2\tn"
    table = {tuple(map(int, l.split("\t")[:2])): int(l.split("\t")[2])
             for l in lines[1:]}
    assert table[(0, 0)] == 1
    assert table[(1, 0)] == 1
    assert table[(2, 0)] == 0


def test_fractional_disk_count_exits_2(capsys, monkeypatch):
    # disk counts are integers: a fractional one is an error, not a table
    real = cli.analyze

    def analyze(fan, lattice, box):
        an = real(fan, lattice, box)
        an.deltas[3].__dict__["one_plus"] = MultiSeries.from_dict(
            box, {(0, 0): 1, (1, 0): Fraction(1, 2)})
        return an

    monkeypatch.setattr(cli, "analyze", analyze)
    code, out, err = run_cli(capsys, "invariants", fx("f2"), "--box", "2,2")
    assert (code, out) == (2, "")
    assert err.splitlines() == [json.dumps(
        {"error": "non-integer disk count at exponents [(1, 0)] for ray 4"})]


@pytest.mark.parametrize("argv, code, built", [
    (("g0", "threefold-example", "--box", "10,10,0,0"), 0,
     {"compute_g0_family": 1}),
    (("mirror-map", "f2", "--box", "3,3"), 0,
     {"compute_g0_family": 1, "pull_back": 1}),
    (("invariants", "threefold-example", "--box", "3", "--ray", "1"), 0,
     {"compute_g0_family": 1, "pull_back": 1, "exp_series": 1}),
    (("surface-oracle", "f3"), 2, {}),
], ids=["g0", "mirror-map", "invariants-ray", "surface-oracle-refused"])
def test_commands_build_only_the_stages_they_read(capsys, call_counts, argv, code, built):
    # the analysis builds a stage on its first read: g0 inverts nothing,
    # mirror-map takes no exp, one ray's table takes one, and a fan the
    # surface oracle refuses never reaches the engine
    calls, count = call_counts
    count(superpotential, "compute_g0_family")
    count(mirror, "pull_back")
    count(superpotential, "exp_series")
    command, name, *options = argv
    assert run_cli(capsys, command, fx(name), *options)[0] == code
    assert calls == built


def test_superpotential_equal(capsys):
    code, out, _ = run_cli(capsys, "superpotential", fx("f2"), "--box", "5,5")
    assert code == 0
    assert out.strip().endswith("EQUAL")
    assert "q2*(1 + q1)*z2^-1" in out
    code, out, _ = run_cli(
        capsys, "superpotential", fx("f2"), "--box", "3,3", "--cone", "4"
    )
    assert code == 0
    assert out.strip().endswith("EQUAL")


def test_surface_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "surface-oracle", fx("f2"), "--box", "5,5")
    assert code == 0
    assert "AGREE" in out


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", fx("p2"), "--box", "3")
    assert code == 0
    assert "PF=LF: PASS" in out
    code, out, _ = run_cli(capsys, "check", fx("f3"), "--box", "3,3")
    assert code == 1


def test_json_envelope(capsys):
    code, out, _ = run_cli(
        capsys, "validate", fx("f2"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "validate"
    assert len(doc["inputs_digest"]) == 64
    assert doc["results"]["semi_fano"] is True


def test_output_is_deterministic(capsys):
    runs = set()
    for _ in range(3):
        _, out, _ = run_cli(
            capsys, "mirror-map", fx("f2"), "--box", "4,4", "--format", "json"
        )
        runs.add(out)
    assert len(runs) == 1


def test_box_budget_exit_2(capsys):
    # 41^4 monomials: refused before any series work starts
    for command in ("g0", "validate"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, fx("threefold-example"),
                                 "--box", "40")
        assert time.perf_counter() - start < 1, command
        assert (code, out) == (2, ""), command
        assert json.loads(err)["error"] == (
            f"box (40, 40, 40, 40) has 2825761 monomials, over the limit of "
            f"{MAX_BOX_MONOMIALS}"
        ), command


def test_box_degree_budget_exit_2(capsys, monkeypatch):
    # 100,000 monomials pass the monomial budget, but the pass along one
    # variable would not finish: refused before any series work starts
    def never(*args):
        raise AssertionError("the engine ran")

    for name in ("compute_g0_family", "assemble_mirror_map"):
        monkeypatch.setattr(superpotential, name, never)
    for command in ("g0", "validate", "invariants"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, fx("threefold-example"),
                                 "--box", "99999,0,0,0")
        assert time.perf_counter() - start < 1, command
        assert (code, out) == (2, ""), command
        assert json.loads(err)["error"] == (
            f"box (99999, 0, 0, 0) has degree 99999, over the limit of "
            f"{MAX_BOX_DEGREE}"
        ), command


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_lines_run(capsys, monkeypatch, argv):
    # every command checks its box against both budgets before it prints, so
    # exit 0 with no error means the documented box is within them
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def test_readme_lists_every_command():
    assert sorted(argv[0] for argv in readme_commands()) == sorted(cli.COMMANDS)


def test_mirror_map_box_default(capsys):
    # a single cap is broadcast across all variables
    code, out, _ = run_cli(capsys, "mirror-map", fx("f2"), "--box", "3")
    assert code == 0
    assert "inverse exponent 1: -2*q1 + q1^2 - 2/3*q1^3" in out


# int() would take the last four: digit separators, spaces, signs and
# non-ASCII decimal digits
@pytest.mark.parametrize("box", ["x", "5,,5", "", "1e3", "-1", "3,-2",
                                 "1_0,0", " 5, 5", "+3,3", "\u0663,3"])
def test_malformed_box_exit_2(capsys, box):
    for command in ("g0", "validate"):
        code, out, err = run_cli(capsys, command, fx("f2"), "--box", box)
        assert (code, out) == (2, ""), command
        assert json.loads(err)["error"] == (
            f"box {box!r} must be comma-separated nonnegative integers"
        ), command

@pytest.mark.parametrize("argv", [
    ("check", "--cone", "99"),
    ("superpotential", "--cone", "5"),
    ("check", "--cone", "0"),
    ("superpotential", "--cone", "-1"),
    ("invariants", "--ray", "99"),
    ("invariants", "--ray", "0"),
    ("invariants", "--ray", "-2"),
    ("g0", "--ray", "5"),
    ("validate", "--ray", "99"),
    ("validate", "--cone", "0"),
], ids=lambda a: f"{a[0]}{a[1]}={a[2]}")
def test_bad_indices_exit_2(capsys, argv):
    command, flag, value = argv
    code, out, err = run_cli(capsys, command, fx("f2"), "--box", "2,2", flag, value)
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]
    assert message == f"{flag[2:]} index {value} out of range"



# (document text, the error of every command, whether the document parses
# to a fan that breaks validate_fan, which validate reports with exit 1)
@pytest.mark.parametrize("text, error, invalid_fan", [
    ("[1, 2]", "top level must be a mapping", False),
    (json.dumps({**P2, "rays": []}), "field 'rays' must be a nonempty list", False),
    (json.dumps({**P2, "max_cones": []}),
     "field 'max_cones' must be a nonempty list", False),
    (json.dumps({**P2, "curve_class_basis": {"a": 1}}),
     "field 'curve_class_basis' must be a list", False),
    ('{"dimension": 2,', "{path}: not valid JSON (Expecting property name "
     "enclosed in double quotes: line 1 column 17 (char 16))", False),
    (json.dumps({**P2, "rays": [[1, 0], [0, 0], [-1, -1]]}), "ray 2 is zero", True),
    (json.dumps({**P2, "max_cones": [[1], [2, 3], [3, 1]]}),
     "cone (1,) is not a valid index set", True),
    # a cone listed twice is named before the wall checks, which would name
    # the origin, the line's one wall, as shared by 3 cones, or a repeated
    # first cone as overlapping itself
    (json.dumps({**P1, "dimension": 1, "max_cones": [[1], [2], [2]]}),
     "cone (2,) is listed twice", True),
    (json.dumps({**P1, "dimension": 1, "max_cones": [[1], [1], [2]]}),
     "cone (1,) is listed twice", True),
], ids=["top-level-list", "empty-rays", "empty-cones", "basis-not-list",
        "invalid-json", "zero-ray", "one-ray-cone", "later-cone-twice",
        "first-cone-twice"])
def test_bad_documents_are_reported(tmp_path, capsys, text, error, invalid_fan):
    # an uncaught exception would fail the test with its traceback
    p = tmp_path / "bad.json"
    p.write_text(text)
    error = error.format(path=p)
    code, out, err = run_cli(capsys, "validate", str(p))
    if invalid_fan:
        assert (code, out, err) == (1, f"invalid fan: {error}\n", "")
    else:
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": error}
    for command in ("g0", "check"):
        code, out, err = run_cli(capsys, command, str(p))
        assert (code, out) == (2, ""), command
        assert json.loads(err) == {"error": error}, command


def test_box_of_the_wrong_arity_exit_2(capsys):
    for command in ("validate", "g0", "check"):
        code, out, err = run_cli(capsys, command, fx("f2"), "--box", "1,2,3")
        assert (code, out) == (2, ""), command
        assert json.loads(err) == {
            "error": "box has 3 entries but the curve lattice has rank 2"}, command


# sha256 of f"{exit code}\n{stdout}\0{stderr}" for surface-oracle runs,
# recorded before the oracle and the cross-check were restructured
SURFACE_ORACLE_PINS = (
    ("f2", "5,5", "text", 0, "b684ac9be5e468e6bf8b44aa7041760e51410b607eb8e815132e40da501dea45"),
    ("f2", "5,5", "json", 0, "eafa4911e35e1ca0d97b418f03aa7d75b88f176cc2463cf2b8c05af5d6724bfc"),
    ("f2-blowup", "5,5,5", "text", 0, "c87ab0825a2e4a1580ad19cbb2620c35e47b1c968b09ba6efc3af6dc302867ed"),
    ("f2-blowup", "5,5,5", "json", 0, "89320f0de3f9308decb59afe15a43d85e0b5442b35615516a52866daaa9ff883"),
    ("p1xp1", "5,5", "text", 0, "ff98f83df4601c89c37662950ff0b5de6a70b9d78083c2f6d6bb06e17213b381"),
    ("p1xp1", "5,5", "json", 0, "c417ac1e5dae65e4233b49219170e708ccc3d77f0521d7f09fe079c41c5e05e1"),
    ("p2", "5", "text", 0, "5779075f85a58b3e6f7c98b7cb3bdd8c42d0289cab1d7f8e40b9cceee7c698cd"),
    ("p2", "5", "json", 0, "eee7919efa73a6e8770abdf7d103de60053d8c6a50b8b1f0cc5cb545952792aa"),
    ("f3", None, "text", 2, "cad7a141708e15f05df6d8b8cd5c6fd571cf2a9eab9ecb8d46457fdf02031f17"),
    ("f3", None, "json", 2, "cad7a141708e15f05df6d8b8cd5c6fd571cf2a9eab9ecb8d46457fdf02031f17"),
    ("threefold-example", None, "text", 2, "69bef1e3e3b5701220ee7cee132ce47eea86087af305e8a84b9db76acdc9684b"),
    ("threefold-example", None, "json", 2, "69bef1e3e3b5701220ee7cee132ce47eea86087af305e8a84b9db76acdc9684b"),
)


@pytest.mark.parametrize("name, box, fmt, code, digest", SURFACE_ORACLE_PINS)
def test_surface_oracle_output_pinned(capsys, name, box, fmt, code, digest):
    argv = ["surface-oracle", fx(name), "--format", fmt]
    if box:
        argv += ["--box", box]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    blob = f"{got}\n{out}\0{err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# sha256 of f"{exit code}\n{stdout}\0{stderr}" for g0 and mirror-map runs at
# the default box (5 per variable) and one mirror-map at 7,7,7,7, recorded
# before the inversion moved to packed series; mirror-map renders the inverse
# map.  f3 is not semi-Fano, yet both commands accept it and exit 0: these
# pins record that behaviour, and refusing the fan must move them on purpose.
ENGINE_PINS = (
    ("g0", "f2", None, "text", 0, "536327924281a35e18e866e47835d767afc0bd2ae31275c8cd784de985450ad5"),
    ("g0", "f2", None, "json", 0, "3e87f87c91e982d5a7acbe038237092f3ecfddcf20c1048610f7088814d3b5b3"),
    ("g0", "f2-blowup", None, "text", 0, "afd267c4d1e43ff44ecd803d253d1c4b03413a2c29e20a3832e2be6876aa51ed"),
    ("g0", "f2-blowup", None, "json", 0, "f0b7f61829be633c0ab2fd16a7e5d19f03d2e9fec3b5b79f7384de2f86f38383"),
    ("g0", "f3", None, "text", 0, "13853772ea1d5975ae58c43156bd9e3177485f1ff1af93d6a4c7163ddb0ba8a2"),
    ("g0", "f3", None, "json", 0, "066d981b44942aed79dbd847fad71edf7f72c6fb6a5bf415dd8745dd95d3c59c"),
    ("g0", "kp2-bundle", None, "text", 0, "6c1812a21ee4a9850c246e36d1c271a35ed6126158afd3f20c19c60e1096bfb2"),
    ("g0", "kp2-bundle", None, "json", 0, "4415b556e399ee2a85d68323649abc7c65b702228f040d51e48ae6ab3efb7aed"),
    ("g0", "p1cubed", None, "text", 0, "f4a16e047577ed26fef506d15ca78129b7b255965be1d833aff1c26a5e94bee8"),
    ("g0", "p1cubed", None, "json", 0, "bc9b35d817cac923fa2a2fb442687ebad375cedc4fe819e7a93379525b84153b"),
    ("g0", "p1xp1", None, "text", 0, "5e187f1f6ba9ac25d3cc6de42a322ea1ff791b4c1f09096f0f20770e19647000"),
    ("g0", "p1xp1", None, "json", 0, "f3096594fca8b6cae2c7efea9515620614fae9e851d1bb3d0fccbf758150b2e4"),
    ("g0", "p2", None, "text", 0, "ab7b31f0f5dce3889aacc2aef67a103b98dbcd2e11c2d2a12f5e2eeaec4160c6"),
    ("g0", "p2", None, "json", 0, "65ab35a26119dd89701fa4f6553395892bd22bdfd90f49ff7906c6b15beb83e4"),
    ("g0", "threefold-example", None, "text", 0, "66b3c460903b948b40bcc6ba35b8eea0a687ffbe127e88d322b63b1d72e625c9"),
    ("g0", "threefold-example", None, "json", 0, "3fa74f825b84577e2cc942c51e8c8f094298a25a797acfd29ad6b83ebdc27031"),
    ("mirror-map", "f2", None, "text", 0, "20c71e69ab34cda11486447883d2b49547b1e22da89eecca2c731dc62b3d37bb"),
    ("mirror-map", "f2", None, "json", 0, "824fb41bad4c799ce50aba831f28acf12697649134ef5ca599bb43d9f395ee6d"),
    ("mirror-map", "f2-blowup", None, "text", 0, "36fa7be47fb1bbb94d3fb5cfbbf2303362f8e5b0aa9b23a6f1eccccfd268cf14"),
    ("mirror-map", "f2-blowup", None, "json", 0, "4956e03e02882f85c3a81a6f758609f50c955a6a3962d921a9783d54458143c4"),
    ("mirror-map", "f3", None, "text", 0, "405ac46cfd50852cea1944a02c9b3791fe22193634f17a9011f28fb151bf7159"),
    ("mirror-map", "f3", None, "json", 0, "da52138d87f7d39e52248d98e8af6a08aafa8a4d50935e2dcab9f0b8d8d7d9db"),
    ("mirror-map", "kp2-bundle", None, "text", 0, "86fc83334094ce57a5f2de444254bb7dacf7c494a559ef9ac7054b28e7465a4e"),
    ("mirror-map", "kp2-bundle", None, "json", 0, "2156d13e23994dbea7b65e44777411b6cc1d761f3cfb5b48dc9d152654353b7e"),
    ("mirror-map", "p1cubed", None, "text", 0, "43930a5b74d52e2033283b871cd5ac714fd09206e0bd9910332b740027306136"),
    ("mirror-map", "p1cubed", None, "json", 0, "6933f38d61bdf84f274ed127cc33dc4ec48e36e1f49f6d0141077397b9890c5c"),
    ("mirror-map", "p1xp1", None, "text", 0, "77e91fec437a65f6c002451515ebc1a76e7a1821ea55d74a84483adc36cb7c53"),
    ("mirror-map", "p1xp1", None, "json", 0, "f9e4fcd89f93c4223d0d80280dd549fa65fcab9694c958c4ff7e23e59657d5f5"),
    ("mirror-map", "p2", None, "text", 0, "d287cac27c3f62c52d1bcf304e36f092382b74359d9af3370d5322e1191fadb6"),
    ("mirror-map", "p2", None, "json", 0, "51f364ccbc698c15dc6154ac1d06b31eba554ba026dd6f3096e5f4c214f9f97d"),
    ("mirror-map", "threefold-example", None, "text", 0, "7162b441c37668832f511c866147c3df35924009d974a7710d070a3fb35c0200"),
    ("mirror-map", "threefold-example", None, "json", 0, "37deda955272a9463290c2875d0cdc96401fef4699b87c00bd12648f5d3341a9"),
    ("mirror-map", "threefold-example", "7,7,7,7", "text", 0, "e9bdb00e945c758a3728ba6aed88a49bcef8343469c067f9762e9efae7c87cf6"),
    ("mirror-map", "threefold-example", "7,7,7,7", "json", 0, "1c808089a1358ffc936c60354dbbb15f404f20b0b0bb33211e234ac21067513e"),
)


# sha256 of f"{exit code}\n{stdout}\0{stderr}" for invariants runs at the
# default box and the threefold at 7,7,7,7, recorded before the correction
# scan moved to the degree-zero face and the tables to shared row text.  f3
# is not semi-Fano, yet invariants accepts it and exits 0: refusing the fan
# must move its pins on purpose.
INVARIANT_PINS = (
    ("invariants", "f2", None, "text", 0, "31bd798f7a5029fddd77b728d5d9577d9fee24501bf861daf2ea94df39be0832"),
    ("invariants", "f2", None, "json", 0, "89811469c9d36d0a6337dabfb3bb62b1734eeeacd8b20c0634b4fc677f8aa05e"),
    ("invariants", "f2-blowup", None, "text", 0, "251909fe03b6e81adcc2ac66eae5104c99a93037f197b22b28df2df494fb6828"),
    ("invariants", "f2-blowup", None, "json", 0, "9225f52bb08b3ca294083599570d22686e64b1d559354bb2895af629df7db02f"),
    ("invariants", "f3", None, "text", 0, "8d8419993ca9b4f640ff8147f344d5aeb5e694975877f1d15d5ce6bf3d1c76f9"),
    ("invariants", "f3", None, "json", 0, "5cddfdf3781041d0c37cf746eaf3bcc94e0830b46660dea0496fcd08280195a4"),
    ("invariants", "kp2-bundle", None, "text", 0, "f7ec2ab53e4886dc9de6319cda15cb59683b922a5ef58bcf686cf9dc873cb20c"),
    ("invariants", "kp2-bundle", None, "json", 0, "372834bcc4f26f52c34bde004545b16b320dce5017ded8e051d9c2b5f665c451"),
    ("invariants", "p1cubed", None, "text", 0, "56caa2a038aad58847d790832d3471f5f474b81f4fdc972d0d7058846568b1d8"),
    ("invariants", "p1cubed", None, "json", 0, "c2ab77bd30952f61d79fa0f615926ff56b85f8ca6c3d59d67fe26410f324fad8"),
    ("invariants", "p1xp1", None, "text", 0, "3806793e7c476f338b53a61e03231c89adfeee6c394162f5a7a58f0ebf24b17f"),
    ("invariants", "p1xp1", None, "json", 0, "554070e4c329875d7f8115c87fc387e604503ac282a4bc387a5c3262b6c45bc2"),
    ("invariants", "p2", None, "text", 0, "707a0289a255dc8a11c22e43495d75e3ea9768fe63d99aa325c5ee67706b662d"),
    ("invariants", "p2", None, "json", 0, "23b77ed65ed767b2bd2d6fb4c944f5b61ac2e83dd9f967051b6f57d140ca9b70"),
    ("invariants", "threefold-example", None, "text", 0, "80b48f74a282cccfda928572e6dd91cd4014b7715843fb05bb4e6f8765e44d50"),
    ("invariants", "threefold-example", None, "json", 0, "7232578725d5978f594c5bcabfa4538515af788a6b398982e8471ba9fff6ea75"),
    ("invariants", "threefold-example", "7,7,7,7", "text", 0, "ac5f95b222badb8b24f9347ace2d11ba1968f8210fd5e079fc5b91dca0afbb31"),
    ("invariants", "threefold-example", "7,7,7,7", "json", 0, "90852515c4bce756fb42a5525532706a4de2061243448b3d43ad837cbcdc171d"),
)


# the same digests for validate on every fixture, recorded before curve
# classes became integer tuples and each fan's walls one table: they cover
# the wall classes, the semi-Fano witness, the hull vertices and the basis.
# f3 is not semi-Fano, so validate exits 1 on it.
VALIDATE_PINS = (
    ("validate", "f2", None, "text", 0, "400c96e0df61b78f030a8968798e32e49a97459dfce3e8026e7302202af2ec32"),
    ("validate", "f2", None, "json", 0, "1959328b64267c681c721cf1567de4d332c5653cb36db843021d6f0b3578a62f"),
    ("validate", "f2-blowup", None, "text", 0, "1260c7fba4b799e220b521d21184fb080997a41d5af731436af47fa3ecda49f5"),
    ("validate", "f2-blowup", None, "json", 0, "27253b321364efdd8995495f729a36d1e02cc0cab283ec205e6b056ff57a947e"),
    ("validate", "f3", None, "text", 1, "0844ab4aee10281d02ad8ee2160b0c006bd3b6c6b52f6db2904066ab0f5f8288"),
    ("validate", "f3", None, "json", 1, "86eaa7836bfb7b2842682b9fb87e4328c848e52478584d08b06e221e43f35608"),
    ("validate", "kp2-bundle", None, "text", 0, "936d39512ce0b5259f220fc143a09dbff3a693fc5ca945802ec6533e7cf44c13"),
    ("validate", "kp2-bundle", None, "json", 0, "af1c1a3984259a3fca061d7b8308ed8c61e6408072e7a26b6d92deb6cabddcbe"),
    ("validate", "p1cubed", None, "text", 0, "2033bdb5dc80733cee6f9076ea3586e9a64a3c3588aac9b100d1f08d06fd5d63"),
    ("validate", "p1cubed", None, "json", 0, "78f4691431e010889a0c15677fc6e68366385ca9572db936a2a957bbc400e729"),
    ("validate", "p1xp1", None, "text", 0, "85f93fc7dbfde4c71f40d8e0a00b23621427498883d75af0a1bdbb15b6baa469"),
    ("validate", "p1xp1", None, "json", 0, "7bdc1e58d98cde978eb7e0ca1b7a92c94a528b3e1b7de3828f410cf7d61893c1"),
    ("validate", "p2", None, "text", 0, "632c1b088a8fa7c3d2e57515e4f91a8b35b7c5a726e386171a5b14e7a33ca7b7"),
    ("validate", "p2", None, "json", 0, "56ded43279a21d2c9d3cd6b82fcfc859fe625f332ba966e38280dc6027c25b0a"),
    ("validate", "threefold-example", None, "text", 0, "24e585105d593eee07e1172f859027ba5d21d54eb571b764a966d6901d98625f"),
    ("validate", "threefold-example", None, "json", 0, "4143fe3b30e929d51b5cbc5bc92cd5a2d4ebdb7bde7a9a260cb1ce98da42b511"),
)


@pytest.mark.parametrize("command, name, box, fmt, code, digest",
                         ENGINE_PINS + INVARIANT_PINS + VALIDATE_PINS)
def test_engine_output_pinned(capsys, command, name, box, fmt, code, digest):
    argv = [command, fx(name), "--format", fmt]
    if box:
        argv += ["--box", box]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    blob = f"{got}\n{out}\0{err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# the same digests for one threefold ray's table at 7,7,7,7, recorded before
# the tables were built from the packed series: ray 1 has the most terms,
# ray 3 only the constant one
RAY_TABLE_PINS = (
    ("1", "text", "40ddae6f3c130f0a009c2f50ca3277ae8a61136142184409cf880f67b17619bc"),
    ("1", "json", "a68c13236d2a8bb607496df7ce06049635309758ab4f5da2f67606d3a0fad282"),
    ("3", "text", "8e9c5f7471cd5e20c4c02384486d78f553fa148d7ceeeda24de2a228e8f301b2"),
    ("3", "json", "a8282a8a1b10e5419dacf28b70d1b3cc43dcfd1a4bdbff7b383aab403b78a363"),
)


@pytest.mark.parametrize("ray, fmt, digest", RAY_TABLE_PINS)
def test_threefold_ray_table_pinned(capsys, ray, fmt, digest):
    got, out, err = run_cli(capsys, "invariants", fx("threefold-example"),
                            "--box", "7,7,7,7", "--ray", ray, "--format", fmt)
    blob = f"{got}\n{out}\0{err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


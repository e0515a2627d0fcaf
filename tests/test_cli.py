import hashlib
import json
import time

import pytest

from semifano.cli import (
    MAX_BOX_MONOMIALS,
    InputError,
    fixture_path,
    main,
    parse_input,
)
from conftest import load_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(fixture_path(f"{name}.json"))


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
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "g0", fx("threefold-example"), "--box", "40")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == (
        f"box (40, 40, 40, 40) has 2825761 monomials, over the limit of "
        f"{MAX_BOX_MONOMIALS}"
    )


def test_mirror_map_box_default(capsys):
    # a single cap is broadcast across all variables
    code, out, _ = run_cli(capsys, "mirror-map", fx("f2"), "--box", "3")
    assert code == 0
    assert "inverse exponent 1: -2*q1 + q1^2 - 2/3*q1^3" in out


@pytest.mark.parametrize("argv", [
    ("check", "--cone", "99"),
    ("superpotential", "--cone", "5"),
    ("check", "--cone", "0"),
    ("superpotential", "--cone", "-1"),
    ("invariants", "--ray", "99"),
    ("invariants", "--ray", "0"),
    ("invariants", "--ray", "-2"),
    ("g0", "--ray", "5"),
], ids=lambda a: f"{a[0]}{a[1]}={a[2]}")
def test_bad_indices_exit_2(capsys, argv):
    command, flag, value = argv
    code, out, err = run_cli(capsys, command, fx("f2"), "--box", "2,2", flag, value)
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]
    assert message == f"{flag[2:]} index {value} out of range"



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

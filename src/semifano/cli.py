"""Command-line driver: parse fan descriptions, run the pipeline, render output.

Commands: validate, g0, mirror-map, invariants, superpotential,
surface-oracle, check; every command takes the same options.  Every command
but validate is a function (args, analysis) -> (lines, results, ok) on one
lazy analysis (`analyze`), so it builds only the stages it reads.  Output is
plain text by default or a versioned JSON envelope; invariant tables render
as TSV.  Exit status is 0 exactly when every requested check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import cache
from math import prod

from .fans import (
    Fan,
    FanError,
    curve_lattice,
    fan_polytope_vertices,
    is_semi_fano,
    validate_fan,
)
from .series import TruncationBox, monomial, render
from .superpotential import (
    analyze,
    check_multiplicative_consistency,
    compare_superpotentials,
    cross_validate_surface,
    invariant_table,
    render_table,
    structural_report,
    surface_admissible_deltas,
)

SCHEMA_VERSION = 1
# largest box accepted, in monomials prod(cap + 1) (caps 9,9,9,9 have 10,000)
# and in total degree sum(cap), which bounds every series' reach and so the
# work (about degree^3.5)
MAX_BOX_MONOMIALS = 100_000
MAX_BOX_DEGREE = 120


class InputError(ValueError):
    pass


def _is_int(x):
    """A JSON integer; JSON true and false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int_vectors(field, vectors, length):
    """Refuse the first entry of a listed field that is no integer vector of
    the given length."""
    for idx, v in enumerate(vectors):
        if not isinstance(v, list) or len(v) != length or not all(map(_is_int, v)):
            raise InputError(f"field '{field}'[{idx}] must be an integer {length}-vector")


def parse_input(document):
    """Validate a fan description document; returns (Fan, basis or None, meta)."""
    if not isinstance(document, dict):
        raise InputError("top level must be a mapping")
    for key in ("dimension", "rays", "max_cones"):
        if key not in document:
            raise InputError(f"missing required field '{key}'")
    n = document["dimension"]
    if not _is_int(n) or n <= 0:
        raise InputError("field 'dimension' must be a positive integer")
    rays = document["rays"]
    if not isinstance(rays, list) or not rays:
        raise InputError("field 'rays' must be a nonempty list")
    _check_int_vectors("rays", rays, n)
    cones = document["max_cones"]
    if not isinstance(cones, list) or not cones:
        raise InputError("field 'max_cones' must be a nonempty list")
    zero_based = []
    for idx, c in enumerate(cones):
        if (not isinstance(c, list)
                or not all(_is_int(x) and 1 <= x <= len(rays) for x in c)):
            raise InputError(
                f"field 'max_cones'[{idx}] must list 1-based ray indices"
            )
        zero_based.append(tuple(x - 1 for x in c))
    basis = document.get("curve_class_basis")
    if basis is not None:
        if not isinstance(basis, list):
            raise InputError("field 'curve_class_basis' must be a list")
        _check_int_vectors("curve_class_basis", basis, len(rays))
    meta = {
        "names": document.get("names"),
        "display_monomials": document.get("display_monomials"),
    }
    fan = Fan(n, tuple(tuple(v) for v in rays), tuple(zero_based))
    return fan, basis, meta


def load_document(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise InputError(f"{path}: JSON nested too deeply") from exc


def _parse_box(text, rank):
    if text is None:
        return TruncationBox((5,) * rank)
    pieces = text.split(",")
    if not all(p.isascii() and p.isdigit() for p in pieces):
        raise InputError(
            f"box {text!r} must be comma-separated nonnegative integers")
    caps = tuple(map(int, pieces))
    if len(caps) == 1 and rank != 1:
        caps = caps * rank
    if len(caps) != rank:
        raise InputError(
            f"box has {len(caps)} entries but the curve lattice has rank {rank}"
        )
    return TruncationBox(caps)


def _render_term(term, zray_names):
    zmono = monomial(zray_names, term.z_exponent) or "1"
    qnames = [f"q{a + 1}" for a in range(len(term.q_exponent))]
    coeff = monomial(qnames, term.q_exponent)
    unit = render(term.unit)
    if unit != "1":
        coeff = f"{coeff}*({unit})" if coeff else f"({unit})"
    return f"{coeff}*{zmono}" if coeff else zmono


def _check_options(args, fan):
    """The box, once the index, box and budget checks on a valid fan pass."""
    for kind, index, count in (("cone", args.cone, len(fan.max_cones)),
                               ("ray", args.ray, fan.num_rays)):
        if index is not None and not 1 <= index <= count:
            raise InputError(f"{kind} index {index} out of range")
    box = _parse_box(args.box, fan.num_rays - fan.dimension)
    size = prod(c + 1 for c in box.caps)
    if size > MAX_BOX_MONOMIALS:
        raise InputError(f"box {box.caps} has {size} monomials, over the limit "
                         f"of {MAX_BOX_MONOMIALS}")
    if box.degree > MAX_BOX_DEGREE:
        raise InputError(f"box {box.caps} has degree {box.degree}, over the limit "
                         f"of {MAX_BOX_DEGREE}")
    return box


def cmd_validate(args, fan, basis, violations):
    if violations:
        return [f"invalid fan: {v}" for v in violations], {"violations": violations}, False
    _check_options(args, fan)
    semi, witness = is_semi_fano(fan)
    verts = sorted(i + 1 for i in fan_polytope_vertices(fan))
    results = {
        "violations": violations,
        "semi_fano": semi,
        "witness": list(witness) if witness else None,
        "hull_vertices": verts,
        "wall_classes": [list(c) for c in fan.wall_classes],
    }
    lines = [f"fan: {fan.num_rays} rays, {len(fan.max_cones)} maximal cones, OK",
             f"hull vertices: {verts}"]
    if not semi:
        lines.append(f"not semi-Fano, witness c1 pairing {sum(witness)} "
                     f"on class {list(witness)}")
        return lines, results, False
    lattice = curve_lattice(fan, basis)
    lines += ["semi-Fano: yes", f"curve lattice rank {lattice.rank}, nef basis "
              f"{'verified' if lattice.nef_verified else 'NOT verified'}"]
    results.update(nef_verified=lattice.nef_verified,
                   basis=[list(b) for b in lattice.basis])
    return lines, results, True


def _numbered(template, series):
    """One template line per series, filled with its 1-based index and text,
    and the index -> text results."""
    texts = {str(i + 1): render(s) for i, s in enumerate(series)}
    return [template.format(i, text) for i, text in texts.items()], texts


def cmd_g0(args, analysis):
    return *_numbered("g0[{}] = {}", analysis.g0), True


def cmd_mirror_map(args, analysis):
    mm = analysis.mirror
    lines, results = [], {"forward": {}, "inverse": {}}
    for a in range(analysis.lattice.rank):
        for direction, series in (("forward", mm.forward), ("inverse", mm.inverse)):
            text = render(series[a])
            lines.append(f"{direction} exponent {a + 1}: {text}")
            results[direction][str(a + 1)] = text
    return lines, results, True


def cmd_invariants(args, analysis):
    rays = [args.ray - 1] if args.ray else range(analysis.fan.num_rays)
    lines, results = [], {}
    for i in rays:
        tsv = render_table(invariant_table(analysis.deltas[i]))
        if len(rays) > 1:
            lines.append(f"# ray {i + 1}")
        lines.append(tsv)
        results[str(i + 1)] = tsv
    return lines, results, True


def cmd_superpotential(args, analysis):
    *exprs, report = compare_superpotentials(analysis, (args.cone or 1) - 1)
    zn = [f"z{j + 1}" for j in range(analysis.fan.dimension)]
    lines, results = [], {}
    for tag, expr in zip(("plain", "PF", "LF"), exprs):
        text = " + ".join(_render_term(t, zn) for t in expr.terms)
        lines.append(f"W[{tag}] = {text}")
        results[tag] = text
    lines.append("EQUAL" if report.passed else "DIFFER: " + "; ".join(report.details))
    results.update(equal=report.passed, details=list(report.details))
    return lines, results, report.passed


def cmd_surface_oracle(args, analysis):
    # the oracle refuses unsuitable fans before the engine runs
    oracle = surface_admissible_deltas(analysis.fan, analysis.lattice, analysis.box)
    report = cross_validate_surface(oracle, analysis)
    lines, texts = _numbered("delta[{}] (combinatorial) = {}", oracle)
    lines.append("AGREE" if report.passed else "DISAGREE: " + "; ".join(report.details))
    return lines, {"deltas": texts, "agree": report.passed}, report.passed


def cmd_check(args, analysis):
    fan, lattice = analysis.fan, analysis.lattice
    semi, witness = is_semi_fano(fan)
    if not semi:
        message = f"not semi-Fano, witness c1 pairing {sum(witness)}"
        return [message], {"semi_fano": False}, False
    reports = [
        check_multiplicative_consistency(analysis.deltas, analysis.mirror, lattice),
        structural_report(analysis),
        compare_superpotentials(analysis, (args.cone or 1) - 1)[3],
    ]
    if fan.dimension == 2:
        oracle = surface_admissible_deltas(fan, lattice, analysis.box)
        reports.append(cross_validate_surface(oracle, analysis))
    lines, results = [], {}
    for rep in reports:
        lines.append(f"{rep.name}: {'PASS' if rep.passed else 'FAIL'}")
        lines.extend(f"  {d}" for d in rep.details)
        results[rep.name] = rep.passed
    return lines, results, all(results.values())


COMMANDS = {
    "validate": cmd_validate,
    "g0": cmd_g0,
    "mirror-map": cmd_mirror_map,
    "invariants": cmd_invariants,
    "superpotential": cmd_superpotential,
    "surface-oracle": cmd_surface_oracle,
    "check": cmd_check,
}


@cache
def build_parser():
    """One parser for every command, built once: all take the same options."""
    parser = argparse.ArgumentParser(
        prog="semifano",
        description="Exact disk-count generating functions for toric manifolds",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="fan description JSON file")
    parser.add_argument("--box", help="per-variable degree caps, comma-separated")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--cone", type=int, help="1-based maximal cone index")
    parser.add_argument("--ray", type=int, help="only this 1-based ray")
    return parser


def main(argv=None):
    """Load, parse and check the input once, run the command on one analysis
    whose stages it builds as it reads them, and print its report."""
    args = build_parser().parse_args(argv)
    try:
        document = load_document(args.input)
        fan, basis, _ = parse_input(document)
        violations = validate_fan(fan)
        if args.command == "validate":
            lines, results, ok = cmd_validate(args, fan, basis, violations)
        elif violations:
            raise FanError("; ".join(violations))
        else:
            box = _check_options(args, fan)
            analysis = analyze(fan, curve_lattice(fan, basis), box)
            lines, results, ok = COMMANDS[args.command](args, analysis)
    except (InputError, FanError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    if args.format == "json":
        blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
        print(json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                          "inputs_digest": hashlib.sha256(blob.encode()).hexdigest(),
                          "results": results}, indent=2, sort_keys=True))
    else:
        print(*lines, sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Disk generating functions, superpotentials, and consistency checks.

The generating function delta_i collects one-pointed disk counts attached to
ray i; it is produced from the corrected coordinate change.  The three
Laurent-polynomial superpotentials (plain, coordinate-changed, and
instanton-corrected) are compared term by term.  For surfaces an independent
combinatorial count over chains of self-intersection-(-2) divisors gives the
same functions, which serves as a cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

from .fans import (
    CurveClass,
    CurveLattice,
    Fan,
    FanError,
    alpha_class,
    cone_coordinates,
    fan_polytope_vertices,
    is_semi_fano,
)
from .intlinalg import rational_rank
from .mirror import (
    GZeroFamily,
    MirrorMapPair,
    assemble_mirror_map,
    compute_g0_family,
    pullback_g0,
)
from .series import (
    MultiSeries,
    TruncationBox,
    add,
    exp_series,
    log_series,
    mul,
    sub,
)


@dataclass(frozen=True)
class InvariantSeries:
    """delta_i: the sum over nonzero classes of disk counts times q-monomials."""

    ray_index: int
    delta: MultiSeries

    @property
    def one_plus(self):
        return add(MultiSeries.one(self.delta.box), self.delta)


def delta_series(pulled_g0, i) -> InvariantSeries:
    s = pulled_g0[i]
    one = MultiSeries.one(s.box)
    return InvariantSeries(i, sub(exp_series(s), one))


@dataclass(frozen=True)
class InvariantTable:
    ray_index: int
    box: TruncationBox
    entries: dict[tuple[int, ...], Fraction]
    non_integer: tuple[tuple[int, ...], ...] = ()


def invariant_table(inv: InvariantSeries, box: TruncationBox = None,
                    strict: bool = True) -> InvariantTable:
    """All in-box coefficients of 1 + delta_i, explicit zeros included.

    Coefficients are expected to be integers; in strict mode a fractional
    entry raises, otherwise it is recorded in the report field.
    """
    series = inv.one_plus
    if box is None:
        box = series.box
    coeffs = series.to_dict()
    entries = {}
    bad = []
    for exp in sorted(
        product(*[range(c + 1) for c in box.caps]),
        key=lambda e: (sum(e), e),
    ):
        c = coeffs.get(exp, Fraction(0))
        if c.denominator != 1:
            bad.append(exp)
        entries[exp] = c
    if bad and strict:
        raise ValueError(
            f"non-integer disk count at exponents {bad} for ray {inv.ray_index + 1}"
        )
    return InvariantTable(inv.ray_index, box, entries, tuple(bad))


def render_table(table: InvariantTable) -> str:
    l = table.box.arity
    header = "\t".join([f"k{a + 1}" for a in range(l)] + ["n"])
    lines = [header]
    for exp, c in table.entries.items():
        val = str(c) if c.denominator != 1 else str(int(c))
        lines.append("\t".join([str(e) for e in exp] + [val]))
    return "\n".join(lines)


@dataclass(frozen=True)
class SuperpotentialTerm:
    ray_index: int
    z_exponent: tuple[int, ...]
    q_exponent: tuple[int, ...]
    unit: MultiSeries  # constant term 1


@dataclass(frozen=True)
class SuperpotentialExpr:
    tag: str
    cone_index: int
    terms: tuple[SuperpotentialTerm, ...]


def assemble_W_HV(fan: Fan, lattice: CurveLattice, sigma: int,
                  box: TruncationBox) -> SuperpotentialExpr:
    """Plain superpotential relative to a chosen maximal cone.

    Rays in the cone contribute the coordinate monomials; every other ray k
    contributes q^(class of its term) z^(cone coordinates of v_k).
    """
    cone = fan.max_cones[sigma]
    one = MultiSeries.one(box)
    terms = []
    for k in range(fan.num_rays):
        if k in cone:
            z = tuple(1 if c == k else 0 for c in cone)
            qe = (0,) * lattice.rank
        else:
            z = cone_coordinates(fan, sigma, k)
            cls = alpha_class(fan, sigma, k)
            coords = lattice.coordinates(cls)
            if coords is None:
                raise FanError(
                    f"term class for ray {k + 1} lies outside the basis lattice"
                )
            qe = tuple(coords)
        terms.append(SuperpotentialTerm(k, z, qe, one))
    return SuperpotentialExpr("HV", sigma, tuple(terms))


def assemble_W_PF(whv: SuperpotentialExpr, mm: MirrorMapPair,
                  box: TruncationBox) -> SuperpotentialExpr:
    """Compose the plain superpotential with the inverse coordinate change.

    Each coefficient monomial q^e picks up exp(sum_a e_a w_a), where w is the
    inverse-direction exponent family; negative e_a are fine.
    """
    inv = mm.inverse.components
    terms = []
    for t in whv.terms:
        correction = MultiSeries.zero(box)
        for a, e in enumerate(t.q_exponent):
            if e:
                correction = add(correction, inv[a].scale(e))
        unit = mul(t.unit, exp_series(correction))
        terms.append(SuperpotentialTerm(t.ray_index, t.z_exponent, t.q_exponent, unit))
    return SuperpotentialExpr("PF", whv.cone_index, tuple(terms))


def assemble_W_LF(whv: SuperpotentialExpr, deltas) -> SuperpotentialExpr:
    """Multiply each term by 1 + delta of its ray (raw, unnormalized form)."""
    terms = tuple(
        SuperpotentialTerm(
            t.ray_index, t.z_exponent, t.q_exponent,
            mul(t.unit, deltas[t.ray_index].one_plus),
        )
        for t in whv.terms
    )
    return SuperpotentialExpr("LF-raw", whv.cone_index, terms)


def normalize_W_LF(expr: SuperpotentialExpr, fan: Fan, deltas) -> SuperpotentialExpr:
    """Rescale coordinates so the cone-ray terms have unit coefficient.

    Sending z_j to z_j/(1 + delta of cone ray j) divides term k by the
    product of (1 + delta) over the cone rays weighted by k's z-exponent.
    """
    cone = fan.max_cones[expr.cone_index]
    logs = [log_series(deltas[c].one_plus) for c in cone]
    terms = []
    for t in expr.terms:
        corr = None
        for j, e in enumerate(t.z_exponent):
            if e and not logs[j].is_zero():
                piece = logs[j].scale(-e)
                corr = piece if corr is None else add(corr, piece)
        unit = t.unit if corr is None else mul(t.unit, exp_series(corr))
        terms.append(SuperpotentialTerm(t.ray_index, t.z_exponent, t.q_exponent, unit))
    return SuperpotentialExpr("LF", expr.cone_index, tuple(terms))


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    details: tuple[str, ...] = ()


def check_PF_equals_LF(wpf: SuperpotentialExpr, wlf: SuperpotentialExpr) -> CheckReport:
    details = []
    if wpf.cone_index != wlf.cone_index:
        return CheckReport("PF=LF", False, ("different chosen cones",))
    for tp, tl in zip(wpf.terms, wlf.terms):
        if tp.z_exponent != tl.z_exponent or tp.q_exponent != tl.q_exponent:
            details.append(f"term for ray {tp.ray_index + 1}: monomial mismatch")
        elif tp.unit != tl.unit:
            diff = sub(tp.unit, tl.unit)
            exps = [e for e, _ in diff.terms][:5]
            details.append(
                f"term for ray {tp.ray_index + 1}: coefficients differ at {exps}"
            )
    return CheckReport("PF=LF", not details, tuple(details))


def check_multiplicative_consistency(deltas, mm: MirrorMapPair,
                                     lattice: CurveLattice) -> CheckReport:
    """For each basis index a: prod_i (1+delta_i)^(pairing i,a) = exp(w_a).

    exp is injective on series with zero constant term, so the identity is
    checked on logarithms: sum_i pairing(i,a) * log(1+delta_i) = w_a.
    """
    details = []
    logs = [log_series(d.one_plus) for d in deltas]
    for a, w in enumerate(mm.inverse.components):
        acc = MultiSeries.zero(w.box)
        for i, lg in enumerate(logs):
            coeff = lattice.pairing(i, a)
            if coeff:
                acc = add(acc, lg.scale(coeff))
        if acc != w:
            details.append(f"basis class {a + 1}: product identity fails")
    return CheckReport("multiplicative-consistency", not details, tuple(details))


# ---------------------------------------------------------------------------
# surface oracle


def cyclic_ray_order(fan: Fan):
    """Ray indices sorted counterclockwise by angle (exact, integer-only)."""
    if fan.dimension != 2:
        raise FanError("cyclic order is defined for surfaces only")

    def half(i):
        x, y = fan.rays[i]
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        xi, yi = fan.rays[i]
        xj, yj = fan.rays[j]
        cross = xi * yj - xj * yi
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(range(fan.num_rays), key=cmp_to_key(cmp))


def surface_self_intersections(fan: Fan):
    """Self-intersection of each boundary divisor, from adjacent ray relations.

    In cyclic order the neighbors satisfy v_prev + v_next = -(D_k^2) v_k for a
    smooth complete surface fan.  Returns a dict ray index -> integer.
    """
    order = cyclic_ray_order(fan)
    m = len(order)
    out = {}
    for pos, k in enumerate(order):
        prev = order[pos - 1]
        nxt = order[(pos + 1) % m]
        s = tuple(a + b for a, b in zip(fan.rays[prev], fan.rays[nxt]))
        vx, vy = fan.rays[k]
        # s must be an integer multiple of v_k
        if vx != 0:
            if s[0] % vx or s[1] * vx != s[0] * vy:
                raise FanError(f"rays around {k + 1} are not in a smooth fan")
            c = s[0] // vx
        else:
            if s[0] != 0 or s[1] % vy:
                raise FanError(f"rays around {k + 1} are not in a smooth fan")
            c = s[1] // vy
        out[k] = -c
    return out


def _divisor_curve_class(fan: Fan, order, selfints, k):
    pos = order.index(k)
    m = len(order)
    d = [0] * fan.num_rays
    d[order[pos - 1]] += 1
    d[order[(pos + 1) % m]] += 1
    d[k] += selfints[k]
    return CurveClass(tuple(d))


def _admissible_side_sequences(start, length):
    """All nonincreasing runs of given length from `start` with steps 0 or 1,
    nonnegative, ending at most 1."""
    if length == 0:
        return [[]] if start <= 1 else []
    out = []
    for nxt in {start, start - 1}:
        if nxt < 0:
            continue
        for tail in _admissible_side_sequences(nxt, length - 1):
            out.append([nxt] + tail)
    return out


def surface_admissible_delta(fan: Fan, lattice: CurveLattice, i: int,
                             box: TruncationBox) -> MultiSeries:
    """Independent combinatorial computation of delta_i for a surface.

    A contributing class adds, to the basic disk through divisor i, a
    combination sum_k s_k [D_k] supported on the maximal chain of
    self-intersection-(-2) divisors through i, with both halves of s
    nonincreasing away from i in unit steps and ending at most 1.  Each such
    class contributes exactly 1.
    """
    if fan.dimension != 2:
        raise FanError("surface oracle needs a 2-dimensional fan")
    ok, witness = is_semi_fano(fan)
    if not ok:
        raise FanError(
            f"fan is not semi-Fano (witness pairing {witness.chern_number()})"
        )
    order = cyclic_ray_order(fan)
    selfints = surface_self_intersections(fan)
    if selfints[i] != -2:
        return MultiSeries.zero(box)
    m = len(order)
    pos = order.index(i)
    # maximal chain of (-2)-divisors through i, walked in both directions
    right = []
    p = pos
    while len(right) < m - 1:
        p = (p + 1) % m
        if selfints[order[p]] != -2 or order[p] == i:
            break
        right.append(order[p])
    left = []
    p = pos
    while len(left) < m - 1 - len(right):
        p = (p - 1) % m
        if selfints[order[p]] != -2 or order[p] == i or order[p] in right:
            break
        left.append(order[p])
    classes = {
        k: _divisor_curve_class(fan, order, selfints, k)
        for k in [i] + right + left
    }
    coeffs = {}
    s0 = 1
    while s0 <= min(len(left), len(right)) + 1:
        for rs in _admissible_side_sequences(s0, len(right)):
            for ls in _admissible_side_sequences(s0, len(left)):
                total = [0] * fan.num_rays
                for k, s in [(i, s0)] + list(zip(right, rs)) + list(zip(left, ls)):
                    for j, c in enumerate(classes[k]):
                        total[j] += s * c
                exps = lattice.coordinates(CurveClass(tuple(total)))
                if exps is None:
                    continue
                exps = tuple(exps)
                if box.contains(exps):
                    coeffs[exps] = coeffs.get(exps, Fraction(0)) + 1
        s0 += 1
    return MultiSeries.from_dict(box, coeffs)


def cross_validate_surface(fan: Fan, lattice: CurveLattice,
                           box: TruncationBox) -> CheckReport:
    """Compare the combinatorial surface count with the coordinate-change route.

    The oracle runs first, so a fan it refuses fails before the engine runs.
    """
    oracle = [
        surface_admissible_delta(fan, lattice, i, box)
        for i in range(fan.num_rays)
    ]
    g0 = compute_g0_family(lattice, box)
    mm = assemble_mirror_map(g0)
    pulled = pullback_g0(g0, mm)
    details = []
    for i, expected in enumerate(oracle):
        if delta_series(pulled, i).delta != expected:
            details.append(f"ray {i + 1}: oracle and engine disagree")
    return CheckReport("surface-oracle", not details, tuple(details))


# ---------------------------------------------------------------------------
# whole-pipeline convenience


@dataclass(frozen=True)
class ToricAnalysis:
    fan: Fan
    lattice: CurveLattice
    box: TruncationBox
    g0: GZeroFamily
    mirror: MirrorMapPair
    pulled_g0: tuple[MultiSeries, ...]
    deltas: tuple[InvariantSeries, ...]


def analyze(fan: Fan, lattice: CurveLattice, box: TruncationBox) -> ToricAnalysis:
    g0 = compute_g0_family(lattice, box)
    mm = assemble_mirror_map(g0)
    pulled = pullback_g0(g0, mm)
    deltas = tuple(delta_series(pulled, i) for i in range(fan.num_rays))
    return ToricAnalysis(fan, lattice, box, g0, mm, pulled, deltas)


def compare_superpotentials(analysis: ToricAnalysis, sigma: int):
    """(W_HV, W_PF, normalized W_LF, PF=LF report) relative to cone sigma."""
    fan, lattice, box = analysis.fan, analysis.lattice, analysis.box
    whv = assemble_W_HV(fan, lattice, sigma, box)
    wpf = assemble_W_PF(whv, analysis.mirror, box)
    wlf = normalize_W_LF(
        assemble_W_LF(whv, analysis.deltas), fan, analysis.deltas
    )
    return whv, wpf, wlf, check_PF_equals_LF(wpf, wlf)


def structural_report(analysis: ToricAnalysis) -> CheckReport:
    """Vanishing pattern checks on the disk generating functions.

    Nonzero deltas only at non-vertex rays, at most rank-1 of them, with
    rationally independent pairing rows, and unit constant disk count.
    """
    details = []
    vertices = fan_polytope_vertices(analysis.fan)
    nonzero = [
        d.ray_index for d in analysis.deltas if not d.delta.is_zero()
    ]
    for i in nonzero:
        if i in vertices:
            details.append(f"ray {i + 1} is a hull vertex but has nonzero delta")
    l = analysis.lattice.rank
    if l > 0 and len(nonzero) > l - 1:
        details.append(f"{len(nonzero)} nonzero deltas exceeds rank-1 = {l - 1}")
    if nonzero:
        rows = [list(analysis.lattice.pairing_row(i)) for i in nonzero]
        if rational_rank(rows) != len(rows):
            details.append("pairing rows of nonzero-delta rays are dependent")
    for d in analysis.deltas:
        if d.one_plus.constant_term != 1:
            details.append(f"ray {d.ray_index + 1}: constant disk count is not 1")
    return CheckReport("structure", not details, tuple(details))

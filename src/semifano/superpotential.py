"""Disk generating functions, superpotentials, and consistency checks.

The generating function delta_i collects one-pointed disk counts attached to
ray i; it is produced from the corrected coordinate change.  The three
Laurent-polynomial superpotentials (plain, coordinate-changed, and
instanton-corrected) are compared term by term.  For surfaces an independent
combinatorial count over chains of self-intersection-(-2) divisors gives the
same functions: `surface_admissible_deltas` computes it for every ray without
the engine, and `cross_validate_surface` compares it with an analysis.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from types import MappingProxyType

from .fans import (
    CurveLattice,
    Fan,
    FanError,
    alpha_class,
    is_semi_fano,
    non_vertices,
)
from .intlinalg import fraction_free_solve
from .mirror import MirrorMapPair, assemble_mirror_map, compute_g0_family
from .series import (
    MultiSeries,
    TruncationBox,
    combine,
    exp_series,
    mul,
    sub,
)


class InvariantSeries(namedtuple("InvariantSeries", "ray_index pulled")):
    """The disk counts of ray i, kept as the pulled-back correction series
    G_i = log(1 + delta_i); delta_i sums, over nonzero classes, disk counts
    times q-monomials."""

    @cached_property
    def one_plus(self):
        """1 + delta_i = exp(G_i), built once per series."""
        return exp_series(self.pulled)

    @cached_property
    def delta(self):
        return sub(self.one_plus, MultiSeries.one(self.pulled.box))


class InvariantTable(namedtuple("InvariantTable", "ray_index box terms")):
    """The nonzero disk counts of ray i over a box: `terms` holds
    (exponent, n) pairs in graded-lex order."""

    @cached_property
    def entries(self):
        """The nonzero disk counts, a read-only map from exponent to count in
        graded-lex order: a zero count is an absent key, read `.get(exp, 0)`."""
        return MappingProxyType(dict(self.terms))


def invariant_table(inv: InvariantSeries) -> InvariantTable:
    """The nonzero disk counts of 1 + delta_i over its series' box, as
    (exponent, n) pairs in graded-lex order.

    Disk counts are integers: a fractional entry raises ValueError.
    """
    series = inv.one_plus
    terms = series.coefficients()
    bad = [exp for exp, _, d in terms if d != 1]
    if bad:
        raise ValueError(
            f"non-integer disk count at exponents {bad} for ray {inv.ray_index + 1}"
        )
    return InvariantTable(inv.ray_index, series.box, tuple((exp, n) for exp, n, _ in terms))


def render_table(table: InvariantTable) -> str:
    box = table.box
    lines = ["".join(f"k{a + 1}\t" for a in range(box.arity)) + "n", *box.table_rows[1]]
    for exp, n in table.terms:
        k = box.table_line(exp)
        lines[k] = lines[k][:-1] + str(n)
    return "\n".join(lines)


class SuperpotentialTerm(namedtuple("SuperpotentialTerm",
                                    "ray_index z_exponent q_exponent unit")):
    """The term of ray k: unit times q^(q_exponent) z^(z_exponent), the unit
    a series of constant term 1."""

    __slots__ = ()


class SuperpotentialExpr(namedtuple("SuperpotentialExpr", "cone_index terms")):
    __slots__ = ()


def assemble_W_HV(fan: Fan, lattice: CurveLattice, sigma: int,
                  box: TruncationBox) -> SuperpotentialExpr:
    """Plain superpotential relative to a chosen maximal cone.

    Rays in the cone contribute the coordinate monomials; every other ray k
    contributes q^c z^(cone coordinates of v_k), c its class: -c at the cone rays.
    """
    cone = fan.max_cones[sigma]
    one = MultiSeries.one(box)
    terms = []
    for k in range(fan.num_rays):
        if k in cone:
            z = tuple(1 if c == k else 0 for c in cone)
            qe = (0,) * lattice.rank
        else:
            cls = alpha_class(fan, sigma, k)
            z = tuple(-cls[c] for c in cone)
            coords = lattice.coordinates(cls)
            if coords is None:
                raise FanError(
                    f"term class for ray {k + 1} lies outside the basis lattice"
                )
            qe = tuple(coords)
        terms.append(SuperpotentialTerm(k, z, qe, one))
    return SuperpotentialExpr(sigma, tuple(terms))


def assemble_W_PF(whv: SuperpotentialExpr, mm: MirrorMapPair,
                  box: TruncationBox) -> SuperpotentialExpr:
    """Compose the plain superpotential with the inverse coordinate change.

    Each coefficient monomial q^e picks up exp(sum_a e_a w_a), where w is the
    inverse-direction exponent family; negative e_a are fine.  A plain term's
    unit is 1, so that exp is the term's unit.
    """
    terms = tuple(
        SuperpotentialTerm(t.ray_index, t.z_exponent, t.q_exponent,
                           exp_series(combine(box, zip(t.q_exponent, mm.inverse))))
        for t in whv.terms
    )
    return SuperpotentialExpr(whv.cone_index, terms)


def assemble_W_LF(whv: SuperpotentialExpr, deltas) -> SuperpotentialExpr:
    """Each plain term, of unit 1, with unit 1 + delta of its ray (raw form)."""
    terms = tuple(
        SuperpotentialTerm(t.ray_index, t.z_exponent, t.q_exponent,
                           deltas[t.ray_index].one_plus)
        for t in whv.terms
    )
    return SuperpotentialExpr(whv.cone_index, terms)


def normalize_W_LF(expr: SuperpotentialExpr, fan: Fan, deltas) -> SuperpotentialExpr:
    """Rescale coordinates so the cone-ray terms have unit coefficient.

    Sending z_j to z_j/(1 + delta of cone ray j) divides term k by the
    product of (1 + delta) over the cone rays weighted by k's z-exponent,
    that is multiplies it by exp(-sum_j z_j G_j), G_j = log(1 + delta_j).
    """
    cone = fan.max_cones[expr.cone_index]
    logs = [deltas[c].pulled for c in cone]
    terms = []
    for t in expr.terms:
        corr = combine(t.unit.box, [(-e, lg) for e, lg in zip(t.z_exponent, logs)])
        unit = t.unit if corr.is_zero() else exp_series(corr)
        if unit is not t.unit and t.unit != MultiSeries.one(unit.box):  # G_k = 0: unit 1
            unit = mul(t.unit, unit)
        terms.append(SuperpotentialTerm(t.ray_index, t.z_exponent, t.q_exponent, unit))
    return SuperpotentialExpr(expr.cone_index, tuple(terms))


class CheckReport(namedtuple("CheckReport", "name passed details", defaults=((),))):
    __slots__ = ()


def check_PF_equals_LF(wpf: SuperpotentialExpr, wlf: SuperpotentialExpr) -> CheckReport:
    details = []
    if wpf.cone_index != wlf.cone_index:
        return CheckReport("PF=LF", False, ("different chosen cones",))
    for tp, tl in zip(wpf.terms, wlf.terms):
        if tp.z_exponent != tl.z_exponent or tp.q_exponent != tl.q_exponent:
            details.append(f"term for ray {tp.ray_index + 1}: monomial mismatch")
        elif tp.unit != tl.unit:
            diff = sub(tp.unit, tl.unit)
            exps = [e for e, _, _ in diff.coefficients()][:5]
            details.append(
                f"term for ray {tp.ray_index + 1}: coefficients differ at {exps}"
            )
    return CheckReport("PF=LF", not details, tuple(details))


def check_multiplicative_consistency(deltas, mm: MirrorMapPair,
                                     lattice: CurveLattice) -> CheckReport:
    """For each basis index a: prod_i (1+delta_i)^(pairing i,a) = exp(w_a).

    exp is injective on series with zero constant term, so the identity is
    checked on logarithms: sum_i pairing(i,a) * G_i = w_a, where each delta
    keeps G_i = log(1+delta_i).  For an analysis it holds by construction,
    as `pull_back` reads w off as exactly that sum; an inverse built
    another way can fail it.
    """
    details = []
    for a, w in enumerate(mm.inverse):
        acc = combine(w.box, [(lattice.pairing(d.ray_index, a), d.pulled)
                              for d in deltas])
        if acc != w:
            details.append(f"basis class {a + 1}: product identity fails")
    return CheckReport("multiplicative-consistency", not details, tuple(details))


# ---------------------------------------------------------------------------
# surface oracle


def surface_self_intersections(fan: Fan):
    """Self-intersection of each boundary divisor, D_k^2 = -det(v_p, v_n) det(v_p, v_k).

    Ray k of a surface fan is the wall (k,) of two cones, and the rays p and
    n off it in those cones are k's neighbours.  The cones are unimodular, so
    v_p + v_n = -(D_k^2) v_k and det(v_p, v_k) = +-1; the determinant of the
    relation with v_p gives D_k^2, whichever neighbour is p.  Returns a dict
    ray index -> integer.
    """
    if fan.dimension != 2:
        raise FanError("surface oracle needs a 2-dimensional fan")
    out = {}
    for k, (e, f) in enumerate(fan.rays):
        (a, b), (c, d) = (fan.rays[j] for j in _neighbours(fan, k))
        out[k] = (b * c - a * d) * (a * f - b * e)
    return out


def _neighbours(fan, k):
    """The two rays next to ray k of a surface fan, off the wall (k,)."""
    cones = fan.walls.get((k,), ())
    if len(cones) != 2:
        raise FanError(f"ray {k + 1} lies in {len(cones)} cone(s), not 2")
    return [fan.max_cones[c][p] for c, p in cones]


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


def surface_admissible_deltas(fan: Fan, lattice: CurveLattice,
                              box: TruncationBox) -> tuple[MultiSeries, ...]:
    """Independent combinatorial computation of every delta_i for a surface.

    A contributing class adds, to the basic disk through divisor i, a
    combination sum_k s_k [D_k] supported on the maximal chain of
    self-intersection-(-2) divisors through i, with both halves of s
    nonincreasing away from i in unit steps and ending at most 1.  Each such
    class contributes exactly 1.  Rays off every (-2)-chain get zero.  The
    chains are read off each ray's neighbours in its two cones, as for
    `surface_self_intersections`; nothing is sorted.
    """
    selfints = surface_self_intersections(fan)
    ok, witness = is_semi_fano(fan)
    if not ok:
        raise FanError(
            f"fan is not semi-Fano (witness pairing {sum(witness)})"
        )
    near = {k: _neighbours(fan, k) for k, d2 in selfints.items() if d2 == -2}
    return tuple(
        _chain_delta(lattice, box, near, i, fan.num_rays) if i in near
        else MultiSeries.zero(box)
        for i in range(fan.num_rays)
    )


def _chain_delta(lattice, box, near, i, m):
    """delta_i of a (-2)-divisor i of a fan of m rays; `near` maps every
    (-2)-divisor to its two neighbours, so its class is 1 at each of them
    and -2 at itself.

    The maximal chain of (-2)-divisors through i has a side from each
    neighbour of i: the walk on to the neighbour it did not come from, while
    that is a (-2)-divisor.  The sides never meet: a closed cycle of
    (-2)-divisors would need v_(k+1) = 2 v_k - v_(k-1) all round, putting
    every ray on one line, as no complete fan has.  A walk stops at i all
    the same, so a fan that is not smooth cannot make it run on.
    """
    sides = []
    for k in near[i]:
        side, prev = [], i
        while k in near and k != i:
            side.append(k)
            p, n = near[k]
            prev, k = k, (n if p == prev else p)
        sides.append(side)
    right, left = sides
    coeffs = {}
    for s0 in range(1, min(len(left), len(right)) + 2):
        for rs in _admissible_side_sequences(s0, len(right)):
            for ls in _admissible_side_sequences(s0, len(left)):
                total = [0] * m
                for k, s in [(i, s0)] + list(zip(right, rs)) + list(zip(left, ls)):
                    p, n = near[k]
                    total[p] += s
                    total[n] += s
                    total[k] -= 2 * s
                exps = lattice.coordinates(tuple(total))
                if exps is not None and box.contains(exps):
                    coeffs[tuple(exps)] = coeffs.get(tuple(exps), 0) + 1
    return MultiSeries.from_dict(box, coeffs)


def cross_validate_surface(oracle, analysis: ToricAnalysis) -> CheckReport:
    """Compare the combinatorial surface count with an analysis's deltas.

    `oracle` is the tuple `surface_admissible_deltas` returns.  Reading the
    deltas here builds the analysis's stages, so computing the oracle first
    lets a fan the oracle refuses fail before the engine runs.
    """
    details = [
        f"ray {d.ray_index + 1}: oracle and engine disagree"
        for d, expected in zip(analysis.deltas, oracle)
        if d.delta != expected
    ]
    return CheckReport("surface-oracle", not details, tuple(details))


# ---------------------------------------------------------------------------
# whole-pipeline convenience


class ToricAnalysis(namedtuple("ToricAnalysis", "fan lattice box")):
    """One run of the pipeline on a fan, its curve lattice and a box.

    Each stage is built on its first read and kept: `g0`, the correction
    series of every ray; `mirror`, the coordinate change and its inverse;
    `deltas`, the disk generating functions.  A stage reads only the stages
    before it, so a command builds only what it reads.
    """

    @cached_property
    def g0(self):
        return compute_g0_family(self.lattice, self.box)

    @cached_property
    def mirror(self):
        return assemble_mirror_map(self.lattice, self.g0)

    @cached_property
    def deltas(self):
        return tuple(InvariantSeries(i, g) for i, g in enumerate(self.mirror.pulled))


def analyze(fan: Fan, lattice: CurveLattice, box: TruncationBox) -> ToricAnalysis:
    """The analysis of fan over lattice in box; no stage is built yet."""
    return ToricAnalysis(fan, lattice, box)


def compare_superpotentials(analysis: ToricAnalysis, sigma: int):
    """(W_HV, W_PF, normalized W_LF, PF=LF report) relative to cone sigma."""
    fan, lattice, box = analysis.fan, analysis.lattice, analysis.box
    mm, deltas = analysis.mirror, analysis.deltas  # first, so a refusal does no W_HV work
    whv = assemble_W_HV(fan, lattice, sigma, box)
    wpf = assemble_W_PF(whv, mm, box)
    wlf = normalize_W_LF(assemble_W_LF(whv, deltas), fan, deltas)
    return whv, wpf, wlf, check_PF_equals_LF(wpf, wlf)


def structural_report(analysis: ToricAnalysis) -> CheckReport:
    """Vanishing pattern checks on the disk generating functions.

    Nonzero deltas only at non-vertex rays, at most rank-1 of them, with
    rationally independent pairing rows, a unit constant disk count and
    integer disk counts.  The hull walk (`non_vertices`) stops once every
    nonzero-delta ray is witnessed off the hull, and does not start when
    every delta is zero.
    """
    nonzero = [
        d.ray_index for d in analysis.deltas if not d.delta.is_zero()
    ]
    vertices, witnesses = set(nonzero), non_vertices(analysis.fan)
    while vertices and (k := next(witnesses, None)) is not None:
        vertices.discard(k)
    details = [f"ray {i + 1} is a hull vertex but has nonzero delta"
               for i in nonzero if i in vertices]
    l = analysis.lattice.rank
    if l > 0 and len(nonzero) > l - 1:
        details.append(f"{len(nonzero)} nonzero deltas exceeds rank-1 = {l - 1}")
    if nonzero:
        rows = [analysis.lattice.pairing_row(i) for i in nonzero]
        # the rows are independent iff their Gram matrix is nonsingular
        gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        if fraction_free_solve(gram, [])[0] == 0:
            details.append("pairing rows of nonzero-delta rays are dependent")
    for d in analysis.deltas:
        if d.one_plus.constant_term != 1:
            details.append(f"ray {d.ray_index + 1}: constant disk count is not 1")
        if any(den != 1 for _, _, den in d.one_plus.coefficients()):
            details.append(f"ray {d.ray_index + 1}: non-integer disk count")
    return CheckReport("structure", not details, tuple(details))

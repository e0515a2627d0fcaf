"""Hypergeometric correction series and the mirror coordinate change.

For each ray i the correction series sums, over curve classes d with total
anticanonical pairing zero that are negative exactly at coordinate i, the
factorial ratio (-1)^{d_i} (-d_i - 1)! / prod_{j != i} d_j!.  The coordinate
change multiplies each variable by the exponential of a combination of these
series; its formal inverse, and each series pulled back along it, come from
one pass over total degree.  The series enter as integer numerators keyed by
exponent tuples, which `series` packs.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import lcm, prod
from operator import mul

from .fans import CurveLattice, FanError, non_vertices
from .series import MultiSeries, TruncationBox, combine, pull_back


def enumerate_g0_classes(lattice: CurveLattice, box: TruncationBox):
    """All correction classes with basis exponents inside the box.

    A correction class has anticanonical pairing sum_a e_a * c1(b_a) = 0 and
    is negative at exactly one ray i.  As every e_a >= 0, when no c1(b_a) is
    negative each e_a with c1(b_a) > 0 is 0, so only that face of the box is
    scanned; otherwise the whole box is.  A point packs into one int: w-bit
    fields for its exponents, each ray's pairing and c1, the last two offset
    by 2^(w-1) > every |value| (and cap), so no field borrows, a point is
    one add from its neighbour and a field is negative just when its top
    bit is clear.  Each hit is decoded once, to a (degree, exponents, i,
    class) tuple; their plain sort is the graded order of the returned
    (i, class tuple, exponents) triples.

    The scan sees only nonnegative exponents.  It relies on the nef basis to
    give every correction class nonnegative coordinates, so a basis that is
    not nef-verified is refused.
    """
    if not lattice.nef_verified:
        raise FanError("correction enumeration needs a nef-verified basis")
    if box.arity != lattice.rank:
        raise FanError("box arity must equal the lattice rank")
    c1 = [sum(b) for b in lattice.basis]
    caps = box.caps
    if min(c1, default=0) >= 0:
        caps = [0 if c else cap for c, cap in zip(c1, caps)]
    l, m = lattice.rank, lattice.fan.num_rays
    rows = [lattice.pairing_row(j) for j in range(m)] + [c1]
    w = max(sum(map(mul, caps, map(abs, row))) for row in rows).bit_length() + 1
    off, mask, top = 1 << (w - 1), (1 << w) - 1, w * (l + m)
    tops = sum(off << w * k for k in range(l, l + m))
    points = [tops + (off << top)]
    for a, cap in enumerate(caps):
        step = (1 << w * a) + sum(row[a] << w * k for k, row in enumerate(rows, l))
        steps = [k * step for k in range(cap + 1)]
        points = [p + s for p in points for s in steps]
    fields, rays, out = range(0, w * l, w), range(w * l, top, w), []
    for p in points:
        neg = tops & ~p
        if neg and not neg & (neg - 1) and p >> top == off:
            exps = tuple([p >> k & mask for k in fields])
            out.append((sum(exps), exps, (neg.bit_length() - 1) // w - l,
                        tuple([(p >> k & mask) - off for k in rays])))
    out.sort()
    return [(i, cls, exps) for _, exps, i, cls in out]


def compute_g0_family(lattice: CurveLattice, box: TruncationBox):
    """Every ray's correction series, a tuple in ray order, from one box scan.

    A correction class negative at ray i writes v_i as a convex combination
    of the other rays, so a hull vertex's series is zero, and a fan whose
    rays are all hull vertices has none.  A nef-verified basis is scanned
    without that test; any other basis is refused by `enumerate_g0_classes`
    unless every ray is a hull vertex, so the hull walk stops at its first
    witness (`non_vertices`).  Each series is built from integer numerators
    over the lcm of the terms' denominators, with factorials from one table
    up to the largest -d_i (a class sums to zero), keyed by the scan's
    exponent tuples (`MultiSeries.from_numerators`).
    """
    fan, hits = lattice.fan, []
    if lattice.nef_verified or next(non_vertices(fan), None) is not None:
        hits = enumerate_g0_classes(lattice, box)
    top = max([-cls[i] for i, cls, _ in hits], default=0)
    fact = list(accumulate(range(1, top + 1), mul, initial=1))
    dens = [prod([fact[dj] for dj in cls if dj > 0]) for _, cls, _ in hits]
    den, nums = lcm(*dens), [{} for _ in range(fan.num_rays)]
    for (i, cls, exps), d in zip(hits, dens):
        b = -cls[i]
        nums[i][exps] = (-1) ** b * fact[b - 1] * (den // d)
    return tuple(MultiSeries.from_numerators(box, den, n) for n in nums)


class MirrorMapPair(namedtuple("MirrorMapPair", "forward inverse pulled")):
    """Both directions of the coordinate change, one exponent series a
    variable, each a tuple of MultiSeries.

    `forward` expresses the corrected variables in terms of the raw ones
    (q_a = x_a * exp(forward[a])); `inverse` goes back, and the composition
    is the identity within the box.  `pulled` holds each ray's correction
    series composed with the inverse.
    """

    __slots__ = ()


def assemble_mirror_map(lattice: CurveLattice, g0) -> MirrorMapPair:
    """Forward component a is -sum_i a(i, a) * g0_i for the correction
    series g0 over lattice; the inverse and the pulled-back series come from
    one `pull_back` pass."""
    rows = [lattice.pairing_row(i) for i in range(lattice.fan.num_rays)]
    forward = tuple(combine(g0[0].box, [(-row[a], s) for row, s in zip(rows, g0)])
                    for a in range(lattice.rank))
    pulled, inverse = pull_back(g0, rows)
    return MirrorMapPair(forward, inverse, pulled)

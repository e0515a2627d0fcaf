"""Hypergeometric correction series and the mirror coordinate change.

For each ray i the correction series sums, over curve classes d with total
anticanonical pairing zero that are negative exactly at coordinate i, the
factorial ratio (-1)^{d_i} (-d_i - 1)! / prod_{j != i} d_j!.  The coordinate
change multiplies each variable by the exponential of a combination of these
series; its formal inverse, and each series pulled back along it, come from
one pass over total degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, prod
from operator import mul

from .fans import CurveLattice, FanError, fan_polytope_vertices
from .series import MultiSeries, TruncationBox, combine, pull_back


def enumerate_g0_classes(lattice: CurveLattice, box: TruncationBox):
    """All correction classes with basis exponents inside the box.

    A correction class has anticanonical pairing sum_a e_a * c1(b_a) = 0 and
    is negative at exactly one ray i.  As every e_a >= 0, when no c1(b_a) is
    negative each e_a with c1(b_a) > 0 is 0, so only that face of the box is
    scanned; otherwise the whole box is.  Pairings are integer dot products.
    Returns (i, class tuple, exponents) triples in graded order.

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
    rows = [lattice.pairing_row(j) for j in range(lattice.fan.num_rays)]
    out = []
    for exps in product(*[range(c + 1) for c in caps]):
        cls = [sum(map(mul, exps, row)) for row in rows]
        negative = [j for j, dj in enumerate(cls) if dj < 0]
        if len(negative) == 1 and sum(cls) == 0:
            out.append((negative[0], tuple(cls), exps))
    out.sort(key=lambda t: (sum(t[2]), t[2]))
    return out


@dataclass(frozen=True)
class GZeroFamily:
    """One correction series per ray, in the pre-change variables; the
    series of a vertex of the fan polytope is zero."""

    lattice: CurveLattice
    series: tuple[MultiSeries, ...]

    @property
    def box(self):
        return self.series[0].box


def compute_g0_family(lattice: CurveLattice, box: TruncationBox) -> GZeroFamily:
    """Every ray's correction series, from one scan of the box.

    A correction class negative at ray i writes v_i as a convex combination
    of the other rays, so a fan whose rays are all hull vertices has none.
    A nef-verified basis is scanned without that test; any other basis is
    refused by `enumerate_g0_classes` unless every ray is a hull vertex.
    """
    fan = lattice.fan
    coeffs = [{} for _ in range(fan.num_rays)]
    if lattice.nef_verified or len(fan_polytope_vertices(fan)) < fan.num_rays:
        for i, cls, exps in enumerate_g0_classes(lattice, box):
            b = -cls[i]
            den = prod(factorial(dj) for j, dj in enumerate(cls) if j != i)
            coeffs[i][exps] = Fraction((-1) ** b * factorial(b - 1), den)
    series = tuple(MultiSeries.from_dict(box, c) for c in coeffs)
    return GZeroFamily(lattice, series)


@dataclass(frozen=True)
class MirrorMapPair:
    """Both directions of the coordinate change, one exponent series a
    variable.

    `forward` expresses the corrected variables in terms of the raw ones
    (q_a = x_a * exp(forward[a])); `inverse` goes back, and the composition
    is the identity within the box.  `pulled` holds each ray's correction
    series composed with the inverse.
    """

    forward: tuple[MultiSeries, ...]
    inverse: tuple[MultiSeries, ...]
    pulled: tuple[MultiSeries, ...]


def assemble_mirror_map(g0: GZeroFamily) -> MirrorMapPair:
    """Forward component a is -sum_i a(i, a) * g0_i; the inverse and the
    pulled-back series come from one `pull_back` pass."""
    lattice = g0.lattice
    rows = [lattice.pairing_row(i) for i in range(lattice.fan.num_rays)]
    forward = tuple(
        combine(g0.box, [(-row[a], s) for row, s in zip(rows, g0.series)])
        for a in range(lattice.rank)
    )
    pulled, inverse = pull_back(g0.series, rows)
    return MirrorMapPair(forward, inverse, pulled)

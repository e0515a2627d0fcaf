"""Seeded toric blow-ups of P3 for the threefold tests.

Each step is a star subdivision, a torus-equivariant blow-up (Oda, *Convex
Bodies and Algebraic Geometry*, 1988): a point blow-up adds v_a + v_b + v_c
inside a maximal cone and splits it in three, and a curve blow-up adds
v_a + v_b on a 2-cone and splits both maximal cones on it in two.  The new
ray is appended, so every earlier ray keeps its index.  A star subdivision
of a smooth complete fan is smooth and complete; the generator still keeps
only the fans that `validate_fan` and `is_semi_fano` accept, and grows each
fan from the last one they accepted.
"""

from __future__ import annotations

import random
from itertools import combinations

from semifano import Fan, is_semi_fano, validate_fan

P3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
         ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
TWELVE_RAYS = Fan(
    3,
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1), (1, 0, 1),
     (1, 1, 0), (0, -1, 0), (-1, -1, 0), (2, 1, 1), (0, 1, 1), (-1, -2, -1)),
    [[k - 1 for k in cone] for cone in (
        (1, 4, 7), (2, 4, 7), (1, 4, 12), (1, 8, 12), (1, 6, 8), (3, 8, 9),
        (4, 9, 12), (8, 9, 12), (3, 6, 8), (2, 9, 11), (3, 9, 11), (2, 4, 9),
        (1, 7, 10), (5, 7, 10), (2, 5, 7), (1, 6, 10), (5, 6, 10), (3, 5, 6),
        (2, 5, 11), (3, 5, 11))])


def star_subdivision(fan, face):
    """The fan with the ray sum of `face` (a 2-cone or a maximal cone, ray
    indices) added and every maximal cone containing `face` split."""
    v = tuple(map(sum, zip(*(fan.rays[k] for k in face))))
    new = fan.num_rays
    cones = []
    for cone in fan.max_cones:
        if set(face) <= set(cone):
            cones += [tuple(new if k == f else k for k in cone) for f in face]
        else:
            cones.append(cone)
    return Fan(3, fan.rays + (v,), cones)


def faces(fan):
    """Every 2-cone, then every maximal cone, of a threefold fan."""
    walls = sorted({w for cone in fan.max_cones for w in combinations(cone, 2)})
    return walls + list(fan.max_cones)


def p3_blowups(seed, count, max_rays=8):
    """`count` distinct semi-Fano blow-ups of P3 with at most `max_rays`
    rays: each starts from P3 and takes random star subdivisions until it
    reaches a size drawn from 5..max_rays, or no subdivision is accepted."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        fan, size = P3, rng.randint(5, max_rays)
        while fan.num_rays < size:
            options = faces(fan)
            rng.shuffle(options)
            for face in options:
                child = star_subdivision(fan, face)
                if validate_fan(child) == [] and is_semi_fano(child)[0]:
                    fan = child
                    break
            else:
                break
        if fan not in seen:
            seen.add(fan)
            out.append(fan)
    return out

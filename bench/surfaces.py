"""Seeded semi-Fano toric surfaces for the surface-sweep workload.

A surface is grown from P2 or P1xP1 by toric blow-ups: inserting the ray
v_i + v_{i+1} between two neighbours in cyclic order.  A blow-up is accepted
only if every boundary divisor keeps self-intersection >= -2, which for a
smooth complete surface is exactly the semi-Fano condition.  Self-
intersections come from the neighbour relation v_prev + v_next = -(D_k^2) v_k,
computed here without calling the engine, so the generator stays independent
of the code it feeds.
"""

from __future__ import annotations

import random

BASES = {
    "p2": ((1, 0), (0, 1), (-1, -1)),
    "p1xp1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
}
MAX_BLOWUPS = 4
# box caps come from 2..5, limited so that (cap + 1)^rank stays within this
# many table cells and every job stays small
BOX_CELLS = 100


def self_intersections(rays):
    """D_k^2 for every ray of a smooth complete fan listed in cyclic order."""
    m = len(rays)
    out = []
    for k, (vx, vy) in enumerate(rays):
        px, py = rays[k - 1]
        nx, ny = rays[(k + 1) % m]
        sx, sy = px + nx, py + ny
        c = sx // vx if vx else sy // vy
        if (sx, sy) != (c * vx, c * vy):
            raise ValueError(f"rays around {k + 1} do not form a smooth fan")
        out.append(-c)
    return out


def blowups(rays):
    """Every single blow-up of `rays` that keeps all self-intersections >= -2."""
    out = []
    for i in range(len(rays)):
        a, b = rays[i], rays[(i + 1) % len(rays)]
        grown = rays[: i + 1] + ((a[0] + b[0], a[1] + b[1]),) + rays[i + 1:]
        if min(self_intersections(grown)) >= -2:
            out.append(grown)
    return out


def random_surface(rng: random.Random, base: str, steps: int):
    """Rays of `base` after up to `steps` random admissible blow-ups."""
    rays = BASES[base]
    for _ in range(steps):
        options = blowups(rays)
        if not options:
            break
        rays = rng.choice(options)
    return rays


def box_caps(rank):
    """Admissible broadcast box caps for a curve lattice of this rank."""
    caps = [c for c in range(2, 6) if (c + 1) ** rank <= BOX_CELLS]
    return caps or [2]


def document(rays):
    """Fan description document, maximal cones between cyclic neighbours."""
    m = len(rays)
    return {
        "dimension": 2,
        "rays": [list(v) for v in rays],
        "max_cones": [[k + 1, (k + 1) % m + 1] for k in range(m)],
    }


def sample(rng: random.Random, count: int):
    """`count` (rays, cap) pairs, stratified over base and blow-up count.

    Slot s uses base P2 or P1xP1 alternately and s // 2 mod (MAX_BLOWUPS + 1)
    blow-ups, so every seed gives the same mix of sizes and only the blow-up
    positions and boxes vary.
    """
    out = []
    for s in range(count):
        base = ("p2", "p1xp1")[s % 2]
        rays = random_surface(rng, base, (s // 2) % (MAX_BLOWUPS + 1))
        out.append((rays, rng.choice(box_caps(len(rays) - 2))))
    return out


def universe():
    """Every (rays, cap) pair that `sample` can produce, in a fixed order."""
    seen = []
    frontier = [(rays, 0) for rays in BASES.values()]
    depth = {}
    while frontier:
        rays, d = frontier.pop()
        if rays in depth and depth[rays] <= d:
            continue
        if rays not in depth:
            seen.append(rays)
        depth[rays] = d
        if d < MAX_BLOWUPS:
            frontier.extend((g, d + 1) for g in blowups(rays))
    seen.sort(key=lambda r: (len(r), r))
    return [(rays, cap) for rays in seen for cap in box_caps(len(rays) - 2)]

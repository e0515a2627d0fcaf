"""Smooth complete toric fans and their curve-class lattices.

Rays are primitive integer vectors in Z^n; maximal cones are given as index
sets and are required input (the fan is never guessed from rays alone).
A curve class is a plain integer tuple d in the kernel of Z^m -> Z^n,
d |-> sum_i d_i v_i, d_i being the intersection number against the i-th
toric divisor.  `Fan.walls` lists each wall once with the cones on it, and
`Fan.cone_solutions` solves each maximal cone against every ray: the first
cone of each connected piece directly, and every other one by one Bareiss
exchange from a nonsingular cone across a wall that lies in just those two
cones, swapping the first cone's ray off the wall for the second's.  The
exchange divides exactly, as the solved entries are Cramer numerators and
obey the three-term Grassmann–Plücker relation; a singular cone gets
(0, None), whichever way it is reached, and no cone is reached through it.
`Fan.wall_classes` builds a fan's wall classes from both; the semi-Fano test
and the nef basis search read them, and `validate_fan` reads the walls.
A lattice solves its basis once for every `coordinates` call, and
`non_vertices` yields each ray off the hull as soon as it is witnessed, so a
caller that needs less than `fan_polytope_vertices` stops the walk early.

A nef wall basis B is unique when there is one: two such bases are
nonnegative integer combinations of each other, so one is a permutation of
the other.  Two exact certificates bound it before any subset is walked.
A sure wall, the only one negative at some ray, is in B, as no nonnegative
combination of the other walls reaches it; a wall that is the sum of two
others is not, as its unit coordinates would split into two nonzero
nonnegative parts.  So `curve_lattice` walks only the subsets of the
remaining candidates that hold every sure wall.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import add, mul

from .intlinalg import exchange, fraction_free_solve, subset_solves


class FanError(ValueError):
    pass


class Fan(namedtuple("Fan", "dimension rays max_cones")):
    """A simplicial fan: dimension, primitive ray generators (integer
    tuples), maximal cones (sorted tuples of ray indices).

    Ray and cone indices are 0-based internally; the JSON input layer uses
    1-based cone entries.
    """

    def __new__(cls, dimension, rays, max_cones):
        return super().__new__(cls, dimension, tuple(tuple(v) for v in rays),
                               tuple(tuple(sorted(c)) for c in max_cones))

    @classmethod
    def _make(cls, iterable):
        """Through `__new__`, so `_replace` keeps tuples and sorted cones."""
        return cls(*iterable)

    @property
    def num_rays(self):
        return len(self.rays)

    @cached_property
    def walls(self):
        """Map from each (n-1)-subset of a cone to a (cone index, position
        of the ray off the wall) pair per cone containing it, the walls of
        each cone in `combinations` order."""
        seen: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for ci, cone in enumerate(self.max_cones):
            for p in reversed(range(len(cone))):
                seen.setdefault(cone[:p] + cone[p + 1:], []).append((ci, p))
        return seen

    @cached_property
    def cone_solutions(self):
        """`fraction_free_solve` of each maximal cone's rays against every
        ray; read only once the cones are valid index sets.

        Two cones on a wall share its n - 1 rays, and a cone is the wall
        with its ray off the wall put in at that ray's position, so one
        `exchange` step takes either cone's solution to the other's.  The
        cones are walked in index order: a cone not yet reached is solved
        directly, and then every cone reachable from it across walls that
        lie in exactly two cones is reached by exchange, breadth first.  A
        singular cone, reached either way, gets (0, None) and passes
        nothing on.  Every tuple equals the cone's direct solve, whichever
        way it was reached, and a wall on more cones, which only an invalid
        fan has, links none of them, so the links stay linear in the walls.
        """
        links = [[] for _ in self.max_cones]
        for cones in self.walls.values():
            if len(cones) == 2:
                for (a, t), (b, u) in (cones, cones[::-1]):
                    links[a].append((b, t, self.max_cones[b][u], u))
        solved = [None] * len(self.max_cones)
        for root, cone in enumerate(self.max_cones):
            if solved[root] is None:
                solved[root] = fraction_free_solve([self.rays[k] for k in cone], self.rays)
                reached = [root]
                for a in reached:
                    for b, t, y, u in links[a]:
                        if solved[a][0] and solved[b] is None:
                            solved[b] = exchange(solved[a], t, y, u)
                            reached.append(b)
        return tuple(solved)

    @cached_property
    def wall_classes(self):
        """Primitive relation class of every wall, with the two opposite rays at +1.

        Across the wall from cone c0 lies ray y with v_y = -v_x + (a sum over
        the wall rays), x being the ray of c0 off the wall; that relation is
        the class of y's superpotential term relative to c0.  Built once per
        fan object, for a valid fan; a wall not in two cones is a FanError.
        """
        classes = {}
        for wall, cones in sorted(self.walls.items()):
            if len(cones) != 2:
                raise FanError(f"wall {tuple(k + 1 for k in wall)} shared by "
                               f"{len(cones)} cone(s)")
            (c0, _), (c1, p) = cones
            classes[alpha_class(self, c0, self.max_cones[c1][p])] = None
        return tuple(classes)


class CurveLattice(namedtuple("CurveLattice", "fan basis nef_verified",
                              defaults=(False,))):
    """A chosen Z-basis of the curve-class lattice of a fan.

    `basis[a]` is the a-th basis class, an integer tuple; the pairing matrix
    entry a(i, a) is simply coordinate i of basis class a.  `nef_verified`
    records whether every wall curve class has nonnegative coordinates in
    this basis, which downstream series code relies on for nonnegative
    exponents.
    """

    @property
    def rank(self):
        return len(self.basis)

    def pairing_row(self, ray_index):
        """All pairings of ray_index's divisor with the basis classes."""
        return tuple(b[ray_index] for b in self.basis)

    @cached_property
    def basis_solution(self):
        """(det B, det B · B^-T), B the basis in `_free_coordinates`: one
        `fraction_free_solve` of B's transpose against the l×l identity per
        lattice, so row a of the adjugate is column a of det B · B^-1."""
        l = self.rank
        return fraction_free_solve(list(zip(*_free_coordinates(self.fan, self.basis))),
                                   [[int(i == j) for j in range(l)] for i in range(l)])

    def coordinates(self, cls):
        """Integer coordinates of a kernel class, an integer tuple, in the
        chosen basis, or None.

        The class's `_free_coordinates` y solve x·B = y, so coordinate a is y
        dotted with row a of `basis_solution`'s adjugate, over the
        determinant.  The quotients stand only if they rebuild `cls`, which
        also holds just when every division is exact; a class outside the
        kernel or off the basis lattice gets None.
        """
        det, adj = self.basis_solution
        if det == 0:
            return None
        y = _free_coordinates(self.fan, [cls])[0]
        exps = [sum(map(mul, y, row)) // det for row in adj]
        return exps if self.class_from_coordinates(exps) == cls else None

    def class_from_coordinates(self, exps):
        return tuple(sum(map(mul, exps, col)) for col in zip(*self.basis))


def validate_fan(fan: Fan):
    """Check primitivity, smoothness and completeness; returns list of violations.

    Some maximal cone must be listed, and none twice.  Complete: every wall
    lies in exactly two cones, on opposite sides of it, and no closed cone
    but the first holds the sum of the first's rays, an interior point; so
    the cones cover each generic point once.  Both tests read
    `Fan.cone_solutions`, the first through `Fan.walls`.  Last, every ray
    must lie in some maximal cone.
    """
    violations = []
    n = fan.dimension
    if n <= 0:
        return ["dimension must be positive"]
    for i, v in enumerate(fan.rays):
        if len(v) != n:
            violations.append(f"ray {i + 1} has wrong length")
        elif all(x == 0 for x in v):
            violations.append(f"ray {i + 1} is zero")
        elif gcd(*v) != 1:
            violations.append(f"ray {i + 1} is not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        violations.append("rays are not pairwise distinct")
    if violations:
        return violations
    if not fan.max_cones:
        return ["no maximal cone is listed"]
    seen = {}
    for cone in fan.max_cones:
        if len(cone) != n or any(k < 0 or k >= fan.num_rays for k in cone):
            violations.append(f"cone {tuple(k + 1 for k in cone)} is not a valid index set")
        elif seen.get(cone) == 1:
            violations.append(f"cone {tuple(k + 1 for k in cone)} is listed twice")
        seen[cone] = seen.get(cone, 0) + 1
    if violations:
        return violations
    first = fan.max_cones[0]
    for ci, (cone, (d, adj)) in enumerate(zip(fan.max_cones, fan.cone_solutions)):
        if abs(d) != 1:
            violations.append(
                f"cone {tuple(k + 1 for k in cone)} determinant {d}, non-smooth"
            )
        elif ci and all(d * sum(adj[k][j] for k in first) >= 0 for j in range(n)):
            violations.append(
                f"cone {tuple(k + 1 for k in cone)} overlaps the first cone"
            )
    if violations:
        return violations
    # the sign of det(wall rays, off-wall ray) of each cone on a wall, up to
    # the common factor (-1)^(n-1)
    for wall, cones in fan.walls.items():
        signs = [(-1) ** p * fan.cone_solutions[c][0] for c, p in cones]
        if len(signs) != 2:
            violations.append(
                f"wall {tuple(k + 1 for k in wall)} shared by {len(signs)} cone(s)"
            )
        elif signs[0] == signs[1]:
            violations.append(
                f"wall {tuple(k + 1 for k in wall)} has both its cones on one side"
            )
    used = set().union(*fan.max_cones)
    violations += [f"ray {k + 1} lies in no maximal cone"
                   for k in range(fan.num_rays) if k not in used]
    return violations


def cone_coordinates(fan: Fan, sigma, k):
    """Integer coordinates of ray k in the unimodular basis given by cone sigma."""
    d, adj = fan.cone_solutions[sigma]
    if abs(d) != 1:
        cone = tuple(c + 1 for c in fan.max_cones[sigma])
        raise FanError(f"cone {cone} determinant {d}, non-smooth")
    return tuple(d * x for x in adj[k])


def alpha_class(fan: Fan, sigma, k):
    """Curve class of the k-th superpotential term relative to cone sigma:
    e_k minus sum_j coords_j e_(cone_j), coords the cone coordinates of v_k.

    The cone is unimodular, so v_k = sum_j coords_j v_(cone_j) exactly and
    the class sum_i d_i v_i = 0 by construction; a ray of the cone is its
    own coordinate vector, so its class is zero."""
    cone = fan.max_cones[sigma]
    coords = cone_coordinates(fan, sigma, k)
    d = [0] * fan.num_rays
    d[k] = 1
    for j, c in enumerate(cone):
        d[c] -= coords[j]
    return tuple(d)


def is_semi_fano(fan: Fan):
    """(flag, witness): anticanonical pairing nonnegative on all wall classes."""
    for c in fan.wall_classes:
        if sum(c) < 0:
            return False, c
    return True, None


def non_vertices(fan: Fan):
    """Each ray of a complete fan that is not a vertex of the convex hull of
    all rays, once, as soon as a simplex witnesses it.

    Ray k is no vertex exactly when v_k = sum_j mu_j u_j over n linearly
    independent other rays u_j, with every mu_j >= 0 and sum_j mu_j <= 1.
    Completeness puts -sum_v v in a cone, so 0 = sum_v lambda_v v with every
    lambda_v > 0 and sum_v lambda_v = 1.  If: substituting that sum for the
    slack (1 - sum mu)·0 writes (1 - (1 - sum mu) lambda_k) v_k, a positive
    multiple as lambda_k < 1, as a nonnegative combination of the other rays
    with the same coefficient sum, so v_k lies in their hull.  Only if: that hull is then
    the whole hull, with 0 inside it; the ray from 0 through v_k leaves it
    at t v_k, t >= 1, on a facet, and a simplex of a triangulation of that
    facet holds t v_k; its n vertices are other rays, linearly independent
    as the facet misses 0, and mu = (barycentric coordinates) / t.  One
    `subset_solves` walk over the rays solves every independent n-subset
    against all rays, sharing the elimination steps of common prefixes; a
    leaf witnesses k when det·adj_k >= 0 entrywise and det·sum(adj_k) <=
    det^2.  Nothing is walked before the first ray is asked for.
    """
    seen = set()
    for sub, det, adj in subset_solves(fan.rays, fan.dimension):
        for k, row in enumerate(adj):
            if (k not in seen and k not in sub
                    and all(det * v >= 0 for v in row) and det * sum(row) <= det * det):
                seen.add(k)
                yield k


def fan_polytope_vertices(fan: Fan):
    """Indices of the rays of a complete fan that are vertices of the convex
    hull of all rays: the complement of the whole `non_vertices` walk."""
    return set(range(fan.num_rays)).difference(non_vertices(fan))


def _free_coordinates(fan: Fan, classes):
    """Entries of curve classes at the rays outside the first maximal cone.

    In a smooth fan that cone is a Z-basis of Z^n, so a class is fixed by
    these l entries and any l integers are the entries of exactly one
    class: they are the integer coordinates of the class over the dual
    kernel basis, the `alpha_class` of each of these rays relative to that
    cone.
    """
    free = [i for i in range(fan.num_rays) if i not in fan.max_cones[0]]
    return [[c[i] for i in free] for c in classes]


def _nef_verdict(det, adj):
    """(basis, nef) from the solve of l classes against the wall classes in
    `_free_coordinates`: the classes are a Z-basis when det is +-1, and a
    nef one when moreover no wall has a negative coordinate over them."""
    basis = abs(det) == 1
    return basis, basis and all(det * v >= 0 for x in adj for v in x)


def curve_lattice(fan: Fan, basis=None) -> CurveLattice:
    """Build a verified curve lattice, choosing a nef basis when possible.

    Every class is written once in the integer coordinates of
    `_free_coordinates`, and `_nef_verdict` reads a solve of l classes
    against the walls there.  A supplied basis is solved once and must be a
    Z-basis.  Without one, the nef wall basis is sought; it is unique if it
    exists, and holds every sure wall and no sum of two walls (see the
    module docstring), so more than l sure walls settle that there is none.
    The wall coordinates are ordered sure walls, other candidates, sums, and
    one `subset_solves` walk pivots on the candidates only, in
    `combinations` order, up to the first subset that misses a sure wall;
    each leaf still solves every wall for `_nef_verdict`, and the basis
    found is listed in wall order.  Else the dual kernel basis of
    `_free_coordinates` is kept, over which every class's coordinates are
    its own.
    """
    l = fan.num_rays - fan.dimension
    walls = fan.wall_classes
    coords = _free_coordinates(fan, walls)
    if basis is not None:
        rows = [tuple(int(x) for x in b) for b in basis]
        for b in rows:
            if any(sum(b[i] * fan.rays[i][j] for i in range(fan.num_rays)) != 0
                   for j in range(fan.dimension)):
                raise FanError(f"supplied basis class {b} is not a curve class")
        det, adj = (fraction_free_solve(_free_coordinates(fan, rows), coords)
                    if len(rows) == l else (0, None))
        is_basis, nef = _nef_verdict(det, adj)
        if not is_basis:
            raise FanError("supplied basis does not span the full curve lattice")
        return CurveLattice(fan, tuple(rows), nef_verified=nef)
    negative = ([k for k, x in enumerate(col) if x < 0] for col in zip(*walls))
    sure = {ks[0] for ks in negative if len(ks) == 1}
    if len(sure) <= l:
        sums = {tuple(map(add, u, v)) for u, v in combinations(walls, 2)}
        order = sorted(range(len(walls)), key=lambda k: (k not in sure, walls[k] in sums))
        candidates = sum(w not in sums for w in walls)
        head = tuple(range(len(sure)))
        for sub, det, adj in subset_solves([coords[k] for k in order], l, candidates):
            if sub[:len(head)] != head:
                break
            if _nef_verdict(det, adj)[1]:
                return CurveLattice(fan, tuple(walls[k] for k in sorted(order[j] for j in sub)),
                                    nef_verified=True)
    kernel = tuple(alpha_class(fan, 0, k) for k in range(fan.num_rays)
                   if k not in fan.max_cones[0])
    return CurveLattice(fan, kernel, nef_verified=_nef_verdict(1, coords)[1])

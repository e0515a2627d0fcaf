"""Reference algorithms and test-only views for the tests.

The engine decides every lattice question with one fraction-free integer
solve, `semifano.intlinalg.fraction_free_solve`.  Here are independent
algorithms, a Gauss-Jordan solve and a Gaussian rank over Q, a
Hermite-style kernel sweep over Z and a Bareiss determinant, kept only so
that tests can compare the engine against code it does not use.  The same goes for the series side:
the engine's one pass, `semifano.series.pull_back`, builds the inverse
coordinate change and the pulled-back correction series together, degree
by degree.  Here substitution is a separate step (`substitute`, over power
tables of x_a * exp(u_a) and the image of each monomial), the inverse is
the whole-box fixed-point loop that substitution drives, and
`invert_diagonal_unit` reads the inverse alone off the one pass.  The power
tables multiply with `_pmul`, a plain truncated product of two packed
series, not the engine's sum-of-products kernel `series._sum`.  A
coordinate change x_a -> x_a * exp(u_a) is the tuple of its u_a, as in
`semifano.MirrorMapPair`.  The engine needs no log: it keeps each ray's
pulled-back series G_i = log(1 + delta_i).  `oracle_log` and `oracle_exp`
are sums of powers over Fraction dicts, so tests can build a G from a
delta, and check exp, without the engine's recurrences.  `pass_slices`
records the degree slices that a call's recurrences build, and
`pass_products` counts the products its kernel sums form.  Last come the
dict, identity and class-keyed views, sums, scaling, composition and single
correction series that only tests use, and `variants`, a fan under
unimodular maps and re-indexings.  `gkz_violations` checks the forward map
against the GKZ recurrence, reading only the pairings and its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import factorial, lcm, prod
from operator import mul, or_

from semifano import (
    CurveLattice,
    Fan,
    MultiSeries,
    SeriesError,
    TruncationBox,
    combine,
    compute_g0_family,
    pull_back,
    series,
)
from semifano.series import _exp, _lowest


def _pmul(s, t, bias, guard):
    """Truncated product of two packed series.

    The outer factor carries the bias, so a pair is in the box exactly when
    its sum has no guard bit set; numerators multiply over D_s D_t.
    """
    if len(s[1]) > len(t[1]):
        s, t = t, s
    r = {}
    for p1, n1 in s[1].items():
        p1 += bias
        for p2, n2 in t[1].items():
            p = p1 + p2
            if not p & guard:
                r[p] = r.get(p, 0) + n1 * n2
    return _lowest(s[0] * t[0], r, bias)


def _power_tables(umaps, series, box):
    """tables[a][k] = (x_a * exp(u_a))^k, packed, for k up to the largest
    exponent of x_a in any of the packed series.

    The factor x_a^k keeps the part of exp(u_a)^k that a monomial with x_a^k
    can use, so entries shrink as k grows and products of them stay small.
    """
    _, shifts, bias, guard, mask, dk = box.layout
    tables = []
    for k, u in zip(shifts, umaps):
        depth = max((p >> k & mask for _, s in series for p in s), default=0)
        pa = [(1, {0: 1})]
        if depth:
            # x_a drops the top-degree slice of exp(u_a)
            ya = _pmul((1, {1 << k | 1 << dk: 1}), _exp(u, box), bias, guard)
            for _ in range(depth):
                pa.append(_pmul(pa[-1], ya, bias, guard))
        tables.append(pa)
    return tables


def _subst_dict(series, tables, box):
    """Evaluate packed series at x_a := x_a * exp(u_a), given u's power tables.

    The image prod_a tables[a][e_a] of each monomial e is built once, from the
    image of its prefix (e_1, .., e_(a-1), 0, .., 0), and then serves every
    series and term that contains e.
    """
    _, shifts, bias, guard, mask, _ = box.layout
    w = mask.bit_length()
    images = {0: (1, {0: 1})}
    out = []
    for den, s in series:
        terms = []
        for p, n in s.items():
            img = images[0]
            for k, pa in zip(shifts, tables):
                if p >> k & mask:
                    pre = p & ((1 << k + w) - 1)
                    if pre not in images:
                        images[pre] = _pmul(img, pa[p >> k & mask], bias, guard)
                    img = images[pre]
            terms.append((n, img))
        scale = lcm(*(di for _, (di, _) in terms))
        r = {}
        for n, (di, img) in terms:
            n *= scale // di
            for q, m in img.items():
                r[q] = r.get(q, 0) + n * m
        out.append(_lowest(den * scale, r))
    return out


def substitute(s: MultiSeries, m) -> MultiSeries:
    """Evaluate s at x_a := x_a * exp(u_a(x)), m the tuple of the u_a."""
    box = s.box
    if len(m) != box.arity or any(u.box != box for u in m):
        raise SeriesError("map arity/box does not match the series")
    sp = [s.packed]
    tables = _power_tables([u.packed for u in m], sp, box)
    return MultiSeries(box, _subst_dict(sp, tables, box)[0])


def invert_diagonal_unit(m):
    """Inverse of x_a -> x_a*exp(u_a): the one pass with g = -u, rows the identity."""
    rows = [[int(a == b) for b in range(len(m))] for a in range(len(m))]
    return pull_back([scale(u, -1) for u in m], rows)[1]


def pass_slices(call, monkeypatch):
    """(series, degree, held) of every slice that `series._slice` builds
    during call(), in order: a series is its list of slices, a slice is
    appended at index degree, and held is the OR of its packed keys, so a
    variable's field in it is nonzero just when the slice has that variable."""
    build, built = series._slice, []

    def counted(out, *args):
        build(out, *args)
        built.append((id(out), len(out) - 1, reduce(or_, out[-1][1], 0)))

    monkeypatch.setattr(series, "_slice", counted)
    call()
    return built


def pass_products(call, monkeypatch):
    """(formed, kept): the number of term products that `series._sum` forms
    during call(), len(s) * len(t) for each (k, s, t) it sums with k
    nonzero, and how many of them the box keeps, their exponents in it."""
    kernel, counts = series._sum, [0, 0]

    def counted(pairs, lay, *args):
        pairs, (_, _, bias, guard, _, _) = list(pairs), lay
        for k, s, t in pairs:
            if k:
                counts[0] += len(s[1]) * len(t[1])
                counts[1] += sum(not p + q + bias & guard for p in s[1] for q in t[1])
        return kernel(pairs, lay, *args)

    monkeypatch.setattr(series, "_sum", counted)
    call()
    return tuple(counts)


def g0_series(lattice: CurveLattice, i: int, box: TruncationBox) -> MultiSeries:
    """The correction series of ray i."""
    return compute_g0_family(lattice, box)[i]


def terms(s):
    """The (exponent, reduced Fraction) pairs of a MultiSeries, in graded-lex
    order."""
    return tuple((e, Fraction(n, d)) for e, n, d in s.coefficients())


def to_dict(s):
    """The exponent -> Fraction dict of a MultiSeries."""
    return dict(terms(s))


def class_keyed(analysis):
    """Every nonzero in-box disk count of each 1 + delta_i, the constant 1
    too, keyed by (ray index, curve class): the class that
    `CurveLattice.class_from_coordinates` reads off the exponent, so the
    keys name no basis."""
    lattice = analysis.lattice
    return {(d.ray_index, lattice.class_from_coordinates(e)): Fraction(n, den)
            for d in analysis.deltas for e, n, den in d.one_plus.coefficients()}


def falling(n, r):
    """The falling factorial n (n - 1) ... (n - r + 1)."""
    return prod(n - k for k in range(r))


def gkz_violations(analysis):
    """The (basis index c, variable a, exponent e) at which the forward map
    breaks the GKZ recurrence of the toric I-function (Givental,
    alg-geom/9701016).

    tau_a = log x_a + forward_a is the p_a part of the I-function at order
    1/z.  For a basis class beta = b_c with c1(beta) = 0 it satisfies
    P_+(theta) tau_a = x^beta P_-(theta) tau_a, where
    P_+- = prod over +-beta_i > 0 of falling(theta_{D_i}, |beta_i|) and
    theta_{D_i} x^e = kappa(e)_i x^e, kappa(e)_i = sum_b pairing(i, b) e_b.
    On log x_a only the linear part of P_+- acts, theta_{D_i} log x_a =
    pairing(i, a), and it is nonzero only when a single ray has an entry of
    that sign.  So at each exponent e of the box the coefficient of x^e is
    checked on both sides; the right side's comes from e - u_c, and is 0
    when e_c = 0.  Only e in forward's support, its shifts by u_c, 0 and u_c
    can have a nonzero side.
    """
    lattice, box = analysis.lattice, analysis.box
    rows = [lattice.pairing_row(i) for i in range(lattice.fan.num_rays)]
    zero = (0,) * lattice.rank
    out = []
    for c, beta in enumerate(lattice.basis):
        if sum(beta):
            continue

        def shift(e, k):
            return e[:c] + (e[c] + k,) + e[c + 1:]

        u = shift(zero, 1)

        def side(sign, e):
            return prod(falling(sum(map(mul, rows[i], e)), sign * x)
                        for i, x in enumerate(beta) if sign * x > 0)

        def log_term(sign, a):
            # d/dt falling(t, r) at t = 0 is (-1)(-2)..(1 - r) = falling(-1, r - 1)
            (r, i), *more = [(sign * x, i) for i, x in enumerate(beta) if sign * x > 0]
            return 0 if more else falling(-1, r - 1) * rows[i][a]

        for a, s in enumerate(analysis.mirror.forward):
            f = {e: Fraction(n, d) for e, n, d in s.coefficients()}
            for e in sorted({zero, u, *f, *(shift(e, 1) for e in f)}):
                if not box.contains(e):
                    continue
                prev = shift(e, -1)
                lhs = side(1, e) * f.get(e, 0) + (e == zero) * log_term(1, a)
                rhs = side(-1, prev) * f.get(prev, 0) + (e == u) * log_term(-1, a)
                if lhs != rhs:
                    out.append((c, a, e))
    return out


# unimodular maps of Z^2 and Z^3, as row-major matrices acting on column vectors
GL2 = (((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((1, 0), (3, 1)))
GL3 = (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
       ((1, 0, 0), (0, 0, 1), (0, 1, 0)), ((1, 0, 2), (0, 1, -1), (0, 0, 1)))


def variants(fan, maps):
    """(pi, image) for each unimodular map g in maps and each re-indexing
    k -> sign * k + s mod m, sign +-1 and s in {1, 3}: ray k of fan is ray
    pi[k] of image, with vector g v_k."""
    m = fan.num_rays
    for g, sign, s in product(maps, (1, -1), (1, 3)):
        pi = [(sign * k + s) % m for k in range(m)]
        rays = [None] * m
        for k, v in enumerate(fan.rays):
            rays[pi[k]] = tuple(sum(a * x for a, x in zip(row, v)) for row in g)
        yield pi, Fan(fan.dimension, rays, [[pi[k] for k in c] for c in fan.max_cones])


def add(s, t):
    return combine(s.box, [(1, s), (1, t)])


def is_identity(m):
    """Whether the coordinate change m is x_a -> x_a, every u_a zero."""
    return all(u.is_zero() for u in m)


def scale(s, k):
    """The MultiSeries k * s, for a rational k."""
    k = Fraction(k)
    den, d = s.packed
    return MultiSeries(s.box, _lowest(
        den * k.denominator, {p: n * k.numerator for p, n in d.items()}))


def compose(outer, inner):
    """Map sending x_a to x_a*exp(u_a) followed by x_a to x_a*exp(w_a)."""
    return tuple(add(substitute(u, inner), w) for u, w in zip(outer, inner))


def oracle_invert_full_box(m):
    """Inverse of x_a -> x_a*exp(u_a) by whole-box fixed-point iteration.

    Iterates w_a <- -u_a(x*exp(w)) from w = 0 with every round over the
    whole box.  Every u_a has zero constant term, so if two w agree up to
    total degree k their images agree up to degree k+1: round k fixes w up
    to degree k, and the first round that leaves w unchanged has found the
    unique inverse.  That takes at most sum(caps) + 1 rounds.
    """
    box = m[0].box
    top = box.degree
    minus_u = [scale(u, -1).packed for u in m]
    w = [(1, {}) for _ in minus_u]
    for _ in range(top + 1):
        w2 = _subst_dict(minus_u, _power_tables(w, minus_u, box), box)
        if w2 == w:
            break
        w = w2
    return tuple(MultiSeries(box, c) for c in w)


def naive_mul(s, t, caps):
    r = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(x <= c for x, c in zip(e, caps)):
                r[e] = r.get(e, 0) + c1 * c2
    return r


def power_sum(s, coeff, caps):
    """sum over k >= 1 of coeff(k) * s^k, from s^k = s^(k-1) * s."""
    r = {}
    p = {(0,) * len(caps): Fraction(1)}
    for k in range(1, sum(caps) + 1):
        p = naive_mul(p, s, caps)
        for e, c in p.items():
            r[e] = r.get(e, 0) + coeff(k) * c
    return {e: c for e, c in r.items() if c}


def oracle_exp(s):
    """exp(s) of a series with zero constant term, as a sum of powers."""
    d = power_sum(to_dict(s), lambda k: Fraction(1, factorial(k)), s.box.caps)
    d[(0,) * s.box.arity] = Fraction(1)
    return MultiSeries.from_dict(s.box, d)


def oracle_log(s):
    """log(s) of a series with constant term one, as a sum of powers."""
    u = to_dict(s)
    del u[(0,) * s.box.arity]
    d = power_sum(u, lambda k: Fraction((-1) ** (k + 1), k), s.box.caps)
    return MultiSeries.from_dict(s.box, d)


def left_kernel_basis(V):
    """Z-basis of the left kernel {d : d @ V = 0} of an integer matrix V.

    Row-reduces the augmented matrix [V | I] with unimodular integer row
    operations (a Hermite-style sweep); rows whose V-part vanishes give the
    kernel lattice exactly since the transform is invertible over Z.
    """
    m = len(V)
    n = len(V[0]) if m else 0
    aug = [list(V[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        # euclidean elimination in this column below `row`
        while True:
            pivots = [i for i in range(row, m) if aug[i][col] != 0]
            if not pivots:
                break
            piv = min(pivots, key=lambda i: abs(aug[i][col]))
            aug[row], aug[piv] = aug[piv], aug[row]
            done = True
            for i in range(row + 1, m):
                if aug[i][col] != 0:
                    q = aug[i][col] // aug[row][col]
                    aug[i] = [a - q * b for a, b in zip(aug[i], aug[row])]
                    if aug[i][col] != 0:
                        done = False
            if done:
                row += 1
                break
    return [r[n:] for r in aug[row:]]


def solve_rational(A, b):
    """Solve A x = b over Q; returns list of Fractions or None if inconsistent.

    A may be rectangular; when the system is underdetermined the particular
    solution with free variables set to 0 is returned.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    M = [[Fraction(A[i][j]) for j in range(m)] + [Fraction(b[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [v - f * w for v, w in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if M[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = M[i][m]
    return x


def rational_rank(A):
    n = len(A)
    if n == 0:
        return 0
    m = len(A[0])
    M = [[Fraction(v) for v in row] for row in A]
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, n):
            if M[i][c] != 0:
                f = M[i][c] / M[r][c]
                M[i] = [v - f * w for v, w in zip(M[i], M[r])]
        r += 1
    return r


def integer_det(M):
    """Determinant of a square integer matrix by Bareiss elimination: each
    step's entries are minors of M, so every division is exact."""
    M = [list(row) for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv], sign = M[piv], M[k], -sign
        for i in range(k + 1, n):
            M[i] = [(M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev if j > k else 0
                    for j in range(n)]
        prev = M[k][k]
    return sign * prev


def lattice_membership(basis, vec):
    """Integer coordinates of `vec` in the lattice spanned by `basis` rows, or None."""
    if not basis:
        return [] if all(v == 0 for v in vec) else None
    cols = len(basis[0])
    A = [[basis[a][j] for a in range(len(basis))] for j in range(cols)]
    x = solve_rational(A, list(vec))
    if x is None:
        return None
    if any(c.denominator != 1 for c in x):
        return None
    # verify (solve_rational zero-fills free vars; basis has full rank in use)
    for j in range(cols):
        if sum(int(x[a]) * basis[a][j] for a in range(len(basis))) != vec[j]:
            return None
    return [int(c) for c in x]

"""Exact truncated multivariate formal power series.

A MultiSeries is a sparse exact series confined to a per-variable truncation
box.  All arithmetic is exact; products silently drop monomials that leave
the box, which is the quotient-ring semantics the rest of the package relies
on.  Every operation here only ever adds nonnegative vectors to exponents, so
coefficients at in-box exponents agree with the untruncated computation.

A series is stored in one form, the packed series (D, {packed exponent:
integer numerator over D}): each exponent vector packs into one int by the
box's layout, a field a variable and a top field for the total degree,
and the pair is kept in lowest terms, so it is canonical.  The kernels work
on that form directly: _pmul multiplies, _pexp solves exp and log by one
graded recurrence, and pull_back solves for the inverse of a coordinate
change x_a -> x_a * exp(u_a) together with series evaluated along it, one
total degree at a time, each series kept as a list of degree slices that
_slice builds.  Fractions appear only where values enter (MultiSeries.from_dict)
or leave (terms, coefficient, constant_term).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, gcd, lcm, perm


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class TruncationBox:
    caps: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(self.caps)
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in caps):
            raise SeriesError("truncation caps must be integers")
        if any(c < 0 for c in caps):
            raise SeriesError("truncation caps must be nonnegative")
        object.__setattr__(self, "caps", caps)

    @property
    def arity(self):
        return len(self.caps)

    def contains(self, exp):
        return len(exp) == len(self.caps) and all(
            0 <= e <= c for e, c in zip(exp, self.caps)
        )

    @property
    def degree(self):
        """The largest total degree in the box, sum(caps)."""
        return sum(self.caps)

    @cached_property
    def layout(self):
        """(w, shifts, bias, guard, mask, dk): an exponent vector e packs into
        one int, w bits a variable at shifts and its total degree sum(e) in
        the top field at dk; mask selects one variable field.  A field of
        width b and cap c (cap_a, or degree for the top field) holds
        2^(b-1) - 1 - c in bias, so adding bias to the sum of two in-box keys
        sets a field's top (guard) bit exactly when the sum passes its cap:
        one add and one mask a pair.  Built once per box object."""
        caps, top = self.caps, self.degree
        w = (2 * max(caps, default=0) + 1).bit_length() + 1
        dk = w * len(caps)
        fields = [(c, k, w) for c, k in zip(caps, range(0, dk, w))]
        fields.append((top, dk, (2 * top + 1).bit_length() + 1))
        bias = sum(((1 << (b - 1)) - 1 - c) << k for c, k, b in fields)
        guard = sum(1 << (k + b - 1) for _, k, b in fields)
        return w, range(0, dk, w), bias, guard, (1 << w) - 1, dk

    @cached_property
    def table_rows(self):
        """Every exponent vector of the box in graded-lex order, mapped to its
        tab-terminated table text; built once per box object."""
        fmt = "%d\t" * len(self.caps)
        # product runs in lex order, so a stable sort by degree is graded lex
        return {e: fmt % e for e in
                sorted(product(*[range(c + 1) for c in self.caps]), key=sum)}


# ---------------------------------------------------------------------------
# packed kernels


def _key(e, lay):
    """The packed exponent of exponent vector e: its fields and its degree."""
    return sum(x << k for x, k in zip(e, lay[1])) + (sum(e) << lay[5])


def _pack(d, lay):
    """The packed series (D, {packed exponent: integer numerator over D}) of
    an exponent -> reduced Fraction dict.  Packed series are kept in lowest
    terms (no zero numerator, gcd(D, numerators) = 1), so they are canonical."""
    den = lcm(*(c.denominator for c in d.values()))
    return den, {_key(e, lay): c.numerator * (den // c.denominator)
                 for e, c in d.items()}


def _unpack(s, lay):
    return {tuple(p >> k & lay[4] for k in lay[1]): Fraction(n, s[0])
            for p, n in s[1].items()}


def _lowest(den, r, offset=0):
    """(den, r) in lowest terms, zeros dropped and offset taken off the keys."""
    g = gcd(den, *r.values())
    return den // g, {p - offset: n // g for p, n in r.items() if n}


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


def _pexp(s, box, d, log=False):
    """exp(s), or log(1 + s) when log is set, of packed s with no constant
    term, through total degree d.

    Solved by total degree from the parts s_k of degree k, read off the top
    field (Knuth, TAOCP 2, 4.7): exp is E_0 = 1, n E_n = sum_k k s_k E_{n-k},
    and log is L_0 = 0, n L_n = n s_n - sum_{k<n} (n-k) s_k L_{n-k}.  Degree
    n is kept as the integers F_n = D^n n! X_n, D the denominator of s:
    F_0 = 1, F_n = sum_k c_k D^(k-1) (n-1)!/(n-k)! (D s_k) F_{n-k}, with
    c_k = k for exp; log has c_k = k - n for k < n and c_n = n, and drops
    F_0.  X_n is F_n D^(d-n) d!/n! over D^d d!.  Every product has degree
    n <= d, so the box's own bias serves for any d.
    """
    _, _, bias, guard, _, dk = box.layout
    den, sd = s
    parts = [[] for _ in range(d + 1)]
    for p, c in sd.items():
        if p >> dk <= d:
            parts[p >> dk].append((p + bias, c))
    f = [{0: 1}]
    for n in range(1, d + 1):
        r = {}
        for k in range(1, n + 1):
            if not parts[k]:
                continue
            c = (k - n if log and k < n else k) * den ** (k - 1) * perm(n - 1, k - 1)
            for p1, n1 in parts[k]:
                n1 *= c
                for p2, n2 in f[n - k].items():
                    p = p1 + p2
                    if not p & guard:
                        r[p] = r.get(p, 0) + n1 * n2
        f.append({p - bias: m for p, m in r.items() if m})
    scale = [den ** (d - n) * perm(d, d - n) for n in range(d + 1)]
    out = {p: m * scale[n] for n in range(1 if log else 0, d + 1)
           for p, m in f[n].items()}
    return _lowest(den ** d * factorial(d), out)


_ZERO = (1, {})


def _slice(out, pairs, lay, den=1):
    """Append (1/den) sum k*s*t over the (k, s, t) in pairs, in lowest terms,
    to out: a series kept as its list of packed degree slices, so the slice
    appended has degree len(out).  Products that leave the box are dropped
    by the guard bits, as in _pmul.  Zero slices all share one _ZERO."""
    _, _, bias, guard, _, _ = lay
    pairs = [(k, s, t) for k, s, t in pairs if s[1] and t[1]]
    # a list, not a generator: lcm(*generator) grows its argument tuple by
    # resizing, and the resized tuples pile up in the interpreter's free lists
    scale = lcm(*[s[0] * t[0] for _, s, t in pairs])
    r = {}
    for k, (ds, s), (dt, t) in pairs:
        if len(s) > len(t):
            s, t = t, s
        k *= scale // (ds * dt)
        for p1, n1 in s.items():
            p1 += bias
            n1 *= k
            for p2, n2 in t.items():
                p = p1 + p2
                if not p & guard:
                    r[p] = r.get(p, 0) + n1 * n2
    s = _lowest(den * scale, r, bias)
    out.append(s if s[1] else _ZERO)


# ---------------------------------------------------------------------------
# public immutable wrappers


@dataclass(frozen=True)
class MultiSeries:
    """Sparse exact series: the packed series (D, {packed exponent: numerator})
    in lowest terms.  Immutable, compared and hashed by that canonical form."""

    box: TruncationBox
    packed: tuple[int, dict[int, int]]

    def __hash__(self):
        return hash((self.box, self.packed[0], frozenset(self.packed[1].items())))

    @staticmethod
    def from_dict(box, coeffs):
        d = {}
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            c = Fraction(c)
            if c == 0:
                continue
            if not box.contains(exp):
                raise SeriesError(f"exponent {exp} outside box {box.caps}")
            d[exp] = c
        return MultiSeries(box, _pack(d, box.layout))

    @staticmethod
    def zero(box):
        return MultiSeries(box, (1, {}))

    @staticmethod
    def one(box):
        return MultiSeries(box, (1, {0: 1}))

    @cached_property
    def terms(self):
        """(exponent, reduced Fraction) pairs in graded-lex order."""
        d = _unpack(self.packed, self.box.layout)
        return tuple(sorted(d.items(), key=lambda t: (sum(t[0]), t[0])))

    def coefficient(self, exp):
        exp = tuple(exp)
        if not self.box.contains(exp):
            return Fraction(0)
        return Fraction(self.packed[1].get(_key(exp, self.box.layout), 0),
                        self.packed[0])

    @property
    def constant_term(self):
        return Fraction(self.packed[1].get(0, 0), self.packed[0])

    def is_zero(self):
        return not self.packed[1]

    def __neg__(self):
        den, d = self.packed
        return MultiSeries(self.box, (den, {p: -n for p, n in d.items()}))


def _require_same_box(box, series):
    if any(s.box != box for s in series):
        raise SeriesError("series live in different truncation boxes")


def combine(box: TruncationBox, pairs) -> MultiSeries:
    """sum k * s over (k, s) pairs with integer k, over one common denominator."""
    pairs = list(pairs)
    _require_same_box(box, [s for _, s in pairs])
    pairs = [(k, s.packed) for k, s in pairs if k]
    den = lcm(*(d for _, (d, _) in pairs))
    r = {}
    for k, (d, num) in pairs:
        k *= den // d
        for p, n in num.items():
            r[p] = r.get(p, 0) + k * n
    return MultiSeries(box, _lowest(den, r))


def add(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    return combine(s.box, [(1, s), (1, t)])


def sub(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    return combine(s.box, [(1, s), (-1, t)])


def mul(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    _require_same_box(s.box, [t])
    lay = s.box.layout
    return MultiSeries(s.box, _pmul(s.packed, t.packed, lay[2], lay[3]))


def exp_series(s: MultiSeries) -> MultiSeries:
    if s.constant_term != 0:
        raise SeriesError("exp_series needs zero constant term")
    return MultiSeries(s.box, _pexp(s.packed, s.box, s.box.degree))


def log_series(s: MultiSeries) -> MultiSeries:
    if s.constant_term != 1:
        raise SeriesError("log_series needs constant term one")
    den, d = s.packed
    u = (den, {p: n for p, n in d.items() if p})
    return MultiSeries(s.box, _pexp(u, s.box, s.box.degree, log=True))


@dataclass(frozen=True)
class DiagonalUnitMap:
    """The substitution x_a -> x_a * exp(u_a(x)); each u_a has zero constant term."""

    components: tuple[MultiSeries, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if comps:
            box = comps[0].box
            if len(comps) != box.arity:
                raise SeriesError("component count must equal the variable count")
            for u in comps:
                if u.box != box:
                    raise SeriesError("components live in different boxes")
                if u.constant_term != 0:
                    raise SeriesError("components must have zero constant term")
        object.__setattr__(self, "components", comps)

    @property
    def box(self):
        return self.components[0].box

    @property
    def arity(self):
        return len(self.components)


def pull_back(gs, rows):
    """Each g_i at x_a := x_a*exp(w_a), where x_a -> x_a*exp(w_a) inverts
    x_a -> x_a*exp(-sum_i rows[i][a]*g_i), and that inverse, in one pass
    over total degree.

    The inverse is the fixed point w_a = sum_i rows[i][a]*G_i, where G_i =
    g_i(x*exp(w)) is the pulled-back series, so the pass solves for the
    nonzero G_i and reads w off them with one combine.  Every series the
    substitution builds is kept as its list of degree slices: y_a =
    x_a*exp(w_a), by (n-1) y_n = sum_(i,k) rows[i][a]*k G_(i,k) y_(n-k) from
    y_1 = x_a; its powers y_a^k, for k up to the largest exponent of x_a in
    the g_i, so the factor x_a^k trims exp(w_a)^k to what such a monomial
    can use; the image of each monomial of the g_i, from the image of its
    prefix (e_1, .., e_(a-1), 0, .., 0) and built once for every term that
    contains it; and the G_i.  Every term of a g_i has total degree at least
    1, so the degree-n slice of an image, and so G_i's, needs the G_j only
    through degree n - 1.  Degree by degree, each slice is one _slice of
    lower ones: built once, and exact.  Returns (the G_i, the inverse).
    """
    box = gs[0].box
    _require_same_box(box, gs)
    if any(g.constant_term for g in gs):
        raise SeriesError("pulled-back series need zero constant term")
    if len(rows) != len(gs) or any(len(row) != box.arity for row in rows):
        raise SeriesError("need one row of pairings per series and variable")
    lay, top = box.layout, box.degree
    w_bits, shifts, _, _, mask, dk = lay
    one = (1, {0: 1})
    live = [i for i, g in enumerate(gs) if not g.is_zero()]
    slices = {i: [_ZERO] for i in live}
    # powers[a][k] = y_a^k for each x_a that some g_i contains; the k-th
    # starts with its k zero slices, and y_a with y_1 = x_a
    powers = {}
    for a, k in enumerate(shifts):
        depth = max((p >> k & mask for i in live for p in gs[i].packed[1]),
                    default=0)
        if depth:
            powers[a] = [[one], [_ZERO, (1, {1 << k | 1 << dk: 1})]] + [
                [_ZERO] * j for j in range(2, depth + 1)]
    # the series that feed w_a, with their pairings
    feeds = {a: [(rows[i][a], slices[i]) for i in live if rows[i][a]]
             for a in powers}
    # the image of each prefix of a monomial of the g_i; those past x_a^e
    # alone are (its slices, the parent's slices, the power it multiplies
    # in, that power's exponent) in steps
    images, steps, comps = {0: [one]}, [], []
    for i in live:
        den, s = gs[i].packed
        terms = []
        for p, c in s.items():
            img, deg = images[0], 0
            for a, k in enumerate(shifts):
                e = p >> k & mask
                if e:
                    pre, deg = p & ((1 << k + w_bits) - 1), deg + e
                    if pre not in images:
                        if img is images[0]:
                            images[pre] = powers[a][e]
                        else:
                            images[pre] = [_ZERO] * deg
                            steps.append((images[pre], img, powers[a][e], e))
                    img = images[pre]
            terms.append((c, img))
        comps.append((slices[i], den, terms))
    for n in range(1, top + 1):
        for a, pw in powers.items():
            y = pw[1]
            if n > 1:
                _slice(y, [(r * k, g[k], y[n - k]) for k in range(1, n)
                           for r, g in feeds[a]], lay, n - 1)
            for k in range(2, min(len(pw) - 1, n) + 1):
                _slice(pw[k], [(1, y[j], pw[k - 1][n - j])
                               for j in range(1, n - k + 2)], lay)
        for img, parent, pk, e in steps:
            if len(img) == n:
                _slice(img, [(1, parent[j], pk[n - j]) for j in range(n - e + 1)], lay)
        for g, den, terms in comps:
            _slice(g, [(c, one, img[n]) for c, img in terms], lay, den)
    pulled = list(gs)
    for i, g in slices.items():
        den = lcm(*[d for d, _ in g])
        # slices have disjoint keys and lowest terms, so their sum has too
        pulled[i] = MultiSeries(box, (den, {p: c * (den // d) for d, s in g
                                            for p, c in s.items()}))
    inverse = DiagonalUnitMap(tuple(
        combine(box, [(row[a], g) for row, g in zip(rows, pulled)])
        for a in range(box.arity)))
    return tuple(pulled), inverse


def _monomial(names, exponents):
    """`name^e` factors joined by `*`, without `^1`; "" for the unit monomial."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponents) if e)


def render(s: MultiSeries) -> str:
    """Canonical text form: graded-lex monomials in q1..ql, reduced fractions."""
    if s.is_zero():
        return "0"
    names = [f"q{a + 1}" for a in range(s.box.arity)]
    pieces = []
    for e, c in s.terms:
        mono = _monomial(names, e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)

"""Exact truncated multivariate formal power series.

A MultiSeries is a sparse exact series confined to a per-variable truncation
box.  All arithmetic is exact; products silently drop monomials that leave
the box, which is the quotient-ring semantics the rest of the package relies
on.  Every operation here only ever adds nonnegative vectors to exponents, so
coefficients at in-box exponents agree with the untruncated computation.

A series is stored in one form, the packed series (D, {packed exponent:
integer numerator over D}): each exponent vector packs into one int, the sum
of its variables' unit keys in the box's layout, a field a variable and a
top field for the total degree, and the pair is kept in lowest terms, so it
is canonical.  No other module reads or writes a packed key: values enter as
integer numerators over one denominator, keyed by exponent tuples
(MultiSeries.from_numerators; from_dict reduces Fractions to it).  Every
operation works on that form through one kernel, _sum, a guarded sum of
products of packed series: combine and mul call it once, and exp and
pull_back solve their recurrences one total degree at a time, each series
kept as a list of degree slices that _slice builds from lower ones only
through its reach, the sum of its variables' caps, past which it has no
in-box term.  exp of a series is the product of the exps of its blocks of
disjoint variables, and a box runs each distinct block once, keeping packed
forms.  pull_back solves for the inverse of a coordinate change x_a -> x_a *
exp(u_a) together with series evaluated along it, one product a prefix
group of their terms; both are plain tuples of series.  A series is read
through one view, MultiSeries.coefficients: its reduced integer (exponent,
numerator, denominator) triples in graded-lex order.  Fractions appear only
in from_dict and constant_term.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import mul as _times, or_


class SeriesError(ValueError):
    pass


class TruncationBox(namedtuple("TruncationBox", "caps")):
    """Caps on each variable's exponent, a tuple of nonnegative ints.  What
    depends only on them is built once per box object: layout, table_rows
    and the exps memo."""

    def __new__(cls, caps):
        caps = tuple(caps)
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in caps):
            raise SeriesError("truncation caps must be integers")
        if any(c < 0 for c in caps):
            raise SeriesError("truncation caps must be nonnegative")
        return super().__new__(cls, caps)

    @classmethod
    def _make(cls, iterable):
        """Through `__new__`, so `_replace` refuses what the constructor does."""
        return cls(*iterable)

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
        """(units, shifts, bias, guard, mask, dk): e packs into one int,
        sum(e_a * units[a]), w bits a variable at shifts and the degree
        sum(e) in the top field at dk, so a unit key is a 1 in its variable's
        field plus a 1 in the degree field; mask selects one variable field.
        A variable field of cap c holds 2^(w-1) - 1 - c in bias, so adding
        bias to the sum of two in-box keys sets a field's top (guard) bit
        exactly when the sum passes its cap: one add and one mask a pair.
        The variable fields bound the degree by sum(caps), so the top field
        needs neither.  Built once per box object."""
        caps = self.caps
        w = (2 * max(caps, default=0) + 1).bit_length() + 1
        shifts, dk = range(0, w * len(caps), w), w * len(caps)
        bias = sum(((1 << (w - 1)) - 1 - c) << k for c, k in zip(caps, shifts))
        guard = sum(1 << (k + w - 1) for k in shifts)
        return tuple([1 << k | 1 << dk for k in shifts]), shifts, bias, guard, (1 << w) - 1, dk

    @cached_property
    def table_rows(self):
        """(counts, rows): the all-zero table's rows `e_1<TAB>..e_l<TAB>0` in
        graded-lex order, built with no sort from the texts of the suffixes
        (e_a, .., e_l) of each total r, in lex order, and counts[a][r], the
        number of those suffixes (counts[0][d] of rows of degree d).  Built
        once per box object."""
        top = self.degree
        suffixes, counts = [["0"]] + [[] for _ in range(top)], [[1] + [0] * top]
        for c in reversed(self.caps):
            heads = ["%d\t" % x for x in range(c + 1)]
            suffixes = [[h + t for x, h in enumerate(heads[:r + 1]) for t in suffixes[r - x]]
                        for r in range(top + 1)]
            counts.append([len(s) for s in suffixes])
        return counts[::-1], [t for s in suffixes for t in s]

    @cached_property
    def exps(self):
        """The packed exp of each block exp_series has met, keyed by the
        block (D, frozenset of terms); a MultiSeries value would hold the box
        in a reference cycle."""
        return {}

    def table_line(self, exp):
        """The line of in-box exp under its table's header: 1 plus the number
        of rows of lower degree, plus, for each a, of those of exp's degree
        that agree with exp before a and are smaller at a."""
        counts, _ = self.table_rows
        r = sum(exp)
        line = 1 + sum(counts[0][:r])
        for x, count in zip(exp, counts[1:]):
            line += sum(count[r - x + 1:r + 1])
            r -= x
        return line


# ---------------------------------------------------------------------------
# packed kernels


def _lowest(den, r, offset=0):
    """(den, r) in lowest terms, zeros dropped and offset taken off the keys."""
    g = gcd(den, *r.values())
    return den // g, {p - offset: n // g for p, n in r.items() if n}


_ZERO, _ONE = (1, {}), (1, {0: 1})


def _sum(pairs, lay, den=1):
    """(1/den) sum k*s*t over the (k, s, t) in pairs, packed series, in
    lowest terms.  The outer factor carries the bias, so a product is in the
    box exactly when its sum has no guard bit set; the rest are dropped."""
    _, _, bias, guard, _, _ = lay
    pairs = [(k, s, t) for k, s, t in pairs if k and s[1] and t[1]]
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
    return _lowest(den * scale, r, bias)


def _slice(out, pairs, lay, den=1):
    """Append _sum(pairs, lay, den) to out: a series kept as its list of
    packed degree slices, so the slice appended has degree len(out).  Zero
    slices all share one _ZERO."""
    s = _sum(pairs, lay, den)
    out.append(s if s[1] else _ZERO)


def _join(slices):
    """The packed series whose degree slices these are: slices have disjoint
    keys and lowest terms, so their sum over the lcm of their denominators
    has too."""
    den = lcm(*[d for d, _ in slices])
    return den, {p: c * (den // d) for d, s in slices for p, c in s.items()}


def _reach(support, box):
    """The sum of the caps of the variables whose fields support marks."""
    _, shifts, _, _, mask, _ = box.layout
    return sum(c for c, k in zip(box.caps, shifts) if support >> k & mask)


def _exp(s, box):
    """exp(s) of packed s with no constant term, through the reach of the
    variables of s, past which exp(s) has no in-box term.

    Solved as a list of degree slices from the nonzero parts s_k of degree
    k, read off the top field (Knuth, TAOCP 2, 4.7): E_0 = 1 and
    n E_n = sum_k k s_k E_(n-k).
    """
    lay, parts = box.layout, {}
    for p, c in s[1].items():
        parts.setdefault(p >> lay[5], {})[p] = c
    parts = [(k, _lowest(s[0], part)) for k, part in sorted(parts.items())]
    out = [_ONE]
    for n in range(1, _reach(reduce(or_, s[1], 0), box) + 1):
        _slice(out, [(k, part, out[n - k]) for k, part in parts if k <= n], lay, n)
    return _join(out)


# ---------------------------------------------------------------------------
# public immutable wrappers


class MultiSeries(namedtuple("MultiSeries", "box packed")):
    """Sparse exact series in a TruncationBox: the packed series (D, {packed
    exponent: numerator}) in lowest terms.  Immutable, compared by that
    canonical form; unhashable, as the form holds a dict."""

    __slots__ = ()

    @staticmethod
    def from_numerators(box, den, nums):
        """sum nums[e] x^e / den, nums mapping in-box exponent tuples to
        integer numerators, in lowest terms, keys in the order of nums."""
        units = box.layout[0]
        return MultiSeries(box, _lowest(den, {sum(map(_times, e, units)): n
                                              for e, n in nums.items()}))

    @staticmethod
    def from_dict(box, coeffs):
        """The series of an exponent -> rational dict, checked against the box."""
        d = {}
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            c = Fraction(c)
            if c == 0:
                continue
            if not box.contains(exp):
                raise SeriesError(f"exponent {exp} outside box {box.caps}")
            d[exp] = c
        den = lcm(*[c.denominator for c in d.values()])
        return MultiSeries.from_numerators(
            box, den, {e: c.numerator * (den // c.denominator) for e, c in d.items()})

    @staticmethod
    def zero(box):
        return MultiSeries(box, _ZERO)

    @staticmethod
    def one(box):
        return MultiSeries(box, _ONE)

    def coefficients(self):
        """Each term as (exponent, numerator, denominator), in lowest terms,
        in graded-lex order, each key decoded once: the one read view."""
        d, (_, shifts, _, _, mask, dk) = self.packed[0], self.box.layout
        terms = sorted([(p >> dk, tuple([p >> k & mask for k in shifts]), n)
                        for p, n in self.packed[1].items()])
        return [(e, n // g, d // g) for _, e, n in terms for g in [gcd(n, d)]]

    @property
    def constant_term(self):
        return Fraction(self.packed[1].get(0, 0), self.packed[0])

    def is_zero(self):
        return not self.packed[1]


def _require_same_box(box, series):
    if any(s.box != box for s in series):
        raise SeriesError("series live in different truncation boxes")


def combine(box: TruncationBox, pairs) -> MultiSeries:
    """sum k * s over (k, s) pairs with integer k, over one common denominator."""
    pairs = list(pairs)
    _require_same_box(box, [s for _, s in pairs])
    return MultiSeries(box, _sum([(k, s.packed, _ONE) for k, s in pairs],
                                 box.layout))


def sub(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    return combine(s.box, [(1, s), (-1, t)])


def mul(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    _require_same_box(s.box, [t])
    return MultiSeries(s.box, _sum([(1, s.packed, t.packed)], s.box.layout))


def _blocks(s, lay):
    """The parts of packed s, in lowest terms, over the connected blocks of
    variables its terms share; the zero series is its own one block.  fill
    holds 2^(w-1) - 1 in each variable field, so adding it to a key's fields
    sets a field's guard bit exactly when the field is nonzero, with no
    carry into the degree field: one add and one mask a term."""
    _, shifts, _, guard, _, _ = lay
    fill, parts, blocks = guard - sum(1 << k for k in shifts), {}, {}
    for p, c in s[1].items():
        parts.setdefault((p + fill) & guard, {})[p] = c
    for m, terms in parts.items():
        for b in [b for b in blocks if b & m]:
            m |= b
            terms.update(blocks.pop(b))
        blocks[m] = terms
    return [_lowest(s[0], terms) for terms in blocks.values()] or [s]


def exp_series(s: MultiSeries) -> MultiSeries:
    """exp(s), s with no constant term: the product of the exps of its
    blocks of disjoint variables, each run once in s.box and kept.  The
    blocks share no variable, so no product leaves the box."""
    if 0 in s.packed[1]:
        raise SeriesError("exp_series needs zero constant term")
    box, out = s.box, []
    for d, t in _blocks(s.packed, box.layout):
        k = d, frozenset(t.items())
        if k not in box.exps:
            box.exps[k] = _exp((d, t), box)
        out.append(box.exps[k])
    return MultiSeries(box, reduce(lambda e, f: _sum([(1, e, f)], box.layout), out))


def pull_back(gs, rows):
    """Each g_i at x_a := x_a*exp(w_a), where x_a -> x_a*exp(w_a) inverts
    x_a -> x_a*exp(-sum_i rows[i][a]*g_i), and that inverse, in one pass
    over total degree.

    The inverse is the fixed point w_a = sum_i rows[i][a]*G_i, where G_i =
    g_i(x*exp(w)) is the pulled-back series, so the pass solves for the
    nonzero G_i and reads w off them.  A g_i is sum_p x^p h_p(x_l) over the
    prefixes p = q / x_l^e of its terms q, l the variable that leaves the
    fewest (the lowest on a tie), so G_i = sum_p image(p) h_p(y_l) takes one
    product a prefix (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).  Each
    series is kept as its list of degree slices: y_a = x_a*exp(w_a), by (n-1)
    y_n = sum_(i,k) rows[i][a]*k G_(i,k) y_(n-k) from y_1 = x_a, its unit key
    in the layout; the images, shared by all the g_i, of the prefixes and
    powers x_l^e, taken in key order, which is graded, each its parent's image
    times one y_a (a is the first variable of q whose q / x_a has an image,
    else the last); the h_p(y_l) of two or more powers; and the G_i, where a
    term of p = 0 or e = 0 enters as its own image.  Slice n of each needs the
    G_j only through degree n - 1, and is one _slice of lower ones: built
    once, exact, and only through its reach, fixed before the pass; past it,
    slices are _ZERO.  Returns (the G_i, the inverse); with no nonzero g_i, at
    once (gs, zeros), with no pass.
    """
    box = gs[0].box
    _require_same_box(box, gs)
    if any(0 in g.packed[1] for g in gs):
        raise SeriesError("pulled-back series need zero constant term")
    if len(rows) != len(gs) or any(len(row) != box.arity for row in rows):
        raise SeriesError("need one row of pairings per series and variable")
    live = [i for i, g in enumerate(gs) if g.packed[1]]
    if not live:
        return tuple(gs), (MultiSeries.zero(box),) * box.arity
    units, shifts, _, _, mask, dk = lay = box.layout
    slices = {i: [_ZERO] for i in live}
    held = {i: reduce(or_, gs[i].packed[1]) for i in live}
    # the unit key x[a] of each x_a some g_i has, and y_a, of slice 1 x_a
    x = {a: units[a] for h in [reduce(or_, held.values(), 0)]
         for a, k in enumerate(shifts) if h >> k & mask}
    ys = {a: [_ZERO, (1, {p: 1})] for a, p in x.items()}
    # the series that feed w_a, with their pairings
    feeds = {a: [(rows[i][a], slices[i]) for i in live if rows[i][a]] for a in ys}
    # supports, as ints marking variables' fields: y_a's is x_a's and the
    # feeding G_i's, a G_i's or an image's its y_a's; a fixpoint of one
    # round a variable, fixed before the pass, as a variable can enter a
    # series first at a high degree (through g_i = x_b^7, say)
    sup = {a: 1 << shifts[a] for a in ys}

    def spread(m):
        return reduce(or_, [s for a, s in sup.items() if m >> shifts[a] & mask], 0)

    fed = {a: reduce(or_, [held[i] for i in live if rows[i][a]], 0) for a in sup}
    for a in [*sup] * len(sup):
        sup[a] |= spread(fed[a])
    # (slices, reach) of every series built
    built = [(y, _reach(sup[a], box)) for a, y in ys.items()]
    # each g_i as (x[l], {p: [(e, numerator)]}), its terms read in key order
    groups = {}
    for i in live:
        terms = sorted(gs[i].packed[1].items())
        ls = [a for a in x if held[i] >> shifts[a] & mask]
        if ls[1:]:
            ls.sort(key=lambda a: len({q - (q >> shifts[a] & mask) * x[a] for q, _ in terms}))
        xl, group = x[ls[0]], {}
        groups[i] = xl, group
        for q, c in terms:
            group.setdefault(q - (e := q >> shifts[ls[0]] & mask) * xl, []).append((e, c))
    # every series past the y_a as (slices, den, pairs, prods): its slice n
    # is (1/den)(sum k s_n over pairs (k, s) + sum k a_j b_(n-j) over prods
    # (k, a, d, b, e) and d <= j <= n - e); an image's one prod is its
    # parent's image times one y_a
    images, sums = {p: ys[a] for a, p in x.items()}, []
    for q in sorted({m for xl, group in groups.values() for p, ts in group.items()
                     for m in [p] + [e * xl for e, _ in ts] if m}):
        # (monomial, a) from q down to the first parent with an image, built
        # back up: a recursive closure would hold the slices in a cycle
        chain = []
        while q not in images:
            factors = [a for a, k in enumerate(shifts) if q >> k & mask]
            a = next((a for a in factors if q - x[a] in images), factors[-1])
            chain.append((q, a))
            q -= x[a]
        for q, a in reversed(chain):
            images[q] = [_ZERO] * (q >> dk)
            sums.append((images[q], 1, [], [(1, images[q - x[a]], (q >> dk) - 1, ys[a], 1)]))
            built.append((images[q], _reach(spread(q), box)))
    for i, (xl, group) in groups.items():
        pairs, prods = [], []
        for p, ts in group.items():
            pairs += [(c, images[p or e * xl]) for e, c in ts if not (p and e)]
            ts = [(c, images[e * xl], e) for e, c in ts if p and e]
            if ts[1:]:
                sums.append(([_ZERO] * ts[0][2], 1, [t[:2] for t in ts], []))
                built.append((sums[-1][0], _reach(spread(xl), box)))
                ts = [(1, sums[-1][0], ts[0][2])]
            prods += [(c, images[p], p >> dk, b, e) for c, b, e in ts]
        sums.append((slices[i], gs[i].packed[0], pairs, prods))
        built.append((slices[i], _reach(spread(held[i]), box)))
    for n in range(1, max([r for _, r in built], default=0) + 1):
        # past its reach a series' slice is _ZERO, so the builds skip it
        for out, r in built:
            if r < n:
                out.append(_ZERO)
        for a, y in ys.items():
            if len(y) == n:
                _slice(y, [(r * k, g[k], y[n - k]) for k in range(1, n)
                           for r, g in feeds[a]], lay, n - 1)
        for out, den, pairs, prods in sums:
            if len(out) == n:
                _slice(out, [(c, _ONE, s[n]) for c, s in pairs]
                       + [(k, a[j], b[n - j]) for k, a, d, b, e in prods
                          for j in range(d, n - e + 1)], lay, den)
    pulled = tuple(MultiSeries(box, _join(slices[i])) if i in slices else g
                   for i, g in enumerate(gs))
    inverse = tuple(MultiSeries(box, _sum([(rows[i][a], pulled[i].packed, _ONE)
                                           for i in live], lay)) for a in range(box.arity))
    return pulled, inverse


def monomial(names, exponents):
    """`name^e` factors joined by `*`, without `^1`; "" for the unit monomial."""
    return "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponents) if e])


def render(s: MultiSeries) -> str:
    """Canonical text form: graded-lex monomials in q1..ql, coefficients n or n/d."""
    if s.is_zero():
        return "0"
    names = [f"q{a + 1}" for a in range(s.box.arity)]
    pieces = []
    for e, n, d in s.coefficients():
        mono = monomial(names, e)
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if n > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(pieces)

"""Exact truncated multivariate formal power series.

A MultiSeries is a sparse map from exponent vectors to Fractions, confined to
a per-variable truncation box.  All arithmetic is exact; products silently
drop monomials that leave the box, which is the quotient-ring semantics the
rest of the package relies on.  Every operation here only ever adds
nonnegative vectors to exponents, so coefficients at in-box exponents agree
with the untruncated computation.

Hot paths run on plain exponent->Fraction dicts (the underscore helpers); the
public classes are immutable wrappers with canonical term order.  Every
substitution x_a := x_a * exp(u_a) goes through one kernel, _subst_dict, fed
by the powers (x_a * exp(u_a))^k that _power_tables builds once per map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class TruncationBox:
    caps: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(int(c) for c in self.caps)
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

    def zero_exp(self):
        return (0,) * len(self.caps)


def _graded_lex_key(exp):
    return (sum(exp), exp)


# ---------------------------------------------------------------------------
# dict-level kernels


def _add_into(r, t, scale=None):
    for e, c in t.items():
        if scale is not None:
            c = c * scale
        c2 = r.get(e)
        c2 = c if c2 is None else c2 + c
        if c2:
            r[e] = c2
        elif e in r:
            del r[e]
    return r


def _mul_dict(s, t, caps):
    if len(s) > len(t):
        s, t = t, s
    r = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            ok = True
            for x, cap in zip(e, caps):
                if x > cap:
                    ok = False
                    break
            if not ok:
                continue
            c = r.get(e)
            c = c1 * c2 if c is None else c + c1 * c2
            if c:
                r[e] = c
            else:
                del r[e]
    return r


def _power_sum(s, coeff, caps):
    """sum over k >= 1 of coeff(k) * s^k, for s with zero constant term."""
    r = {}
    p = {(0,) * len(caps): Fraction(1)}
    for k in range(1, sum(caps) + 1):
        p = _mul_dict(p, s, caps)
        if not p:
            break
        _add_into(r, p, coeff(k))
    return r


def _exp_dict(s, caps):
    r = _power_sum(s, lambda k: Fraction(1, factorial(k)), caps)
    return _add_into(r, {(0,) * len(caps): Fraction(1)})


def _power_tables(umaps, series, caps):
    """tables[a][k] = (x_a * exp(u_a))^k, for k up to the largest exponent of
    x_a in any of the given series.

    The factor x_a^k keeps the part of exp(u_a)^k that a monomial with x_a^k
    can use, so entries shrink as k grows and products of them stay small.
    """
    l = len(caps)
    tables = []
    for a, u in enumerate(umaps):
        depth = max((e[a] for s in series for e in s), default=0)
        pa = [{(0,) * l: Fraction(1)}]
        if depth:
            xa = {tuple(int(b == a) for b in range(l)): Fraction(1)}
            ya = _mul_dict(xa, _exp_dict(u, caps), caps)
            for _ in range(depth):
                pa.append(_mul_dict(pa[-1], ya, caps))
        tables.append(pa)
    return tables


def _subst_dict(s, tables, caps):
    """Evaluate s at x_a := x_a * exp(u_a), given the power tables of u."""
    zero = (0,) * len(caps)
    r = {}
    for e, c in s.items():
        term = {zero: c}
        for k, pa in zip(e, tables):
            if k:
                term = _mul_dict(term, pa[k], caps)
        _add_into(r, term)
    return r


# ---------------------------------------------------------------------------
# public immutable wrappers


@dataclass(frozen=True)
class MultiSeries:
    """Sparse exact series; immutable, hashable via its canonical term tuple."""

    box: TruncationBox
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(box, coeffs):
        items = []
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            c = Fraction(c)
            if c == 0:
                continue
            if not box.contains(exp):
                raise SeriesError(f"exponent {exp} outside box {box.caps}")
            items.append((exp, c))
        items.sort(key=lambda t: _graded_lex_key(t[0]))
        return MultiSeries(box, tuple(items))

    @staticmethod
    def zero(box):
        return MultiSeries(box, ())

    @staticmethod
    def one(box):
        return MultiSeries(box, ((box.zero_exp(), Fraction(1)),))

    def to_dict(self):
        return dict(self.terms)

    def coefficient(self, exp):
        exp = tuple(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    @property
    def constant_term(self):
        return self.coefficient(self.box.zero_exp())

    def is_zero(self):
        return not self.terms

    def __neg__(self):
        return MultiSeries(self.box, tuple((e, -c) for e, c in self.terms))

    def scale(self, k):
        k = Fraction(k)
        if k == 0:
            return MultiSeries.zero(self.box)
        return MultiSeries(self.box, tuple((e, c * k) for e, c in self.terms))


def _require_same_box(s: MultiSeries, t: MultiSeries):
    if s.box != t.box:
        raise SeriesError("series live in different truncation boxes")


def add(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    _require_same_box(s, t)
    return MultiSeries.from_dict(s.box, _add_into(s.to_dict(), t.to_dict()))


def sub(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    return add(s, -t)


def mul(s: MultiSeries, t: MultiSeries) -> MultiSeries:
    _require_same_box(s, t)
    return MultiSeries.from_dict(
        s.box, _mul_dict(s.to_dict(), t.to_dict(), s.box.caps)
    )


def exp_series(s: MultiSeries) -> MultiSeries:
    if s.constant_term != 0:
        raise SeriesError("exp_series needs zero constant term")
    return MultiSeries.from_dict(s.box, _exp_dict(s.to_dict(), s.box.caps))


def log_series(s: MultiSeries) -> MultiSeries:
    if s.constant_term != 1:
        raise SeriesError("log_series needs constant term one")
    u = s.to_dict()
    del u[s.box.zero_exp()]
    log1p = _power_sum(u, lambda k: Fraction((-1) ** (k + 1), k), s.box.caps)
    return MultiSeries.from_dict(s.box, log1p)


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

    def is_identity(self):
        return all(u.is_zero() for u in self.components)


def _tables_of(m: DiagonalUnitMap, box: TruncationBox, series):
    """Power tables of m for substituting into the given dicts of this box."""
    if m.arity != box.arity or (m.components and m.box != box):
        raise SeriesError("map arity/box does not match the series")
    return _power_tables([u.to_dict() for u in m.components], series, box.caps)


def substitute(s: MultiSeries, m: DiagonalUnitMap) -> MultiSeries:
    """Evaluate s at x_a := x_a * exp(u_a(x))."""
    sd = s.to_dict()
    tables = _tables_of(m, s.box, [sd])
    return MultiSeries.from_dict(s.box, _subst_dict(sd, tables, s.box.caps))


def compose(outer: DiagonalUnitMap, inner: DiagonalUnitMap) -> DiagonalUnitMap:
    """Map sending x_a to x_a*exp(u_a) followed by x_a to x_a*exp(w_a)."""
    box = outer.box
    us = [u.to_dict() for u in outer.components]
    tables = _tables_of(inner, box, us)
    comps = tuple(
        MultiSeries.from_dict(
            box, _add_into(_subst_dict(u, tables, box.caps), w.to_dict())
        )
        for u, w in zip(us, inner.components)
    )
    return DiagonalUnitMap(comps)


def invert_diagonal_unit(m: DiagonalUnitMap) -> DiagonalUnitMap:
    """Formal inverse of x_a -> x_a*exp(u_a), by fixed-point iteration.

    Iterates w_a <- -u_a(x*exp(w)) from w = 0 over the full box.  Every u_a
    has zero constant term, so if two w agree up to total degree k their
    images agree up to degree k+1: round k fixes w up to degree k, and the
    first round that leaves w unchanged has found the unique inverse.  That
    takes at most sum(caps) + 1 rounds.
    """
    caps = m.box.caps
    minus_u = [{e: -c for e, c in u.terms} for u in m.components]
    w = [{} for _ in minus_u]
    for _ in range(sum(caps) + 1):
        tables = _power_tables(w, minus_u, caps)
        w2 = [_subst_dict(u, tables, caps) for u in minus_u]
        if w2 == w:
            break
        w = w2
    return DiagonalUnitMap(tuple(MultiSeries.from_dict(m.box, c) for c in w))


def render(s: MultiSeries, names=None) -> str:
    """Canonical text form: graded-lex monomials, reduced-fraction coefficients."""
    if s.is_zero():
        return "0"
    l = s.box.arity
    if names is None:
        names = [f"q{a + 1}" for a in range(l)]
    pieces = []
    for e, c in s.terms:
        mono = "*".join(
            names[a] if e[a] == 1 else f"{names[a]}^{e[a]}"
            for a in range(l)
            if e[a]
        )
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

"""Exact truncated multivariate formal power series.

A MultiSeries is a sparse map from exponent vectors to Fractions, confined to
a per-variable truncation box.  All arithmetic is exact; products silently
drop monomials that leave the box, which is the quotient-ring semantics the
rest of the package relies on.  Every operation here only ever adds
nonnegative vectors to exponents, so coefficients at in-box exponents agree
with the untruncated computation.

Hot paths run on plain exponent->Fraction dicts (the _*_dict helpers); the
public classes are immutable wrappers with canonical term order.
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
# dict-level kernels.  `tcap` is an optional extra total-degree cutoff used by
# the inversion to keep early fixed-point rounds cheap.


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


def _mul_dict(s, t, caps, tcap=None):
    if len(s) > len(t):
        s, t = t, s
    r = {}
    for e1, c1 in s.items():
        d1 = sum(e1)
        for e2, c2 in t.items():
            if tcap is not None and d1 + sum(e2) > tcap:
                continue
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


def _exp_dict(s, caps, tcap=None):
    zero = (0,) * len(caps)
    one = {zero: Fraction(1)}
    if not s:
        return one
    r = dict(one)
    p = dict(one)
    limit = sum(caps) if tcap is None else min(sum(caps), tcap)
    for k in range(1, limit + 1):
        p = _mul_dict(p, s, caps, tcap)
        if not p:
            break
        _add_into(r, p, Fraction(1, factorial(k)))
    return r


def _log1p_dict(u, caps, tcap=None):
    zero = (0,) * len(caps)
    r = {}
    p = {zero: Fraction(1)}
    limit = sum(caps) if tcap is None else min(sum(caps), tcap)
    for k in range(1, limit + 1):
        p = _mul_dict(p, u, caps, tcap)
        if not p:
            break
        _add_into(r, p, Fraction((-1) ** (k + 1), k))
    return r


def _vars_of(s):
    out = set()
    for e in s:
        for a, x in enumerate(e):
            if x:
                out.add(a)
    return out


def _subst_dict(s, umaps, caps, tcap=None):
    """Evaluate s at x_a := x_a * exp(umaps[a]); umaps keys must cover vars(s).

    Power tables of exp(u_a) are built only for variables present in s.
    """
    if not s:
        return {}
    zero = (0,) * len(caps)
    one = {zero: Fraction(1)}
    needed = _vars_of(s)
    pows = {}
    for a in needed:
        ua = umaps.get(a)
        if not ua:
            continue
        expu = _exp_dict(ua, caps, tcap)
        amax = max(e[a] for e in s)
        pa = [one]
        for _ in range(min(amax, caps[a])):
            pa.append(_mul_dict(pa[-1], expu, caps, tcap))
        pows[a] = pa
    r = {}
    for e, c in s.items():
        term = {e: c}
        for a in needed:
            if e[a] and a in pows:
                term = _mul_dict(term, pows[a][e[a]], caps, tcap)
        _add_into(r, term)
    return r


def _invert_diag_dicts(umaps, caps):
    """Fixed-point inverse of x_a -> x_a*exp(u_a) at the dict level.

    Each round gains one total degree of agreement, so round k is truncated
    to total degree k+1; components whose variables never feed back into the
    iteration are finished in a single pass at the end.
    """
    l = len(caps)
    total = sum(caps)
    # variables that any component depends on, transitively
    active = set()
    for u in umaps:
        active |= _vars_of(u)
    while True:
        grown = set(active)
        for a in active:
            grown |= _vars_of(umaps[a])
        if grown == active:
            break
        active = grown
    w = {a: {} for a in active}
    k = 0
    while True:
        k += 1
        tcap = min(k + 1, total)
        w2 = {
            a: {e: -c for e, c in _subst_dict(umaps[a], w, caps, tcap).items()}
            for a in active
        }
        if w2 == w and tcap == total:
            break
        w = w2
        if k > total + 2:
            break
    out = []
    for a in range(l):
        if a in active:
            out.append(w[a])
        else:
            out.append(
                {e: -c for e, c in _subst_dict(umaps[a], w, caps).items()}
            )
    return out


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

    @staticmethod
    def monomial(box, exp, coeff=1):
        return MultiSeries.from_dict(box, {tuple(exp): Fraction(coeff)})

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

    def truncate(self, box: TruncationBox):
        """Restrict to a componentwise smaller (or equal) box."""
        if box.arity != self.box.arity or any(
            b > c for b, c in zip(box.caps, self.box.caps)
        ):
            raise SeriesError("target box must be contained in the current box")
        return MultiSeries.from_dict(
            box, {e: c for e, c in self.terms if box.contains(e)}
        )

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
    return MultiSeries.from_dict(s.box, _log1p_dict(u, s.box.caps))


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

    @staticmethod
    def identity(box):
        return DiagonalUnitMap(tuple(MultiSeries.zero(box) for _ in range(box.arity)))

    def is_identity(self):
        return all(u.is_zero() for u in self.components)


def substitute(s: MultiSeries, m: DiagonalUnitMap) -> MultiSeries:
    """Evaluate s at x_a := x_a * exp(u_a(x))."""
    if m.arity != s.box.arity or (m.components and m.box != s.box):
        raise SeriesError("map arity/box does not match the series")
    umaps = {a: u.to_dict() for a, u in enumerate(m.components)}
    return MultiSeries.from_dict(
        s.box, _subst_dict(s.to_dict(), umaps, s.box.caps)
    )


def compose(outer: DiagonalUnitMap, inner: DiagonalUnitMap) -> DiagonalUnitMap:
    """Map sending x_a to x_a*exp(u_a) followed by x_a to x_a*exp(w_a)."""
    comps = tuple(
        add(substitute(u, inner), w)
        for u, w in zip(outer.components, inner.components)
    )
    return DiagonalUnitMap(comps)


def invert_diagonal_unit(m: DiagonalUnitMap) -> DiagonalUnitMap:
    """Formal inverse of x_a -> x_a*exp(u_a), by fixed-point iteration.

    w_a <- -u_a(x*exp(w)) gains one degree of agreement per round, so at most
    the total box degree of rounds is needed; see _invert_diag_dicts.
    """
    box = m.box
    w = _invert_diag_dicts([u.to_dict() for u in m.components], box.caps)
    return DiagonalUnitMap(tuple(MultiSeries.from_dict(box, c) for c in w))


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

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifano import (
    DiagonalUnitMap,
    MultiSeries,
    SeriesError,
    TruncationBox,
    add,
    exp_series,
    invert_diagonal_unit,
    log_series,
    mul,
    render,
    substitute,
)
from semifano.series import compose


def S(caps, coeffs):
    return MultiSeries.from_dict(TruncationBox(caps), coeffs)


def test_constructor_enforces_box():
    with pytest.raises(SeriesError):
        S((2,), {(3,): 1})
    with pytest.raises(SeriesError):
        TruncationBox((-1,))


def test_constructor_drops_zeros():
    s = S((2,), {(1,): 0, (2,): 5})
    assert s.terms == (((2,), Fraction(5)),)


def test_mul_truncates():
    one_plus = S((2,), {(0,): 1, (1,): 1})
    one_minus = S((2,), {(0,): 1, (1,): -1})
    assert mul(one_plus, one_minus) == S((2,), {(0,): 1, (2,): -1})
    # a product whose only monomial leaves the box is zero
    x = S((1, 1), {(1, 0): 1})
    y = S((1, 1), {(0, 1): 1})
    assert mul(mul(x, y), y).is_zero()
    assert mul(x, x).is_zero()


def test_mul_box_mismatch():
    with pytest.raises(SeriesError):
        mul(S((2,), {(1,): 1}), S((3,), {(1,): 1}))


def test_exp_basics():
    box = TruncationBox((3,))
    assert exp_series(MultiSeries.zero(box)) == MultiSeries.one(box)
    x = S((3,), {(1,): 1})
    assert exp_series(x) == S(
        (3,), {(0,): 1, (1,): 1, (2,): Fraction(1, 2), (3,): Fraction(1, 6)}
    )
    with pytest.raises(SeriesError):
        exp_series(MultiSeries.one(box))


def test_log_basics():
    box = TruncationBox((3,))
    assert log_series(MultiSeries.one(box)) == MultiSeries.zero(box)
    s = S((3,), {(0,): 1, (1,): 1})
    assert log_series(s) == S(
        (3,), {(1,): 1, (2,): Fraction(-1, 2), (3,): Fraction(1, 3)}
    )
    with pytest.raises(SeriesError):
        log_series(S((3,), {(1,): 1}))


def test_substitute_identity_and_example():
    s = S((2, 2), {(1, 0): 1, (1, 1): 2})
    ident = DiagonalUnitMap((MultiSeries.zero(s.box),) * 2)
    assert substitute(s, ident) == s
    # u with exp(u) = 1 + x: substituting into x gives x + x^2
    u = log_series(S((2,), {(0,): 1, (1,): 1}))
    m = DiagonalUnitMap((u,))
    assert substitute(S((2,), {(1,): 1}), m) == S((2,), {(1,): 1, (2,): 1})


def test_invert_trivial():
    box = TruncationBox((3, 2))
    ident = DiagonalUnitMap((MultiSeries.zero(box),) * 2)
    assert invert_diagonal_unit(ident) == ident


def test_invert_lambert_w():
    # q = x*exp(x) inverts to x = W(q) = q*exp(-W(q)), so w = -W(q), whose
    # coefficients reach every degree of the box
    m = DiagonalUnitMap((S((8,), {(1,): 1}),))
    lambert_w = S(
        (8,), {(n,): Fraction((-n) ** (n - 1), factorial(n)) for n in range(1, 9)}
    )
    assert invert_diagonal_unit(m) == DiagonalUnitMap((-lambert_w,))


def test_invert_without_feedback():
    # q1 = x1*exp(x2), q2 = x2: x2 never feeds back into the iteration
    m = DiagonalUnitMap((S((3, 3), {(0, 1): 1}), S((3, 3), {})))
    assert invert_diagonal_unit(m) == DiagonalUnitMap(
        (S((3, 3), {(0, 1): -1}), S((3, 3), {}))
    )


def test_render_canonical():
    s = S((3, 3), {(0, 0): 1, (1, 0): Fraction(-3, 2), (0, 2): 1, (1, 1): 1})
    assert render(s) == "1 - 3/2*q1 + q2^2 + q1*q2"
    assert render(MultiSeries.zero(TruncationBox((1,)))) == "0"


# ---------------------------------------------------------------------------
# randomized properties

frac = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def boxed_series(draw, caps=None, constant=None):
    if caps is None:
        arity = draw(st.integers(1, 3))
        caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    box = TruncationBox(caps)
    exps = st.tuples(*[st.integers(0, c) for c in caps])
    coeffs = draw(st.dictionaries(exps, frac, max_size=6))
    if constant is not None:
        coeffs[box.zero_exp()] = Fraction(constant)
    return MultiSeries.from_dict(box, coeffs)


@st.composite
def series_pair(draw):
    arity = draw(st.integers(1, 3))
    caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    return draw(boxed_series(caps=caps)), draw(boxed_series(caps=caps))


@st.composite
def series_triple(draw):
    arity = draw(st.integers(1, 2))
    caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    return tuple(draw(boxed_series(caps=caps)) for _ in range(3))


@settings(max_examples=100)
@given(series_pair())
def test_ring_commutativity(pair):
    s, t = pair
    assert add(s, t) == add(t, s)
    assert mul(s, t) == mul(t, s)


@settings(max_examples=100)
@given(series_triple())
def test_ring_associativity_distributivity(triple):
    a, b, c = triple
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=100)
@given(series_pair())
def test_mul_matches_dense_convolution(pair):
    s, t = pair
    caps = s.box.caps
    sd, td = s.to_dict(), t.to_dict()
    dense = {}
    for e1, c1 in sd.items():
        for e2, c2 in td.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(x <= c for x, c in zip(e, caps)):
                dense[e] = dense.get(e, Fraction(0)) + c1 * c2
    assert mul(s, t) == MultiSeries.from_dict(s.box, dense)


@st.composite
def zero_constant_pair(draw):
    arity = draw(st.integers(1, 2))
    caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    return (
        draw(boxed_series(caps=caps, constant=0)),
        draw(boxed_series(caps=caps, constant=0)),
    )


@settings(max_examples=100)
@given(zero_constant_pair())
def test_exp_is_homomorphism(pair):
    a, b = pair
    assert exp_series(add(a, b)) == mul(exp_series(a), exp_series(b))


@settings(max_examples=100)
@given(boxed_series(constant=0))
def test_log_exp_round_trip(s):
    assert log_series(exp_series(s)) == s


@settings(max_examples=100)
@given(boxed_series(constant=1))
def test_exp_log_round_trip(s):
    assert exp_series(log_series(s)) == s


@st.composite
def unit_maps(draw, caps=None):
    if caps is None:
        arity = draw(st.integers(1, 2))
        caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    comps = tuple(
        draw(boxed_series(caps=caps, constant=0)) for _ in range(len(caps))
    )
    return DiagonalUnitMap(comps)


@settings(max_examples=100, deadline=None)
@given(unit_maps())
def test_inversion_round_trip(m):
    w = invert_diagonal_unit(m)
    assert invert_diagonal_unit(w) == m
    assert compose(m, w).is_identity()
    assert compose(w, m).is_identity()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_composition(data):
    arity = data.draw(st.integers(1, 2))
    caps = tuple(data.draw(st.integers(0, 3)) for _ in range(arity))
    s = data.draw(boxed_series(caps=caps))
    m = data.draw(unit_maps(caps=caps))
    w = invert_diagonal_unit(m)
    assert substitute(substitute(s, m), w) == s


@settings(max_examples=100)
@given(st.data())
def test_truncation_monotonicity(data):
    arity = data.draw(st.integers(1, 2))
    small = tuple(data.draw(st.integers(0, 2)) for _ in range(arity))
    big = tuple(c + data.draw(st.integers(0, 2)) for c in small)
    small_box, big_box = TruncationBox(small), TruncationBox(big)
    coeffs_a = data.draw(
        st.dictionaries(st.tuples(*[st.integers(0, c) for c in small]), frac, max_size=5)
    )
    coeffs_b = data.draw(
        st.dictionaries(st.tuples(*[st.integers(0, c) for c in small]), frac, max_size=5)
    )
    a_small = MultiSeries.from_dict(small_box, coeffs_a)
    b_small = MultiSeries.from_dict(small_box, coeffs_b)
    a_big = MultiSeries.from_dict(big_box, coeffs_a)
    b_big = MultiSeries.from_dict(big_box, coeffs_b)
    product = mul(a_big, b_big)
    in_small = {e: c for e, c in product.terms if small_box.contains(e)}
    assert MultiSeries.from_dict(small_box, in_small) == mul(a_small, b_small)

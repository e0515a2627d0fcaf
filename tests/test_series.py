from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifano import (
    MultiSeries,
    SeriesError,
    TruncationBox,
    combine,
    exp_series,
    mul,
    render,
)
from semifano import series
from semifano.series import (
    _lowest,
    _pack,
    _sum,
)
from oracles import (
    _subst_dict,
    add,
    compose,
    invert_diagonal_unit,
    is_identity,
    oracle_exp,
    oracle_invert_full_box,
    oracle_log,
    pass_slices,
    power_sum,
    scale,
    substitute,
    terms,
    to_dict,
)


def S(caps, coeffs):
    return MultiSeries.from_dict(TruncationBox(caps), coeffs)


def test_constructor_enforces_box():
    with pytest.raises(SeriesError):
        S((2,), {(3,): 1})
    with pytest.raises(SeriesError):
        TruncationBox((-1,))


@pytest.mark.parametrize("caps", [(2.7,), (True, 3), ("3",), (None,)])
def test_box_caps_must_be_ints(caps):
    with pytest.raises(SeriesError):
        TruncationBox(caps)


@pytest.mark.parametrize("caps", [(2, 0, 3, 1), (1, 4, 0, 0), (0,), (12,), ()])
def test_table_rows_match_sorted_product(caps):
    # the oracle: every exponent of the box, lex order stably sorted by degree
    box = TruncationBox(caps)
    exps = sorted(product(*[range(c + 1) for c in caps]), key=sum)
    rows = box.table_rows[1]
    assert rows == ["".join(f"{e}\t" for e in exp) + "0" for exp in exps]
    assert [box.table_line(exp) for exp in exps] == list(range(1, len(exps) + 1))


def test_constructor_drops_zeros():
    s = S((2,), {(1,): 0, (2,): 5})
    assert terms(s) == (((2,), Fraction(5)),)


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


def test_substitute_identity_and_example():
    s = S((2, 2), {(1, 0): 1, (1, 1): 2})
    ident = (MultiSeries.zero(s.box),) * 2
    assert substitute(s, ident) == s
    # u with exp(u) = 1 + x: substituting into x gives x + x^2
    u = oracle_log(S((2,), {(0,): 1, (1,): 1}))
    assert substitute(S((2,), {(1,): 1}), (u,)) == S((2,), {(1,): 1, (2,): 1})


def test_invert_trivial():
    box = TruncationBox((3, 2))
    ident = (MultiSeries.zero(box),) * 2
    assert invert_diagonal_unit(ident) == ident


def test_invert_lambert_w():
    # q = x*exp(x) inverts to x = W(q) = q*exp(-W(q)), so w = -W(q), whose
    # coefficients reach every degree of the box
    m = (S((8,), {(1,): 1}),)
    lambert_w = S(
        (8,), {(n,): Fraction((-n) ** (n - 1), factorial(n)) for n in range(1, 9)}
    )
    assert invert_diagonal_unit(m) == (scale(lambert_w, -1),)


def test_invert_without_feedback():
    # q1 = x1*exp(x2), q2 = x2: x2 never feeds back into the iteration
    m = (S((3, 3), {(0, 1): 1}), S((3, 3), {}))
    assert invert_diagonal_unit(m) == (S((3, 3), {(0, 1): -1}), S((3, 3), {}))


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
        coeffs[(0,) * box.arity] = Fraction(constant)
    return MultiSeries.from_dict(box, coeffs)


@st.composite
def series_pair(draw, arities=(1, 3), max_cap=3):
    arity = draw(st.integers(*arities))
    caps = tuple(draw(st.integers(0, max_cap)) for _ in range(arity))
    return draw(boxed_series(caps=caps)), draw(boxed_series(caps=caps))


@st.composite
def series_triple(draw):
    arity = draw(st.integers(1, 2))
    caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    return tuple(draw(boxed_series(caps=caps)) for _ in range(3))


def oracle_combine(pairs):
    """sum k * s on Fraction dicts, zeros dropped."""
    out = {}
    for k, s in pairs:
        for e, c in to_dict(s).items():
            out[e] = out.get(e, Fraction(0)) + k * c
    return {e: c for e, c in out.items() if c}


@settings(max_examples=100)
@given(st.data())
def test_combine_matches_fraction_oracle(data):
    caps = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    box = TruncationBox(tuple(caps))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), boxed_series(caps=box.caps)), max_size=4))
    got = combine(box, pairs)
    assert to_dict(got) == oracle_combine(pairs)
    assert got == MultiSeries.from_dict(box, oracle_combine(pairs))


def test_combine_edges():
    F = Fraction
    box = TruncationBox((2, 2))
    s = S((2, 2), {(1, 0): F(1, 3), (0, 2): F(-3, 4)})
    t = S((2, 2), {(1, 0): F(1, 6), (1, 1): F(5, 2)})
    # denominators 12 and 6 meet over their lcm; q1 cancels and the rest
    # reduces once, to denominator 2
    r = combine(box, [(2, s), (-4, t)])
    assert r.packed == _pack({(0, 2): F(-3, 2), (1, 1): F(-10)}, box.layout)
    assert r.packed[0] == 2
    # a zero k drops its series; full cancellation is the packed zero
    assert combine(box, [(0, s), (1, t)]) == t
    assert combine(box, [(3, s), (-1, s), (-2, s)]).packed == (1, {})
    assert combine(box, []).packed == (1, {})
    assert add(s, t) == combine(box, [(1, t), (1, s)])
    other = S((3, 3), {(1, 0): 1})
    with pytest.raises(SeriesError, match="different truncation boxes"):
        combine(box, [(1, s), (2, other)])
    with pytest.raises(SeriesError, match="different truncation boxes"):
        add(s, other)


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


@settings(max_examples=200)
@given(series_pair(arities=(0, 4), max_cap=9))
def test_mul_matches_dense_convolution(pair):
    # caps up to 9 cross the packed field width change between 7 and 8, and
    # zero caps sit next to large ones
    s, t = pair
    caps = s.box.caps
    sd, td = to_dict(s), to_dict(t)
    dense = {}
    for e1, c1 in sd.items():
        for e2, c2 in td.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(x <= c for x, c in zip(e, caps)):
                dense[e] = dense.get(e, Fraction(0)) + c1 * c2
    assert mul(s, t) == MultiSeries.from_dict(s.box, dense)


def test_mul_packing_edges():
    F = Fraction
    # the arity-0 box
    assert mul(S((), {(): F(2, 3)}), S((), {(): F(3, 4)})) == S((), {(): F(1, 2)})
    # a wide field next to a zero cap, mixed denominators
    a = S((9, 0), {(4, 0): F(1, 2), (5, 0): F(-2, 3)})
    b = S((9, 0), {(0, 0): 7, (5, 0): F(3, 5)})
    assert mul(a, b) == S(
        (9, 0), {(4, 0): F(7, 2), (5, 0): F(-14, 3), (9, 0): F(3, 10)}
    )
    # sums exactly at the caps stay, one past them leave
    a = S((8, 7), {(4, 3): 1, (4, 4): F(1, 6)})
    b = S((8, 7), {(4, 4): 2, (5, 4): 3})
    assert mul(a, b) == S((8, 7), {(8, 7): 2})
    # the x*y terms cancel exactly and must not be stored as a zero
    s = {(1, 0): F(1, 2), (0, 1): F(-1, 3)}
    t = {(1, 0): F(1, 2), (0, 1): F(1, 3)}
    assert to_dict(mul(S((2, 2), s), S((2, 2), t))) == {(2, 0): F(1, 4), (0, 2): F(-1, 9)}


# ---------------------------------------------------------------------------
# exp against the sum of powers it replaced


@st.composite
def wide_series(draw, constant):
    # arity 0..4 and caps 0..9 cross the packed field width change between
    # caps 7 and 8; coefficients have mixed denominators
    arity = draw(st.integers(0, 4))
    caps = tuple(draw(st.integers(0, 9)) for _ in range(arity))
    return draw(boxed_series(caps=caps, constant=constant))


@settings(max_examples=100, deadline=None)
@given(wide_series(constant=0))
def test_exp_matches_power_sum(s):
    assert exp_series(s) == oracle_exp(s)


def test_exp_log_closed_forms():
    F = Fraction
    x = S((9,), {(1,): 1})
    assert exp_series(x) == S((9,), {(k,): F(1, factorial(k)) for k in range(10)})
    # exp of the closed form of log(1+x) is 1 + x
    assert exp_series(S((9,), {(k,): F((-1) ** (k + 1), k) for k in range(1, 10)})
                      ) == S((9,), {(0,): 1, (1,): 1})
    # log(1+x+y) = sum (-1)^(i+j+1) C(i+j, i) x^i y^j / (i+j)
    assert exp_series(S(
        (9, 9),
        {(i, j): F((-1) ** (i + j + 1) * comb(i + j, i), i + j)
         for i in range(10) for j in range(10) if i + j},
    )) == S((9, 9), {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def test_exp_log_past_the_strategies_degree(monkeypatch):
    # the strategies reach total degree 36; the recurrences run to any degree
    F = Fraction
    assert exp_series(S((120,), {(1,): 1})) == S(
        (120,), {(k,): F(1, factorial(k)) for k in range(121)})
    s = S((60,), {(1,): F(1, 2), (2,): F(-2, 3), (7,): F(5, 4), (30,): F(3, 7),
                  (60,): F(-1, 9)})
    assert mul(exp_series(s), exp_series(scale(s, -1))) == MultiSeries.one(s.box)
    # one slice a degree, and none for exp(0)
    box = TruncationBox((12,))
    assert pass_slices(lambda: exp_series(MultiSeries.zero(box)), monkeypatch) == []
    built = pass_slices(lambda: exp_series(S((12,), {(3,): F(1, 2)})), monkeypatch)
    assert [d for _, d, _ in built] == list(range(1, 13))


def test_exp_stops_at_the_reach_of_its_variables(monkeypatch):
    # s has no x2, so exp(s) has no in-box term past degree 3 + 2, its reach,
    # though the box's degree is 9: it builds the slices 1..5 and no more
    F = Fraction
    s = S((3, 4, 2), {(1, 0, 0): 1, (1, 0, 1): F(-2, 3), (0, 0, 2): F(1, 2)})
    built = pass_slices(lambda: exp_series(s), monkeypatch)
    assert [d for _, d, _ in built] == [1, 2, 3, 4, 5]
    assert exp_series(s) == oracle_exp(s)
    assert (3, 0, 2) in to_dict(exp_series(s))


def test_exp_log_edges():
    F = Fraction
    # the empty series and the arity-0 box
    for caps in ((9, 0), ()):
        box = TruncationBox(caps)
        assert exp_series(MultiSeries.zero(box)) == MultiSeries.one(box)
    # a wide field next to a zero cap, mixed denominators
    s = S((9, 0), {(1, 0): F(1, 2), (3, 0): F(-2, 3), (7, 0): F(5, 4)})
    assert exp_series(s) == oracle_exp(s)
    one_plus_s = add(MultiSeries.one(s.box), s)
    assert exp_series(oracle_log(one_plus_s)) == one_plus_s
    # exp(x - x^2/2) has an x^2 term that cancels exactly; it must not be
    # stored as a zero, nor must the cancelled terms of exp(log(1 + x + x^2/2))
    e = to_dict(exp_series(S((5,), {(1,): 1, (2,): F(-1, 2)})))
    assert (2,) not in e and e[(3,)] == F(-1, 3)
    assert e == to_dict(oracle_exp(S((5,), {(1,): 1, (2,): F(-1, 2)})))
    g = oracle_log(S((5,), {(0,): 1, (1,): 1, (2,): F(1, 2)}))
    assert (2,) not in to_dict(g) and to_dict(g)[(3,)] == F(-1, 6)
    assert exp_series(g).packed == S((5,), {(0,): 1, (1,): 1, (2,): F(1, 2)}).packed


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
    assert oracle_log(exp_series(s)) == s


@settings(max_examples=100)
@given(boxed_series(constant=1))
def test_exp_log_round_trip(s):
    assert exp_series(oracle_log(s)) == s


def block_keys(s):
    """The memo key of each block of s, with its fresh _exp."""
    return {(d, frozenset(t.items())): series._exp((d, t), s.box)
            for d, t in series._blocks(s.packed, s.box.layout)}


# a series of two blocks, which zero_constant_pair draws only rarely
TWO_BLOCKS = MultiSeries.from_dict(
    TruncationBox((3, 2)), {(1, 0): 2, (3, 0): Fraction(-1, 3), (0, 2): Fraction(5, 2)})


@settings(max_examples=100, deadline=None)
@example((TWO_BLOCKS, TWO_BLOCKS))
@given(zero_constant_pair())
def test_exp_memo_hit_is_a_fresh_exp(pair):
    """An exp of a series equal to one already exponentiated in the same
    box object is a memo hit: it equals a fresh _exp, and still does after
    the first result has been fed to mul and combine.  The box keeps the
    packed exps of the series' blocks, and nothing else."""
    box = TruncationBox(pair[0].box.caps)
    s, t = [MultiSeries(box, x.packed) for x in pair]
    fresh = series._exp(s.packed, box)
    first = exp_series(s)
    assert first.packed == fresh
    used = [mul(first, t), mul(first, first), combine(box, [(2, first), (-3, t)])]
    hit = exp_series(MultiSeries.from_dict(box, to_dict(s)))
    assert hit.packed == fresh == series._exp(s.packed, box)
    assert used == [mul(hit, t), mul(hit, hit), combine(box, [(2, hit), (-3, t)])]
    assert hit.box is box and box.exps == block_keys(s)


@st.composite
def disjoint_pair(draw):
    """Nonzero a and b with zero constant term over disjoint variables of
    one box, a's the first k and b's the rest; a has a term in each of its
    variables, so it is one block, and b may be several."""
    arity = draw(st.integers(2, 4))
    caps = tuple(draw(st.integers(1, 4)) for _ in range(arity))
    k = draw(st.integers(1, arity - 1))

    def over(held):
        exps = st.tuples(*[st.integers(0, c) if a in held else st.just(0)
                           for a, c in enumerate(caps)]).filter(any)
        return draw(st.dictionaries(exps, frac.filter(bool), min_size=1, max_size=5))

    a, b = over(range(k)), over(range(k, arity))
    a[(1,) * k + (0,) * (arity - k)] = draw(frac.filter(bool))
    box = TruncationBox(caps)
    return MultiSeries.from_dict(box, a), MultiSeries.from_dict(box, b)


@settings(max_examples=60, deadline=None)
@given(disjoint_pair())
def test_exp_of_disjoint_blocks_is_the_product_of_their_exps(pair):
    """exp(a + b) over disjoint variables is the product of its blocks'
    exps, in a fresh box as once the box holds exp(a) and exp(b): each block
    runs once and is kept, the product equals the whole exp, exp(a) exp(b)
    and the sum of powers, and the sum itself is never keyed."""
    a, b = pair
    s = add(a, b)
    whole, blocks = series._exp(s.packed, s.box), block_keys(s)
    assert len(blocks) >= 2 and (s.packed[0], frozenset(s.packed[1].items())) not in blocks
    assert exp_series(s).packed == whole and s.box.exps == blocks
    box = TruncationBox(s.box.caps)
    a, b, s = [MultiSeries(box, x.packed) for x in (a, b, s)]
    product = mul(exp_series(a), exp_series(b))
    assert box.exps == blocks
    assert exp_series(s).packed == whole == product.packed == oracle_exp(s).packed
    assert box.exps == blocks


def test_blocks_merge_terms_that_share_a_variable():
    # a term joining two blocks met earlier merges them, caps past the field
    # width's change at 8 set no stray guard bit, and three blocks make two
    # products
    F = Fraction
    s = S((9, 8, 1, 9), {(9, 0, 0, 0): 1, (0, 0, 1, 0): F(1, 2), (0, 8, 0, 0): 3,
                         (0, 0, 0, 9): F(-2, 3), (1, 1, 0, 0): 5})
    blocks = sorted(sorted(to_dict(MultiSeries(s.box, p)))
                    for p in series._blocks(s.packed, s.box.layout))
    assert blocks == [[(0, 0, 0, 9)], [(0, 0, 1, 0)],
                      [(0, 8, 0, 0), (1, 1, 0, 0), (9, 0, 0, 0)]]
    bridged = add(s, S(s.box.caps, {(0, 0, 1, 1): 1}))
    assert len(series._blocks(bridged.packed, s.box.layout)) == 2
    # x1 meets the merged block only through the variables of its first part
    chain = S((2, 2, 2), {(1, 1, 0): 1, (0, 1, 1): 2, (1, 0, 0): 3})
    assert len(series._blocks(chain.packed, chain.box.layout)) == 1
    exp_series(MultiSeries(s.box, S(s.box.caps, {(0, 0, 1, 0): F(1, 2)}).packed))
    assert exp_series(s) == oracle_exp(s)
    assert len(s.box.exps) == 3


@st.composite
def unit_maps(draw, caps=None):
    if caps is None:
        arity = draw(st.integers(1, 2))
        caps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    comps = tuple(
        draw(boxed_series(caps=caps, constant=0)) for _ in range(len(caps))
    )
    return comps


@settings(max_examples=100, deadline=None)
@given(unit_maps())
def test_inversion_round_trip(m):
    w = invert_diagonal_unit(m)
    assert w == oracle_invert_full_box(m)
    assert invert_diagonal_unit(w) == m
    assert is_identity(compose(m, w))
    assert is_identity(compose(w, m))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_composition(data):
    arity = data.draw(st.integers(1, 2))
    caps = tuple(data.draw(st.integers(0, 3)) for _ in range(arity))
    s = data.draw(boxed_series(caps=caps))
    m = data.draw(unit_maps(caps=caps))
    w = invert_diagonal_unit(m)
    assert substitute(substitute(s, m), w) == s


@settings(max_examples=5, deadline=None)
@given(unit_maps(caps=(6, 5)), boxed_series(caps=(6, 5)))
def test_deep_round_trips(m, s):
    # boxes past degree 3 reach the late rounds of the inversion
    w = invert_diagonal_unit(m)
    assert is_identity(compose(m, w))
    assert is_identity(compose(w, m))
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
    in_small = {e: c for e, c in terms(product) if small_box.contains(e)}
    assert MultiSeries.from_dict(small_box, in_small) == mul(a_small, b_small)


# ---------------------------------------------------------------------------
# substitution, composition and inversion against a Fraction-dict oracle


def oracle_subst(s, us, caps):
    """s at x_a := x_a * exp(u_a): each term c x^e is c x^e exp(sum_a e_a u_a),
    the exponential summed as powers in the box left over by x^e."""
    r = {}
    for e, c in s.items():
        rest = tuple(cap - k for cap, k in zip(caps, e))
        v = {}
        for k, u in zip(e, us):
            for f, d in u.items():
                if all(x <= y for x, y in zip(f, rest)):
                    v[f] = v.get(f, 0) + k * d
        ev = power_sum(v, lambda n: Fraction(1, factorial(n)), rest)
        ev[(0,) * len(caps)] = ev.get((0,) * len(caps), 0) + 1
        for f, d in ev.items():
            g = tuple(a + b for a, b in zip(e, f))
            r[g] = r.get(g, 0) + c * d
    return {g: c for g, c in r.items() if c}


@st.composite
def shared_maps(draw, size):
    """Two unit maps and a series in one box of at most size monomials
    (arity 1..4, caps 0..9), drawn over one small pool of monomials so that
    components and terms share monomials."""
    caps = []
    for _ in range(draw(st.integers(1, 4))):
        room = size // prod(c + 1 for c in caps)
        caps.append(draw(st.integers(0, min(9, room - 1))))
    box = TruncationBox(tuple(draw(st.permutations(caps))))
    exps = st.tuples(*[st.integers(0, c) for c in box.caps])
    pool = draw(st.lists(exps, min_size=1, max_size=5, unique=True))
    mono = st.one_of(st.sampled_from(pool), exps)

    def series(constant=None):
        d = draw(st.dictionaries(mono, frac, max_size=5))
        if constant is not None:
            d[(0,) * box.arity] = Fraction(constant)
        return MultiSeries.from_dict(box, d)

    outer, inner = (tuple(series(0) for _ in caps) for _ in "ab")
    return outer, inner, series()


def oracle_compose(outer, inner):
    box = outer[0].box
    us = [to_dict(w) for w in inner]
    comps = []
    for u, w in zip(outer, us):
        r = oracle_subst(to_dict(u), us, box.caps)
        for e, c in w.items():
            r[e] = r.get(e, 0) + c
        comps.append(MultiSeries.from_dict(box, r))
    return tuple(comps)


@settings(max_examples=100, deadline=None)
@given(shared_maps(size=400), st.data())
def test_substitute_and_compose_match_oracle(drawn, data):
    outer, inner, s = drawn
    caps = s.box.caps
    us = [to_dict(w) for w in inner]
    want = oracle_subst(to_dict(s), us, caps)
    if want:
        # take c x^f off s for one monomial f of its image: the image of x^f
        # has coefficient 1 at f, so the contributions to f cancel to zero
        f = data.draw(st.sampled_from(sorted(want)))
        s = add(s, MultiSeries.from_dict(s.box, {f: -want[f]}))
        want = oracle_subst(to_dict(s), us, caps)
        assert f not in want
    assert substitute(s, inner) == MultiSeries.from_dict(s.box, want)
    assert compose(outer, inner) == oracle_compose(outer, inner)


@settings(max_examples=60, deadline=None)
@given(shared_maps(size=120))
def test_inverse_is_the_oracle_fixed_point(drawn):
    # w inverts u exactly when w_a = -u_a(x * exp(w)) for every a, and that
    # fixed point is unique
    m, _, _ = drawn
    w = invert_diagonal_unit(m)
    assert w == oracle_invert_full_box(m)
    box = m[0].box
    ws = [to_dict(c) for c in w]
    for u, c in zip(m, w):
        minus_u = {e: -d for e, d in to_dict(u).items()}
        assert c == MultiSeries.from_dict(box, oracle_subst(minus_u, ws, box.caps))


GAPPED_MAPS = {
    # lowest degree 2, 3 and 12: w's slices below that degree are zero
    "x^2": ((12,), [{(2,): 1}]),
    "x^3/2": ((15,), [{(3,): Fraction(1, 2)}]),
    "x^12": ((12,), [{(12,): 1}]),
    # every term of degree >= 2, and the inverse has no term of degree 3..5
    "two-variable": ((8, 8), [{(0, 2): 1, (3, 3): Fraction(-2, 3)},
                              {(0, 6): 1, (2, 4): 3}]),
    # a zero cap on the middle variable: its field holds only 0
    "zero-middle-cap": ((3, 0, 4), [{(1, 0, 1): 1, (0, 0, 2): Fraction(1, 2)},
                                    {(2, 0, 0): -1},
                                    {(1, 0, 0): 2, (0, 0, 3): Fraction(-1, 3)}]),
    # no u_a contains x2, so x2 exp(w_2) is never built, yet w_2 is not zero
    "x2-in-no-u": ((4, 3, 4), [{(1, 0, 1): 1}, {(0, 0, 2): Fraction(2, 3)},
                               {(2, 0, 0): -1, (1, 0, 1): 1}]),
    # u_1 is identically zero, so w_1 is too, and x1 exp(w_1) = x1
    "zero-component": ((5, 5), [{}, {(1, 0): 1, (1, 1): Fraction(-1, 2)}]),
}


@pytest.mark.parametrize("name", sorted(GAPPED_MAPS))
def test_inversion_with_degree_gaps_is_the_full_box_inverse(name):
    caps, comps = GAPPED_MAPS[name]
    m = tuple(S(caps, u) for u in comps)
    w = invert_diagonal_unit(m)
    assert w == oracle_invert_full_box(m)
    assert is_identity(compose(m, w)) and is_identity(compose(w, m))


@settings(max_examples=100, deadline=None)
@given(series_pair(arities=(0, 4), max_cap=9))
def test_degree_field_is_the_total_degree(pair):
    s, t = pair
    _, shifts, _, _, mask, dk = s.box.layout
    u = add(s, MultiSeries.from_dict(s.box, {(0,) * s.box.arity: -s.constant_term}))
    for r in (s, t, mul(s, t), exp_series(u)):
        for p in r.packed[1]:
            assert p >> dk == sum(p >> k & mask for k in shifts)
    for e, _ in terms(s):
        assert MultiSeries.from_dict(s.box, {e: 1}).packed[1].keys() == {
            sum(x << k for x, k in zip(e, shifts)) + (sum(e) << dk)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coefficients_are_the_graded_lex_sort_of_the_terms(data):
    # arity 0..4 and caps 0..9 cross the packed field width change between
    # caps 7 and 8; the reference sorts the drawn terms with a key function
    # and reduces each with Fraction
    caps = tuple(data.draw(st.lists(st.integers(0, 9), max_size=4)))
    exps = st.tuples(*[st.integers(0, c) for c in caps])
    drawn = data.draw(st.dictionaries(exps, frac, max_size=12))
    s = MultiSeries.from_dict(TruncationBox(caps), drawn)
    assert s.coefficients() == sorted(
        [(e, c.numerator, c.denominator) for e, c in drawn.items() if c],
        key=lambda t: (sum(t[0]), t[0]))


def test_packed_form_is_canonical():
    F = Fraction
    box = TruncationBox((3, 3))
    lay = box.layout
    w, _, _, _, _, dk = lay
    # each key carries its total degree in the top field
    x, y = 1 | 1 << dk, 1 << w | 1 << dk
    xy = x + y
    # x*y/3 through denominators 2*3, 3*2 and 3, and by reducing 4/12
    routes = [
        _sum([(1, _pack({(1, 0): F(1, 2)}, lay), _pack({(0, 1): F(2, 3)}, lay))], lay),
        _sum([(1, _pack({(1, 0): F(2, 3)}, lay), _pack({(0, 1): F(1, 2)}, lay))], lay),
        _sum([(1, _pack({(1, 0): F(1, 3)}, lay), _pack({(0, 1): F(1)}, lay))], lay),
        _lowest(12, {xy: 4}),
        _pack({(1, 1): F(1, 3)}, lay),
    ]
    assert all(r == (3, {xy: 1}) for r in routes)
    # zero numerators are dropped: (x/2 - y/3)(x/2 + y/3) has no x*y term
    s = _pack({(1, 0): F(1, 2), (0, 1): F(-1, 3)}, lay)
    t = _pack({(1, 0): F(1, 2), (0, 1): F(1, 3)}, lay)
    assert _sum([(1, s, t)], lay) == (36, {2 * x: 9, 2 * y: -4})
    assert _lowest(12, {x: 4, y: 0}) == (3, {x: 1})
    # every zero is (1, {}), the inversion's starting point
    assert _lowest(12, {x: 0}) == (1, {}) == _pack({}, lay)
    assert _sum([(1, _pack({(3, 3): F(5, 7)}, lay), s)], lay) == (1, {})
    # at x := x * exp(x/2), x - x^2/2 becomes x - 3/8 x^3: the contributions
    # to x^2 cancel, and the result is stored without them
    tables = [[(1, {0: 1}), _pack({(k, 0): F(1, 2 ** (k - 1) * factorial(k - 1))
                                   for k in range(1, 4)}, lay),
               _pack({(2, 0): F(1), (3, 0): F(1)}, lay)], [(1, {0: 1})]]
    r = _subst_dict([_pack({(1, 0): F(1), (2, 0): F(-1, 2)}, lay)], tables, box)
    assert r == [(8, {x: 8, 3 * x: -3})]
    # the public type stores the same canonical form
    zero = MultiSeries.zero(box)
    s = MultiSeries.from_dict(box, {(1, 0): F(4, 12), (0, 2): F(-6, 4), (1, 1): 2})
    minus_s = scale(s, -1)
    assert add(s, minus_s) == scale(s, 0) == zero and add(s, minus_s).packed == (1, {})
    t = add(S((3, 3), {(1, 0): F(1, 3)}), scale(S((3, 3), {(0, 2): F(-3, 4)}), 2))
    t = add(t, mul(S((3, 3), {(1, 0): 4}), S((3, 3), {(0, 1): F(1, 2)})))
    assert s == t and s.packed == t.packed == (6, {x: 2, 2 * y: -9, xy: 12})
    assert terms(s) == (((1, 0), F(1, 3)), ((0, 2), F(-3, 2)), ((1, 1), F(2)))

import sys
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semifano import intlinalg
from semifano.intlinalg import _eliminate, exchange, fraction_free_solve, subset_solves
from oracles import lattice_membership, left_kernel_basis, rational_rank, solve_rational


def transition_det(rows, basis):
    """det X for rows = X·basis with X integer, or None if no such X exists.

    `basis` must be unimodular on its first l columns, so X is read off
    there; rows and basis then span the same lattice iff the result is +-1.
    """
    l = len(basis)
    det, adj = fraction_free_solve([b[:l] for b in basis], [r[:l] for r in rows])
    assert abs(det) == 1
    X = [[det * v for v in x] for x in adj]
    if [[sum(x[a] * b[j] for a, b in enumerate(basis)) for j in range(len(basis[0]))]
            for x in X] != [list(r) for r in rows]:
        return None
    return fraction_free_solve(X, [])[0]


def test_left_kernel_simple():
    # rays of the projective plane: kernel is spanned by (1,1,1)
    V = [[1, 0], [0, 1], [-1, -1]]
    k = left_kernel_basis(V)
    assert len(k) == 1
    assert abs(transition_det(k, [[1, 1, 1]])) == 1


def test_left_kernel_rank_two():
    V = [[1, 0], [0, 1], [-1, -2], [0, -1]]
    k = left_kernel_basis(V)
    assert len(k) == 2
    assert abs(transition_det(k, [[1, 0, 1, -2], [0, 1, 0, 1]])) == 1


def test_kernel_rows_annihilate():
    V = [[0, 0, 1], [1, 0, 0], [2, 0, -1], [1, 0, -1], [0, 1, 0], [-1, -1, 3], [0, 0, -1]]
    for row in left_kernel_basis(V):
        for j in range(3):
            assert sum(row[i] * V[i][j] for i in range(7)) == 0


def test_solve_rational():
    x = solve_rational([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    # underdetermined: free variables are zero-filled
    x = solve_rational([[1, 1]], [3])
    assert x == [Fraction(3), Fraction(0)]


def test_rank_and_det():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2], [3, 4]]) == 2
    assert fraction_free_solve([[1, 2], [3, 4]], []) == (-2, [])
    assert fraction_free_solve([[1, 2], [2, 4]], [[1, 1]]) == (0, None)
    # zero leading pivot: one row swap, and the sign is corrected for it
    assert fraction_free_solve([[0, 1], [1, 0]], [[2, 3]]) == (-1, [[-3, -2]])
    assert fraction_free_solve([], [[], []]) == (1, [[], []])


def test_lattice_membership():
    basis = [[1, 0, 1, -2], [0, 1, 0, 1]]
    assert lattice_membership(basis, [1, 2, 1, 0]) == [1, 2]
    assert lattice_membership(basis, [1, 0, 0, 0]) is None
    # rational but non-integer coordinates are rejected
    assert lattice_membership([[2, 0]], [1, 0]) is None


def test_same_lattice_index():
    assert abs(transition_det([[1, 1], [0, 1]], [[1, 0], [0, 1]])) == 1
    assert transition_det([[2, 0], [0, 1]], [[1, 0], [0, 1]]) == 2
    assert transition_det([[1, 0, 0, 0]], [[1, 0, 1, -2]]) is None


def leibniz_det(B):
    """Determinant as the signed sum over permutations, in Fractions."""
    total = Fraction(0)
    for perm in permutations(range(len(B))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= B[i][j]
        total += term
    return total


@st.composite
def integer_systems(draw):
    """(B, Y): square B of size 1-5, entries -4..4, and up to 4 rows Y.

    Some draws repeat a row of B (a singular B) or zero its leading entry,
    so that elimination must swap rows at the first pivot.
    """
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    B = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("plain", "singular", "zero-pivot")))
    if shape == "singular" and n > 1:
        B[-1] = list(B[draw(st.integers(0, n - 2))])
    elif shape == "zero-pivot":
        B[0][0] = 0
    Y = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    return B, Y


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_fraction_free_solve_matches_rational(system):
    B, Y = system
    det, adj = fraction_free_solve(B, Y)
    assert det == leibniz_det(B)
    if det == 0:
        assert adj is None
        return
    Bt = [[B[a][j] for a in range(len(B))] for j in range(len(B))]
    for y, x in zip(Y, adj, strict=True):
        assert [Fraction(v, det) for v in x] == solve_rational(Bt, y)


def test_solve_pivots_each_column_once_and_stops_at_a_dead_one(monkeypatch):
    """One `_eliminate` step a column of B, column c on row c: a nonsingular
    B takes n, and a singular one stops at its first column with no pivot."""
    steps = []
    step = intlinalg._eliminate
    monkeypatch.setattr(intlinalg, "_eliminate",
                        lambda state, t, c: steps.append((t, c)) or step(state, t, c))

    def identity(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    for B, taken in [([[0] * 4 for _ in range(4)], 1),
                     ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 3),
                     ([[1, 0], [0, 0]], 2)]:
        steps.clear()
        assert fraction_free_solve(B, identity(len(B))) == (0, None)
        assert steps == [(c, c) for c in range(taken)]
    steps.clear()
    assert fraction_free_solve([[0, 1, 0], [1, 0, 0], [0, 0, 2]], identity(3)) == (
        -2, [[0, -2, 0], [-2, 0, 0], [0, 0, -1]])
    assert steps == [(0, 0), (1, 1), (2, 2)]


@st.composite
def exchanges(draw):
    """(B, V, t, k, u): a nonsingular B of size 1-4, up to 5 vectors V with
    entries -3..3, and the exchange of B's t-th vector for V[k] at place u.

    Some draws make V[k] another vector of B (n > 1) or zero, so that the
    new basis is singular, and some make it twice B's t-th vector plus
    another one of B, so that the new determinant is twice the old.
    """
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    B = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(fraction_free_solve(B, [])[0] != 0)
    V = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    t, u = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    k = draw(st.integers(0, len(V) - 1))
    s = draw(st.sampled_from([j for j in range(n) if j != t] or [t]))
    shape = draw(st.sampled_from(("plain", "singular", "double")))
    if shape == "singular":
        V[k] = list(B[s]) if s != t else [0] * n
    elif shape == "double":
        V[k] = [2 * a + (b if s != t else 0) for a, b in zip(B[t], B[s])]
    return B, V, t, k, u


@settings(max_examples=300, deadline=None)
@given(exchanges())
def test_exchange_matches_a_direct_solve(case):
    """One exchange step from B's solution gives exactly the direct solve
    over B with its t-th vector dropped and V[k] put in at place u, a
    singular one included, and leaves the solution it started from as it
    was."""
    B, V, t, k, u = case
    solution = fraction_free_solve(B, V)
    kept = (solution[0], [list(x) for x in solution[1]])
    swapped = B[:t] + B[t + 1:]
    swapped.insert(u, V[k])
    assert exchange(solution, t, k, u) == fraction_free_solve(swapped, V)
    assert solution == kept


def test_exchange_takes_one_step(monkeypatch):
    """From the identity: (2, 1) in at either place gives determinant +-2,
    and (1, 0) in for the second vector a singular basis, each in one
    `_eliminate` step that pivots the incoming vector's column on the last
    row."""
    steps = []
    step = intlinalg._eliminate
    monkeypatch.setattr(intlinalg, "_eliminate",
                        lambda state, t, c: steps.append((t, c)) or step(state, t, c))
    V = [[2, 1], [1, 0], [0, 1]]
    solution = fraction_free_solve([[1, 0], [0, 1]], V)
    steps.clear()
    assert exchange(solution, 0, 0, 0) == (2, [[2, 0], [1, -1], [0, 2]])
    assert exchange(solution, 0, 0, 1) == (-2, [[0, -2], [1, -1], [-2, 0]])
    assert exchange(solution, 1, 1, 0) == (0, None)
    assert steps == [(1, 0), (1, 0), (1, 1)]


@st.composite
def vector_lists(draw):
    """(V, r): up to 7 integer vectors of length r (1-4), entries -3..3.

    Some draws make V[0] zero, repeat a vector or add two earlier ones, so
    that some subsets are dependent and whole subtrees of the walk end.
    """
    r = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    V = draw(st.lists(st.lists(entry, min_size=r, max_size=r), max_size=7))
    shape = draw(st.sampled_from(("plain", "zero", "repeat", "sum")))
    if V and shape == "zero":
        V[0] = [0] * r
    elif len(V) > 1 and shape == "repeat":
        V[-1] = list(V[draw(st.integers(0, len(V) - 2))])
    elif len(V) > 2 and shape == "sum":
        V[-1] = [a + b for a, b in zip(V[0], V[1])]
    return V, r


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_subset_walk_matches_per_subset_solves(case):
    """The walk yields exactly the nonsingular r-subsets, in `combinations`
    order, each with its Leibniz determinant and, as adjugate columns, that
    determinant times the rational solve of every vector over the subset.
    With pivots from the first k vectors only, it yields just the subsets
    of those, each leaf still solving every vector."""
    V, r = case
    expected = []
    for S in combinations(range(len(V)), r):
        B = [V[s] for s in S]
        det = leibniz_det(B)
        if det != 0:
            Bt = [list(col) for col in zip(*B)]
            expected.append((S, det, [[det * x for x in solve_rational(Bt, v)] for v in V]))
    assert list(subset_solves(V, r)) == expected
    for k in range(len(V) + 1):
        assert list(subset_solves(V, r, k)) == [e for e in expected
                                                if all(s < k for s in e[0])], k


def test_subset_walk_edge_cases():
    # the empty subset is the one basis of Q^0; too few vectors give none
    assert list(subset_solves([[], []], 0)) == [((), 1, [[], []])]
    assert list(subset_solves([[1, 0]], 2)) == []
    # a zero first vector ends its subtree: only (1, 2) is left
    assert list(subset_solves([[0, 0], [1, 0], [0, 1]], 2)) == [
        ((1, 2), 1, [[0, 0], [1, 0], [0, 1]])]


def test_eliminate_shares_the_rows_a_pivot_leaves_unchanged():
    """A row with a zero in the pivot column, under a pivot equal to the
    previous one, is the parent's own row object; any other row is built
    anew, and the parent state is never mutated."""
    rows = [[1, 0, 2], [0, 1, 3], [0, 2, 5]]
    state = (rows, 1, 1)
    child = _eliminate(state, 0, 0)
    assert child[0][1] is rows[1] and child[0][2] is rows[2]
    grand = _eliminate(child, 1, 1)
    assert grand[0][0] is rows[0]
    # f = 2 in the pivot column: a new row
    assert grand[0][2] is not rows[2] and grand[0][2] == [0, 0, -1]
    # p = 2 != prev = 1: a new row even where f = 0
    rows = [[2, 0, 1], [0, 1, 1]]
    child = _eliminate((rows, 1, 1), 0, 0)
    assert child[0][1] is not rows[1] and child[0][1] == [0, 2, 2]
    assert rows == [[2, 0, 1], [0, 1, 1]]


def test_walk_leaves_belong_to_the_caller():
    """Walking V twice gives equal leaves and leaves V as it was, and a
    caller that mutates a yielded adjugate changes no later leaf.  The
    first leaf swaps its first two rows and keeps pivots 1, so its sign and
    determinant are -1: leaves of either sign are built."""
    V = [[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [2, 1, 1], [0, 1, 1]]
    before = [list(v) for v in V]
    first = list(subset_solves(V, 3))
    seen = []
    for S, det, adj in subset_solves(V, 3):
        seen.append((S, det, [list(col) for col in adj]))
        for col in adj:
            col[:] = [99] * len(col)
        adj.append([7])
    assert seen == first == list(subset_solves(V, 3))
    assert V == before
    assert first[0][:2] == ((0, 1, 2), -1) and any(det > 0 for _, det, _ in first)


def test_walk_is_one_frame_at_any_depth():
    """The walk keeps its path in one generator frame, so a solve deeper
    than the recursion limit still returns."""
    g = subset_solves([[1, 0], [0, 1], [1, 1]], 2)
    next(g)
    assert g.gi_yieldfrom is None
    n = sys.getrecursionlimit() + 10
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert fraction_free_solve(identity, []) == (1, [])

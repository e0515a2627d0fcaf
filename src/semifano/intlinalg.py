"""Exact integer linear algebra: one fraction-free elimination step, one driver.

Everything here works over Z; no fractions and no floating point.
Matrices are lists of lists (row-major), small enough that cubic algorithms
with exact arithmetic are fine.  `_eliminate` (Bareiss, Math. Comp. 22,
1968) is driven by `subset_solves`; `fraction_free_solve` is its first leaf.
"""

from __future__ import annotations


def _eliminate(state, t, c):
    """Pivot column c on row t of state = (rows, sign, previous pivot).

    The first row from t on with a nonzero entry in column c is swapped to
    row t and column c is cleared from every other row; by Sylvester's
    identity each division is exact, and each swap flips the determinant's
    sign.  Returns a new state, or None when there is no such row.
    """
    M, sign, prev = state
    piv = next((i for i in range(t, len(M)) if M[i][c] != 0), None)
    if piv is None:
        return None
    M = list(M)
    if piv != t:
        M[t], M[piv] = M[piv], M[t]
        sign = -sign
    pivot_row = M[t]
    p = pivot_row[c]
    for i, row in enumerate(M):
        if i != t:
            f = row[c]
            M[i] = [(p * v - f * w) // prev for v, w in zip(row, pivot_row)]
    return M, sign, p


def fraction_free_solve(B, Y):
    """(det B, det B · X) for the solution X of X·B = Y over Z.

    B is a square integer matrix and each row of Y an integer vector of the
    same length, so row k of X holds the coordinates of Y[k] over the rows
    of B.  The first leaf of `subset_solves` over [B | Y] pivots columns
    0..n-1 in turn when B is nonsingular; any other leaf, or none, means B
    is singular, and gives (0, None).
    """
    n = len(B)
    S, det, adj = next(subset_solves([*B, *Y], n), (None, 0, None))
    return (det, adj[n:]) if S == tuple(range(n)) else (0, None)


def subset_solves(V, r):
    """(S, det B, det B · X) with X·B = V, B = [V[s] for s in S], for every
    index r-subset S, in `combinations` order, of the length-r vectors V
    that is a basis of Q^r.

    The walk is depth-first on one matrix with V as its columns: each prefix
    takes one `_eliminate` step from its parent's state, and a dependent
    prefix ends its whole subtree.
    """
    def walk(S, state):
        t = len(S)
        if t == r:
            M, sign, prev = state
            yield S, sign * prev, [[sign * row[k] for row in M] for k in range(len(V))]
            return
        for c in range(S[-1] + 1 if S else 0, len(V) - r + t + 1):
            child = _eliminate(state, t, c)
            if child is not None:
                yield from walk(S + (c,), child)

    yield from walk((), ([[v[j] for v in V] for j in range(r)], 1, 1))

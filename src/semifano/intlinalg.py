"""Exact integer linear algebra: one fraction-free elimination step, two drivers.

Everything here works over Z; no fractions and no floating point.
Matrices are lists of lists (row-major), small enough that cubic algorithms
with exact arithmetic are fine.  `_eliminate` (Bareiss, Math. Comp. 22,
1968) is the one elimination step.  `subset_solves` walks every r-subset
as one explicit path of states that share every row a step leaves
unchanged, as no row is ever mutated in place.  The walk can take its
pivots from a prefix of the columns only: it then visits just the subsets
of that prefix, while every other column is still eliminated alongside,
so each leaf solves every vector over the subset as before.  A caller
that has ruled the other columns out of every answer orders them last and
passes the prefix's length; `fraction_free_solve` is the walk whose prefix
is B's n columns, so its one subset is B itself.  `exchange` takes a
solved basis to the basis with one vector swapped for another, in one
step (Edmonds, J. Res. NBS 71B, 1967): the entries of a solved state are
Cramer numerators, and the step's exact division is the three-term
Grassmann–Plücker relation among them.
"""

from __future__ import annotations


def _eliminate(state, t, c):
    """Pivot column c on row t of state = (rows, sign, previous pivot).

    The first row from t on with a nonzero entry in column c is swapped to
    row t and column c is cleared from every other row; by Sylvester's
    identity each division is exact, and each swap flips the determinant's
    sign.  Returns a new state, or None when there is no such row.  No row
    is mutated in place: one the step leaves unchanged (zero in column c,
    pivot equal to the previous one) is the parent state's own row object.
    """
    M, sign, prev = state
    for piv in range(t, len(M)):
        if M[piv][c] != 0:
            break
    else:
        return None
    M = list(M)
    if piv != t:
        M[t], M[piv] = M[piv], M[t]
        sign = -sign
    pivot_row = M[t]
    p = pivot_row[c]
    for i, row in enumerate(M):
        f = row[c]
        if i != t and (f or p != prev):
            M[i] = [(p * v - f * w) // prev for v, w in zip(row, pivot_row)]
    return M, sign, p


def _leaf(state):
    """(det, det · X as fresh column lists) of a fully pivoted state."""
    M, sign, prev = state
    return sign * prev, (list(map(list, zip(*M))) if sign > 0
                         else [[-v for v in col] for col in zip(*M)])


def fraction_free_solve(B, Y):
    """(det B, det B · X) for the solution X of X·B = Y over Z.

    B is a square integer matrix and each row of Y an integer vector of the
    same length, so row k of X holds the coordinates of Y[k] over the rows
    of B.  It is the one leaf of `subset_solves` over [B | Y] that pivots
    on B's n columns only, in turn; the first column with no pivot ends the
    walk with no leaf, so a singular B gives (0, None).
    """
    n = len(B)
    for _, det, adj in subset_solves([*B, *Y], n, n):
        return det, adj[n:]
    return 0, None


def exchange(solution, t, k, u):
    """The solution over B' of a system solved over B: B' is B with its
    t-th vector dropped and V[k] put in at place u.

    `solution` is (det B, det B · X) for X·B = V, det B nonzero, and the
    result is (det B', det B' · X') for X'·B' = V, or (0, None) when B' is
    singular.  Transposed, det B · X is a fully pivoted state with det B as
    its last pivot.  Row t is moved last, so one `_eliminate` step on that
    row alone pivots column k, and the row is then moved to place u; each
    move of a row past r others multiplies the determinant by (-1)^r.  An
    entry of the state at row i and column j is the determinant of B with
    its i-th vector replaced by V[j], so by the three-term Grassmann–Plücker
    relation every division of the step is exact.
    """
    det, adj = solution
    M = list(zip(*adj))
    n = len(M)
    M.append(M.pop(t))
    state = _eliminate((M, (-1) ** (n - 1 - t), det), n - 1, k)
    if state is None:
        return 0, None
    M, sign, p = state
    M.insert(u, M.pop())
    return _leaf((M, sign * (-1) ** (n - 1 - u), p))


def subset_solves(V, r, k=None):
    """(S, det B, det B · X) with X·B = V, B = [V[s] for s in S], for every
    r-subset S of range(k) (k = len(V) when None), in `combinations` order,
    whose vectors, of length r, are a basis of Q^r.

    The walk is depth-first on one matrix with all of V as its columns, as
    one explicit path of (prefix, state, columns left) entries in one
    generator frame: each prefix takes one `_eliminate` step from its
    parent's state, sharing its unchanged rows, and a dependent prefix ends
    its whole subtree.  Pivots come from the first k columns only, and the
    columns past k are eliminated alongside, so X still has a row for every
    vector of V; with k < r nothing is walked.  Each adjugate yielded is a
    fresh list, the caller's to keep.
    """
    if r == 0:
        yield (), 1, [[] for _ in V]
        return
    k = len(V) if k is None else k
    path = [((), ([[v[j] for v in V] for j in range(r)], 1, 1), iter(range(k - r + 1)))]
    while path:
        S, state, columns = path[-1]
        t = len(S)
        for c in columns:
            child = _eliminate(state, t, c)
            if child is None:
                continue
            if t + 1 < r:
                path.append((S + (c,), child, iter(range(c + 1, k - r + t + 2))))
                break
            yield S + (c,), *_leaf(child)
        else:
            path.pop()

"""Exact integer linear algebra: one fraction-free solve.

Everything here works over Z; no fractions and no floating point.
Matrices are lists of lists (row-major), small enough that cubic algorithms
with exact arithmetic are fine.
"""

from __future__ import annotations


def fraction_free_solve(B, Y):
    """(det B, det B · X) for the solution X of X·B = Y over Z.

    B is a square integer matrix and each row of Y an integer vector of the
    same length, so row k of X holds the coordinates of Y[k] over the rows
    of B.  Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) on [B^T | Y^T] keeps every entry an integer, and by Sylvester's
    identity each division is exact; each row swap flips the sign of the
    determinant.
    Returns (0, None) when B is singular.
    """
    n = len(B)
    M = [[B[a][j] for a in range(n)] + [y[j] for y in Y] for j in range(n)]
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c] != 0), None)
        if piv is None:
            return 0, None
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        pivot_row = M[c]
        p = pivot_row[c]
        for i in range(n):
            if i != c:
                f = M[i][c]
                M[i] = [(p * v - f * w) // prev for v, w in zip(M[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * M[j][n + k] for j in range(n)] for k in range(len(Y))]

from fractions import Fraction

from semifano.intlinalg import (
    det_rational,
    lattice_membership,
    left_kernel_basis,
    rational_rank,
    same_lattice,
    solve_rational,
)


def test_left_kernel_simple():
    # rays of the projective plane: kernel is spanned by (1,1,1)
    V = [[1, 0], [0, 1], [-1, -1]]
    k = left_kernel_basis(V)
    assert len(k) == 1
    assert same_lattice(k, [[1, 1, 1]])


def test_left_kernel_rank_two():
    V = [[1, 0], [0, 1], [-1, -2], [0, -1]]
    k = left_kernel_basis(V)
    assert len(k) == 2
    assert same_lattice(k, [[1, 0, 1, -2], [0, 1, 0, 1]])


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
    assert det_rational([[1, 2], [3, 4]]) == -2
    assert det_rational([[1, 2], [2, 4]]) == 0


def test_lattice_membership():
    basis = [[1, 0, 1, -2], [0, 1, 0, 1]]
    assert lattice_membership(basis, [1, 2, 1, 0]) == [1, 2]
    assert lattice_membership(basis, [1, 0, 0, 0]) is None
    # rational but non-integer coordinates are rejected
    assert lattice_membership([[2, 0]], [1, 0]) is None


def test_same_lattice_index():
    assert same_lattice([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    assert not same_lattice([[1, 0], [0, 1]], [[2, 0], [0, 1]])

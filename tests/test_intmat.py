"""Integer matrix normal forms and lattice computations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from reference import _reference_det, _reference_rank, _reference_smith_kernel, _reference_smith_normal_form

from equislice.intmat import IntMatrix, det, xgcd
from equislice.linalg import solve


def test_xgcd_bezout():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (-3, -9), (1, 1)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0


def test_det_known_values():
    assert IntMatrix([[2, 1], [1, 1]]).det() == 1
    assert IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix([]).det() == 1


def test_rank():
    assert IntMatrix([[1, 2], [2, 4]]).rank() == 1
    assert IntMatrix([[1, 0], [0, 1]]).rank() == 2
    assert IntMatrix([[1, 1, 1]]).rank() == 1


def _random_matrix(rng, n, m, lo=-5, hi=5):
    return IntMatrix([[rng.randrange(lo, hi + 1) for _ in range(m)] for _ in range(n)])


def test_smith_normal_form_certificate():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = _random_matrix(rng, n, m)
        u, d, v = _reference_smith_normal_form(mat)
        assert u @ mat @ v == d
        assert u.det() in (1, -1)
        assert v.det() in (1, -1)
        diag = [d.rows[i][i] for i in range(min(n, m))]
        for i in range(min(n, m)):
            for j in range(min(n, m)):
                if i != j:
                    assert d.rows[i][j] == 0 if j < m and i < n else True
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        assert all(x >= 0 for x in diag)


def test_smith_normal_form_fixed():
    mat = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    u, d, v = _reference_smith_normal_form(mat)
    assert u @ mat @ v == d
    assert [d.rows[i][i] for i in range(3)] == [2, 2, 156]


def test_hermite_normal_form_canonical():
    # both bases generate the same lattice
    a = IntMatrix([[1, 2, 3], [4, 5, 6]])
    b = IntMatrix([[5, 7, 9], [4, 5, 6]])
    assert a.hermite_normal_form() == b.hermite_normal_form()
    h = a.hermite_normal_form()
    assert h == IntMatrix([[1, 2, 3], [0, 3, 6]])


def test_kernel_basis_is_kernel():
    rng = random.Random(23)
    for _ in range(30):
        n, m = rng.randrange(1, 4), rng.randrange(1, 5)
        mat = _random_matrix(rng, n, m)
        ker = mat.kernel_basis()
        assert ker.nrows == m - mat.rank()
        for row in ker.rows:
            prod = [sum(a * x for a, x in zip(r, row)) for r in mat.rows]
            assert all(p == 0 for p in prod)


def _graphic_support(rng, width=8):
    """A seeded support as the walk over flats hands it to kernel_basis:
    some edge rows of the complete graph on width + 1 vertices, signed
    incidence rows with vertex 0 grounded."""
    rows = []
    for a, b in rng.sample(list(combinations(range(width + 1), 2)), rng.randint(1, 12)):
        row = [0] * width
        if a:
            row[a - 1] = 1
        row[b - 1] = -1
        rows.append(row)
    return IntMatrix(rows)


def test_kernel_basis_matches_the_smith_kernel():
    # the rows of the Hermite form of [M^T | I] with a zero left block
    # are the Hermite basis of the kernel the Smith form gives
    rng = random.Random(41)
    cases = [IntMatrix([[0, 0, 0]]), IntMatrix([[1, 0, 2], [0, 0, 0]]), IntMatrix([[0, 1], [0, -3]]),
             IntMatrix([[0] * 4, [2, 0, 4, 0]]), IntMatrix([]), IntMatrix([[]])]
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [0] * m
        if rng.random() < 0.3:
            j = rng.randrange(m)
            for row in rows:
                row[j] = 0
        cases.append(IntMatrix(rows))
    cases += [_random_matrix(rng, 1, m, -3, 3) for m in range(1, 8) for _ in range(5)]
    cases += [_graphic_support(rng) for _ in range(40)]
    for mat in cases:
        assert mat.kernel_basis() == _reference_smith_kernel(mat), mat


def test_kernel_basis_canonical_fixed():
    mat = IntMatrix([[1, 1, 1]])
    ker = mat.kernel_basis()
    assert ker == IntMatrix([[1, 0, -1], [0, 1, -1]])


def test_rational_solve_of_integer_rows():
    mat = IntMatrix([[2, 0], [0, 3]])
    assert solve(mat.rows, [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    assert solve(IntMatrix([[1, 1], [1, 1]]).rows, [0, 1]) is None
    # underdetermined: free variable pinned to zero
    sol = solve(IntMatrix([[1, 1]]).rows, [5])
    assert sol == [Fraction(5), Fraction(0)]


def _rank_by_minors(mat: IntMatrix) -> int:
    """The largest k with a nonzero k x k minor (Bareiss determinants)."""
    for k in range(min(mat.nrows, mat.ncols), 0, -1):
        for rows in combinations(range(mat.nrows), k):
            for cols in combinations(range(mat.ncols), k):
                if det([[mat.rows[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def test_rank_agrees_with_minors():
    rng = random.Random(5)
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = _random_matrix(rng, n, m, -2, 2)
        assert mat.rank() == _rank_by_minors(mat)
    assert IntMatrix([]).rank() == 0
    assert IntMatrix([[0, 0], [0, 0]]).rank() == 0


def test_rank_and_det_match_the_reference():
    # rank-deficient rows (integer combinations of a few random ones),
    # zero rows and zero columns, so the elimination skips columns
    rng = random.Random(12)
    for _ in range(400):
        n, m = rng.randint(0, 6), rng.randint(1, 6)
        basis = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(1, m))]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(m)]
            if rng.random() < 0.5 else [rng.randint(-3, 3) for _ in range(m)]
            for _ in range(n)
        ]
        for j in range(m):
            if rng.random() < 0.15:
                for row in rows:
                    row[j] = 0
        mat = IntMatrix(rows)
        assert mat.rank() == _reference_rank(rows)
        if n == m:
            assert mat.det() == det(rows) == _reference_det(rows)
    assert det([]) == 1 and det([[0]]) == 0 and det([[-4]]) == -4


def test_rational_solve_of_integer_rows_against_the_product():
    rng = random.Random(6)
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = _random_matrix(rng, n, m, -2, 2)
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in mat.rows]
        sol = solve(mat.rows, b)
        assert [sum(a * x for a, x in zip(row, sol)) for row in mat.rows] == b
        other = [rng.randint(-3, 3) for _ in range(n)]
        augmented = IntMatrix([list(row) + [y] for row, y in zip(mat.rows, other)])
        consistent = _rank_by_minors(augmented) == _rank_by_minors(mat)
        assert (solve(mat.rows, other) is not None) == consistent
    assert solve(IntMatrix([]).rows, []) == []


def test_entries_must_be_exact_integers():
    for bad in (1.0, 2.5, True, False, Fraction(3, 2), "3", None):
        with pytest.raises(ValueError):
            IntMatrix([[1, bad]])
    m = IntMatrix([[Fraction(4, 2), -3], (0, Fraction(-7))])
    assert m.rows == ((2, -3), (0, -7))
    assert all(type(x) is int for row in m.rows for x in row)
    assert IntMatrix([]).rows == () and IntMatrix([[]]).rows == ((),)

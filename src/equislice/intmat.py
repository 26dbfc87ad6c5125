"""Exact integer matrix utilities: determinants, ranks and minors by one
Bareiss elimination, and the Hermite normal form.  One Hermite
elimination with transform, of the augmented matrix [M^T | I], gives
both kernel lattices and lattice complements (Cohen, A Course in
Computational Algebraic Number Theory, section 2.4).  Rational solves
and inverses go through ``linalg.Span``.

All algorithms are fraction-free or track unimodular transforms, so every
result is certified by integer identities (for example the Hermite form
of [M^T | I] is [U M^T | U] with det(U) in {1, -1}).
"""

from __future__ import annotations

from itertools import chain

from .scalars import InternalError, exact_int


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bareiss(rows) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, skipping
    columns without a pivot: (rank, signed last pivot).  After k pivots
    each entry left below them is a (k+1)-minor of the row-swapped
    matrix, so every division by the previous pivot is exact; for a
    square matrix of full rank the signed last pivot is its determinant."""
    a = [list(r) for r in rows]
    n = len(a)
    width = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for c in range(width):
        if rank == n:
            break
        p = next((i for i in range(rank, n) if a[i][c]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[c]
        for row in a[rank + 1 :]:
            f = row[c]
            for j in range(c + 1, width):
                num = row[j] * pivot - f * top[j]
                if num % prev:
                    raise InternalError("a Bareiss division must be exact")
                row[j] = num // prev
        prev = pivot
        rank += 1
    return rank, sign * prev


def det(rows) -> int:
    """Determinant of a square integer matrix given as plain rows."""
    rank, last = _bareiss(rows)
    return last if rank == len(rows) else 0


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            rows = tuple(
                tuple(exact_int(x, "a matrix entry") for x in row) for row in rows
            )
        self.rows = rows
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows))) if self.rows else IntMatrix([])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return IntMatrix(
            [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.rows]
        )

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    # -- rank and determinants -------------------------------------------

    def det(self) -> int:
        """Bareiss fraction-free determinant."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return det(self.rows)

    def rank(self) -> int:
        return _bareiss(self.rows)[0]

    # -- normal forms ------------------------------------------------------

    def hermite_normal_form(self) -> "IntMatrix":
        """Row-style Hermite normal form of the row span: pivots positive,
        entries above each pivot reduced into [0, pivot), zero rows dropped."""
        a = [list(r) for r in self.rows]
        n, m = self.nrows, self.ncols
        r = 0
        for c in range(m):
            pivot = next((i for i in range(r, n) if a[i][c]), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            for i in range(r + 1, n):
                if a[i][c] == 0:
                    continue
                g, s, t = xgcd(a[r][c], a[i][c])
                pr, pi = a[r][c] // g, a[i][c] // g
                new_r = [s * x + t * y for x, y in zip(a[r], a[i])]
                new_i = [-pi * x + pr * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = new_r, new_i
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == n:
                break
        return IntMatrix([row for row in a[:r]])

    # -- lattices ----------------------------------------------------------

    def kernel_basis(self) -> "IntMatrix":
        """Canonical basis (as rows, in Hermite normal form) of the integer
        kernel {x : self @ x == 0}: the rows of _transform_hermite whose
        left block is zero, read in their right block."""
        s = self.nrows
        return IntMatrix(
            [row[s:] for row in _transform_hermite(self, self.ncols).rows if not any(row[:s])]
        )


def _transform_hermite(mat: IntMatrix, m: int) -> IntMatrix:
    """The Hermite form [U M^T | U] of [M^T | I_m] for an s x m matrix M
    (s may be 0), U unimodular and, as the form is unique, fixed by M.
    Its rows with a zero left block are the Hermite basis of the integer
    kernel of M.  For s <= m the rows of M extend to a basis of Z^m
    exactly when the pivots (i, i) of the first s rows are all 1; then
    U M^T = [I_s; 0], so M is the top s rows of (U^-1)^T, and the bottom
    m - s rows complete it."""
    return IntMatrix(
        [[row[k] for row in mat.rows] + [1 if j == k else 0 for j in range(m)] for k in range(m)]
    ).hermite_normal_form()

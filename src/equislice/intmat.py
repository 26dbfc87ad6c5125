"""Exact integer matrix utilities: determinants, ranks and minors by one
Bareiss elimination, Smith and Hermite normal forms and kernel lattices.
Rational solves and inverses go through ``linalg.Span``.

All algorithms are fraction-free or track unimodular transforms, so every
result is certified by integer identities (for example snf returns U, D, V
with U * M * V == D and det(U), det(V) in {1, -1}).
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

    def smith_normal_form(self) -> tuple["IntMatrix", "IntMatrix", "IntMatrix"]:
        """Returns (U, D, V) with U @ self @ V == D diagonal, U and V
        unimodular, and each diagonal entry dividing the next."""
        a = [list(r) for r in self.rows]
        n, m = self.nrows, self.ncols
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

        def row_sub(i, j, q):
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

        def col_sub(i, j, q):
            for row in a:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

        def row_swap(i, j):
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

        def col_swap(i, j):
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

        for k in range(min(n, m)):
            while True:
                # move the smallest nonzero entry of the tail block to (k, k)
                best = None
                for i in range(k, n):
                    for j in range(k, m):
                        if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                            best = (i, j)
                if best is None:
                    break
                if best != (k, k):
                    if best[0] != k:
                        row_swap(k, best[0])
                    if best[1] != k:
                        col_swap(k, best[1])
                dirty = False
                for i in range(k + 1, n):
                    if a[i][k]:
                        row_sub(i, k, a[i][k] // a[k][k])
                        if a[i][k]:
                            dirty = True
                for j in range(k + 1, m):
                    if a[k][j]:
                        col_sub(j, k, a[k][j] // a[k][k])
                        if a[k][j]:
                            dirty = True
                if dirty:
                    continue
                # enforce divisibility of the remaining block
                fix = None
                for i in range(k + 1, n):
                    for j in range(k + 1, m):
                        if a[i][j] % a[k][k]:
                            fix = i
                            break
                    if fix is not None:
                        break
                if fix is None:
                    break
                row_sub(k, fix, -1)
            if k < n and k < m and a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
        return IntMatrix(u), IntMatrix(a), IntMatrix(v)

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
        kernel {x : self @ x == 0}."""
        u, d, v = self.smith_normal_form()
        rank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i])
        cols = v.transpose().rows
        basis = [cols[j] for j in range(rank, self.ncols)]
        if not basis:
            return IntMatrix([])
        return IntMatrix(basis).hermite_normal_form()

"""Generic exact linear algebra over any field whose elements support
+, -, *, /, and truth testing (Fraction, CycloNumber).

Matrices are plain lists of row lists; integer entries are promoted to
Fraction so division stays exact.
"""

from __future__ import annotations

from fractions import Fraction


def _promote(x):
    return Fraction(x) if isinstance(x, int) else x


def rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [[_promote(x) for x in r] for r in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows) -> list[list]:
    """Basis of the right kernel {x : rows @ x == 0}, one vector per free
    column, each normalized with a 1 in its free position."""
    if not rows:
        return []
    m = len(rows[0])
    a, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(m):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        basis.append(v)
    return basis


def solve(rows, b) -> list | None:
    """One solution of rows @ x == b, or None if inconsistent.  Free
    variables are set to zero."""
    n = len(rows)
    if n == 0:
        return []
    m = len(rows[0])
    aug = [list(r) + [b[i]] for i, r in enumerate(rows)]
    a, pivots = rref(aug)
    for i in range(len(pivots), n):
        if a[i][m]:
            return None
    if pivots and pivots[-1] == m:
        return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = a[i][m]
    return x


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    if not vectors:
        return not any(target)
    cols = [list(v) for v in vectors]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(target))]
    return solve(mat, list(target)) is not None


def _subtract_multiple(vec: dict, f, row: dict) -> None:
    """vec -= f * row in place, dropping the entries that cancel."""
    for key, c in row.items():
        s = vec[key] - f * c if key in vec else -(f * c)
        if s:
            vec[key] = s
        else:
            del vec[key]


class Echelon:
    """A reduced echelon basis of sparse vectors, grown one vector at a
    time.

    Vectors are dicts from hashable keys to field elements.  Every stored
    row has a pivot key with coefficient 1 that no other row contains,
    so reducing a vector subtracts one row per pivot key it carries and
    never revisits a pivot; a membership test is one reduction, and an
    insertion adds one row and clears its pivot from the others."""

    def __init__(self):
        self._rows: dict = {}

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, vec: dict) -> dict:
        """vec minus its projection onto the span, as a sparse dict whose
        keys avoid every pivot; empty exactly when vec lies in the span."""
        out = {key: _promote(c) for key, c in vec.items() if c}
        for p in [key for key in out if key in self._rows]:
            _subtract_multiple(out, out[p], self._rows[p])
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; whether it was new (the rank grew)."""
        rest = self.reduce(vec)
        if not rest:
            return False
        pivot = next(iter(rest))
        inv = 1 / rest[pivot]
        row = {key: c * inv for key, c in rest.items()}
        for other in self._rows.values():
            if pivot in other:
                _subtract_multiple(other, other[pivot], row)
        self._rows[pivot] = row
        return True

"""An independent dense reference for exact linear algebra: textbook
Gauss-Jordan over Fraction and cyclotomic scalars, shared by the tests
that check the elimination engine and its callers."""

from fractions import Fraction


def _reference_rref(rows):
    """Textbook dense Gauss-Jordan: (RREF with zero rows last, pivots)."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _reference_rank(rows):
    return len(_reference_rref(rows)[1])


def _reference_kernel(rows):
    a, pivots = _reference_rref(rows)
    width = len(rows[0]) if rows else 0
    basis = []
    for f in (f for f in range(width) if f not in pivots):
        v = [Fraction(int(j == f)) for j in range(width)]
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        basis.append(v)
    return basis


def _reference_solve(rows, b):
    if not rows:
        return []
    width = len(rows[0])
    a, pivots = _reference_rref([list(r) + [y] for r, y in zip(rows, b)])
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        x[c] = a[i][width]
    return x

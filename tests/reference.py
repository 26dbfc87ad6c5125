"""References shared by the tests: an independent dense textbook
Gauss-Jordan over Fraction and cyclotomic scalars, for the tests that
check the elimination engine and its callers; the brute-force walk of
hypertoric leaves over every coordinate subset; and the Fraction-typed
form of a scalar, with the comparison that holds int-first results to
the same computation on Fraction inputs."""

from fractions import Fraction
from itertools import combinations

from equislice.hypertoric import (
    LeafDescriptor,
    TorusActionMatrix,
    _fixed_coordinates,
    _is_cyclic,
    _stabilizer_lattice,
    check_unimodular,
)
from equislice.scalars import CycloNumber
from equislice.series import TruncatedElement


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


def _reference_det(rows):
    """Determinant as the signed product of Fraction pivots."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


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


def _reference_leaves(b):
    """The leaves by brute force: one kernel lattice per coordinate
    subset, 2**n in all, deduplicated by Hermite basis."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    ok, witness = check_unimodular(b)
    if not ok:
        raise ValueError(f"the action is not unimodular: minor {witness['minor']} on rows {witness['rows']}")
    lattices = {}
    for size in range(b.n + 1):
        for support in combinations(range(b.n), size):
            lat = _stabilizer_lattice(b, support)
            lattices[lat.rows] = lat
    leaves = []
    for lat in lattices.values():
        fixed = _fixed_coordinates(b, lat)
        # the kernel over the full fixed locus reproduces the lattice, so
        # each recorded subtorus is the maximal one for its flat
        assert _stabilizer_lattice(b, fixed).rows == lat.rows
        if not _is_cyclic(b, fixed):
            continue
        flat = [i + 1 for i in range(b.n) if i not in fixed]
        leaves.append(LeafDescriptor(flat, lat, b.m, b.n))
    leaves.sort(key=lambda leaf: (-leaf.leaf_dim, leaf.flat))
    return leaves


def as_fractions(c):
    """A scalar with every rational in it a Fraction, the representation
    before the int-first rule; the constructors would turn integral
    Fractions back into ints, so a CycloNumber is built directly."""
    if isinstance(c, CycloNumber):
        return CycloNumber(c.field, tuple(Fraction(x) for x in c.coeffs))
    return Fraction(c)


def rationals(obj):
    """Every rational scalar in a result: coefficients of elements, of
    cyclotomic numbers and of dict values, through lists and tuples."""
    if isinstance(obj, TruncatedElement):
        obj = list(obj.terms.values())
    elif isinstance(obj, CycloNumber):
        obj = obj.coeffs
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from rationals(x)
    else:
        yield obj


def _hashable(obj):
    if isinstance(obj, dict):
        return frozenset((k, _hashable(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_hashable(x) for x in obj)
    return obj


def _printed(obj) -> str:
    # str(dict) would show repr(Fraction(2)), which no report prints
    if isinstance(obj, dict):
        return str(sorted((k, _printed(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return str([_printed(x) for x in obj])
    return str(obj)


def assert_same_result(got, ref):
    """got (from int-first inputs) and ref (from Fraction inputs) agree as
    values, hashes and printed text, and neither holds a float."""
    for result in (got, ref):
        strays = [c for c in rationals(result) if type(c) not in (int, Fraction)]
        assert strays == []
    assert got == ref
    assert hash(_hashable(got)) == hash(_hashable(ref))
    assert _printed(got) == _printed(ref)

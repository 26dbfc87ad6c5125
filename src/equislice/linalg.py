"""Exact linear algebra over any field whose elements support +, -, *,
/, and truth testing (int and Fraction, CycloNumber), on one sparse
elimination engine.

`Echelon` keeps the reduced row echelon form of a span of sparse
vectors, dicts from keys to field elements, grown one vector at a time.
Each row pivots on its least key, so the keys fed to one Echelon must be
mutually orderable, and the stored rows are exactly the canonical RREF of
the span in key order.  Entries follow the int-first rule of
``scalars``: the one division, by a pivot, is ``scalars.quo``, and a row
scaled by the pivot's inverse goes through ``scalars.exact`` once as it
is stored, as do the entries of the stored rows it clears of its pivot,
so an integral entry stays an int and no division makes a float.

`Span` is the one augmented elimination: each vector carries a tag of
its own, and its combinations and relations are read off the tags.
`relations` (the canonical kernel of sparse columns), `rank`, `solve`
and `in_span` (dense matrices as lists of rows) are thin wrappers.
"""

from __future__ import annotations

from .scalars import exact, quo


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

    Vectors are dicts from hashable, mutually orderable keys to field
    elements.  Every stored row has a pivot, its least key, with
    coefficient 1 that no other row contains, so the rows are the
    canonical RREF of the span in key order.  Reducing a vector
    subtracts one row per pivot key it carries and never revisits a
    pivot; a membership test is one reduction, and an insertion adds one
    row and clears its pivot from the others."""

    def __init__(self):
        self._rows: dict = {}

    def __len__(self) -> int:
        return len(self._rows)

    def items(self) -> list[tuple]:
        """(pivot, row) pairs in pivot order: the RREF of the span."""
        return sorted(self._rows.items())

    def reduce(self, vec: dict) -> dict:
        """vec minus its projection onto the span, as a sparse dict whose
        keys avoid every pivot; empty exactly when vec lies in the span."""
        out = {key: c for key, c in vec.items() if c}
        for p in [key for key in out if key in self._rows]:
            _subtract_multiple(out, out[p], self._rows[p])
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; whether it was new (the rank grew)."""
        rest = self.reduce(vec)
        if rest:
            self._store(rest, min(rest))
        return bool(rest)

    def _store(self, rest: dict, pivot) -> None:
        """Store a reduced vector as the row of the given pivot: its least
        key from insert, its least data key from a Span."""
        inv = quo(1, rest[pivot])
        row = {key: exact(c * inv) for key, c in rest.items()}
        for other in self._rows.values():
            if pivot in other:
                _subtract_multiple(other, other[pivot], row)
                for key in row.keys() & other.keys():
                    other[key] = exact(other[key])
        self._rows[pivot] = row


class _Tag:
    """The augmentation key of one vector of a Span: equal to no data key
    (it hashes by identity) and never ordered (no tag is a pivot)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Span:
    """The span of sparse vectors added one at a time, vector j being
    the j-th added.

    Vector j enters one Echelon with its own tag at coefficient 1, and
    each stored row pivots on its least data key, so its tags write it
    as a combination of the vectors.  A vector whose data part reduces
    to zero leaves only tags, its relation to the earlier vectors, and
    is not stored.  So the rows carry only the tags of vectors
    independent of the ones before them, and every combination read
    off them is the unique one supported there (in a dense solve: the
    free variables are zero)."""

    def __init__(self, vectors=()):
        self._echelon = Echelon()
        self._count = 0
        for vec in vectors:
            self.add(vec)

    def add(self, vec: dict) -> dict | None:
        """Add the next vector, j: None when it grows the span, else its
        relation to the earlier vectors, by index in index order: 1 at j,
        minus its coefficients on the earlier independent vectors."""
        tag = _Tag(self._count)
        self._count += 1
        rest = self._echelon.reduce({**vec, tag: 1})
        data = [key for key in rest if type(key) is not _Tag]
        if data:
            self._echelon._store(rest, min(data))
            return None
        return dict(sorted((t.index, exact(c)) for t, c in rest.items()))

    def express(self, target: dict) -> tuple[dict, dict]:
        """(coefficients, residual) with target == residual + the sum of
        coefficients[j] * vector j.  The residual is target's echelon
        residual, empty exactly when target lies in the span; the
        coefficients, by index, are nonzero only on vectors independent
        of the ones before them."""
        coefficients, residual = {}, {}
        for key, c in self._echelon.reduce(target).items():
            if type(key) is _Tag:
                coefficients[key.index] = -c
            else:
                residual[key] = c
        return coefficients, residual


def relations(columns) -> list[dict]:
    """The linear relations {c : sum_j c_j * columns[j] == 0} among
    sparse columns as the RREF of dicts keyed by column index, in pivot
    order: the Span's relations, put through one small elimination."""
    span, kernel = Span(), Echelon()
    for col in columns:
        relation = span.add(col)
        if relation is not None:
            kernel.insert(relation)
    return [row for _, row in kernel.items()]


def rank(rows) -> int:
    echelon = Echelon()
    width = len(rows[0]) if rows else 0
    for r in rows:
        if len(echelon) == width:
            break
        echelon.insert(dict(enumerate(r)))
    return len(echelon)


def solve(rows, b) -> list | None:
    """One solution of rows @ x == b, or None if inconsistent.  Free
    variables are set to zero."""
    width = len(rows[0]) if rows else 0
    span = Span({i: r[j] for i, r in enumerate(rows)} for j in range(width))
    coefficients, residual = span.express(dict(enumerate(b)))
    if residual:
        return None
    return [exact(coefficients.get(j, 0)) for j in range(width)]


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    if not vectors:
        return not any(target)
    cols = [list(v) for v in vectors]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(target))]
    return solve(mat, list(target)) is not None

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

`rank`, `solve` and `in_span` are thin wrappers for dense matrices,
plain lists of row lists keyed by column index.  `relations` hands
sparse columns straight to the engine and returns the echelon basis of
their linear relations.
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
        if not rest:
            return False
        pivot = min(rest)
        inv = quo(1, rest[pivot])
        row = {key: exact(c * inv) for key, c in rest.items()}
        for other in self._rows.values():
            if pivot in other:
                _subtract_multiple(other, other[pivot], row)
                for key in row.keys() & other.keys():
                    other[key] = exact(other[key])
        self._rows[pivot] = row
        return True


def _row_echelon(rows) -> Echelon:
    """The echelon of a dense matrix's row span, keyed by column."""
    echelon = Echelon()
    width = len(rows[0]) if rows else 0
    for r in rows:
        if len(echelon) == width:
            break
        echelon.insert(dict(enumerate(r)))
    return echelon


def rank(rows) -> int:
    return len(_row_echelon(rows))


def solve(rows, b) -> list | None:
    """One solution of rows @ x == b, or None if inconsistent.  Free
    variables are set to zero."""
    if not rows:
        return []
    width = len(rows[0])
    items = _row_echelon([[*r, b[i]] for i, r in enumerate(rows)]).items()
    if items and items[-1][0] == width:
        return None
    x = [0] * width
    for p, row in items:
        if width in row:
            x[p] = row[width]
    return x


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    if not vectors:
        return not any(target)
    cols = [list(v) for v in vectors]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(target))]
    return solve(mat, list(target)) is not None


def relations(columns, tags) -> list[dict]:
    """The linear relations {c : sum_j c_j * columns[j] == 0} among
    sparse columns, as the RREF of sparse dicts keyed by tags[j], in
    pivot order.

    Column j goes into the engine with the extra key tags[j] at
    coefficient 1.  Every tag must sort after every column key, so the
    rows that pivot on a tag have no column part and span exactly the
    relations, in the order of the tags."""
    tagged = set(tags)
    echelon = Echelon()
    for col, tag in zip(columns, tags):
        vec = dict(col)
        vec[tag] = 1
        echelon.insert(vec)
    return [row for p, row in echelon.items() if p in tagged]
